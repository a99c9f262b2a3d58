package workload

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload/randgen"
)

// Op is the request kind a LoadDriver emits.
type Op int

const (
	// OpWrite stores a value (allocator-visible: malloc + first touch).
	OpWrite Op = iota + 1
	// OpRead fetches a previously stored value (possible swap-ins).
	OpRead
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Request is one keyed request of an open-loop stream. Arrival times are
// fixed at generation time and never react to service latency — exactly the
// open-loop discipline a front-end fleet imposes on a storage tier, and the
// regime where queueing delay (not just service time) dominates tails.
type Request struct {
	// At is the arrival instant on the cluster-wide virtual timeline.
	At simtime.Time
	// Key selects the record (and thereby, through the ShardRouter, the
	// shard and node that serve the request).
	Key int64
	// Op is the request kind.
	Op Op
	// ValueBytes is the payload size for writes (0 for reads).
	ValueBytes int64
}

// streamLoadDriver is the LoadDriver's stream id under LoadConfig.Seed —
// a domain-separation constant (ASCII "load-drv") far outside the small
// node-local id registry (kernel.Stream*). Ids must differ even across
// namespaces: a load driver and a node handed the *same* seed (both
// default to 1) would otherwise split the identical stream and correlate
// jitter noise with the request pattern.
const streamLoadDriver uint64 = 0x6c6f61642d647276

// LoadConfig tunes an open-loop request generator.
type LoadConfig struct {
	// Requests is the total number of requests to emit.
	Requests int64
	// RatePerSec is the mean arrival rate in requests per virtual second;
	// inter-arrival gaps are exponential (Poisson arrivals).
	RatePerSec float64
	// Start is the arrival instant of the stream's first request.
	Start simtime.Time
	// Keys is the key-space size; keys are in [0, Keys).
	Keys int64
	// ZipfS selects key skew: 0 draws keys uniformly, a value > 1 draws
	// them Zipf-distributed with exponent s (key 0 hottest).
	ZipfS float64
	// ReadFraction is the probability a request is a read (the rest are
	// writes). 0.5 reproduces the paper's insert+read query mix.
	ReadFraction float64
	// ValueBytes is the write payload size.
	ValueBytes int64
	// Seed drives all stochastic choices; one seed reproduces the exact
	// request stream.
	Seed uint64
}

// DefaultLoadConfig returns a YCSB-flavoured default: 1 M requests at
// 50 k req/s with a mildly skewed 100 k-key space, half reads, 1 KB values.
func DefaultLoadConfig() LoadConfig {
	return LoadConfig{
		Requests:     1_000_000,
		RatePerSec:   50_000,
		Keys:         100_000,
		ZipfS:        1.1,
		ReadFraction: 0.5,
		ValueBytes:   1024,
		Seed:         1,
	}
}

// Validate reports whether the configuration is well-formed. Every
// violation names the offending field and the accepted range, so a CLI or
// scenario loader can surface the message verbatim. Float ranges are
// demanded as !(in range), so NaN is rejected.
func (c LoadConfig) Validate() error {
	if c.Requests <= 0 {
		return fmt.Errorf("workload: Requests must be > 0 (got %d)", c.Requests)
	}
	if !(c.RatePerSec > 0) {
		return fmt.Errorf("workload: RatePerSec must be > 0 (got %v)", c.RatePerSec)
	}
	if c.Keys <= 0 {
		return fmt.Errorf("workload: Keys must be > 0 (got %d)", c.Keys)
	}
	if c.ValueBytes <= 0 {
		return fmt.Errorf("workload: ValueBytes must be > 0 (got %d)", c.ValueBytes)
	}
	if c.ZipfS != 0 && !(c.ZipfS > 1) {
		return fmt.Errorf("workload: Zipf exponent must be > 1 (got %v); use 0 for uniform", c.ZipfS)
	}
	if !(0 <= c.ReadFraction && c.ReadFraction <= 1) {
		return fmt.Errorf("workload: read fraction %v outside [0,1]", c.ReadFraction)
	}
	return nil
}

// LoadDriver generates an open-loop keyed request stream. It is a pull
// iterator: the cluster (or any other executor) calls Next and decides how
// to route and serve each request. Generation is deterministic — the same
// config and seed produce the identical stream, which is what makes whole
// cluster runs reproducible.
type LoadDriver struct {
	cfg LoadConfig

	// An independent randgen stream split from the load seed, with
	// alias-table Zipf keys and ziggurat exponential gaps.
	rng  *randgen.Stream
	zipf *randgen.Zipf

	// shape, when non-nil, modulates the instantaneous arrival rate: the
	// mean rate at virtual instant t is RatePerSec·shape(t). Only the
	// scenario driver sets it; a nil shape keeps the gap arithmetic
	// bit-identical to the constant-rate path.
	shape func(simtime.Time) float64

	next    simtime.Time
	emitted int64
}

// NewLoadDriver validates the config and positions the stream at its first
// arrival.
func NewLoadDriver(cfg LoadConfig) *LoadDriver {
	return newLoadDriverStream(cfg, streamLoadDriver)
}

// newLoadDriverStream builds a driver whose draws come from stream id under
// cfg.Seed. NewLoadDriver uses the canonical streamLoadDriver id; the
// scenario driver hands every traffic class its own id so coexisting
// classes never share a sequence. A class on the canonical id is
// bit-identical to a plain LoadDriver — the property Cluster.Run's
// single-phase adapter rests on.
func newLoadDriverStream(cfg LoadConfig, id uint64) *LoadDriver {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &LoadDriver{cfg: cfg, next: cfg.Start, rng: randgen.Split(cfg.Seed, id)}
	if cfg.ZipfS > 0 {
		d.zipf = randgen.NewZipf(d.rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	}
	return d
}

// Next returns the next request of the stream, or ok=false once Requests
// have been emitted. Draw order (key, op, gap) is fixed so the stream is a
// pure function of the seed.
func (d *LoadDriver) Next() (req Request, ok bool) {
	if d.emitted >= d.cfg.Requests {
		return Request{}, false
	}
	key := d.key()
	opU := d.rng.Float64()
	gap := d.rng.ExpFloat64()
	req = Request{At: d.next, Key: key}
	if opU < d.cfg.ReadFraction {
		req.Op = OpRead
	} else {
		req.Op = OpWrite
		req.ValueBytes = d.cfg.ValueBytes
	}
	d.emitted++
	gap /= d.cfg.RatePerSec // seconds of virtual time
	if d.shape != nil {
		// Time-varying rate: the gap out of instant t is scaled by the
		// instantaneous shape factor at t (an Euler-style non-homogeneous
		// Poisson — exact for piecewise-constant shapes, and deterministic
		// because the factor is a pure function of the arrival instant).
		gap /= d.shape(d.next)
	}
	d.next = d.next.Add(simtime.Duration(gap * float64(simtime.Second)))
	return req, true
}

func (d *LoadDriver) key() int64 {
	if d.zipf != nil {
		return int64(d.zipf.Uint64())
	}
	return d.rng.Int64N(d.cfg.Keys)
}
