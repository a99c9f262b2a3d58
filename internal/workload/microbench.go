// Package workload implements the paper's workload generators (§5.1): the
// micro-benchmark that streams fixed-size malloc+write requests, and the
// anonymous-page and file-cache pressure generators that reproduce the two
// memory-pressure regimes of Figure 3.
package workload

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload/randgen"
)

// JitterRequest applies the cost model's measurement noise to one
// allocation request's latency: multiplicative log-normal spread and rare
// scheduling spikes, which give simulated CDFs the smooth support of the
// measured ones instead of a handful of discrete steps. A request that
// enters the kernel is also inflated by 1+AmbientFactor while reclaim is
// active. Requests served entirely from pre-mapped memory (Hermes
// reservations, allocator caches of resident memory) complete in user
// space without entering the kernel, so the ambient reclaim slowdown does
// not apply to them — the mechanism behind Hermes' latency staying near
// its dedicated-system level even under pressure (Figs 7b, 8b).
func JitterRequest(k *kernel.Kernel, d simtime.Duration, preMapped bool) simtime.Duration {
	costs := k.Costs()
	rng := k.RNG()
	out := d
	if !preMapped {
		out = simtime.Duration(float64(out) * (1 + k.AmbientFactor(k.Scheduler().Now())))
	}
	if costs.JitterSigma > 0 {
		// Log-normal spread on the kernel's jitter stream: ziggurat
		// normal and table-driven exp — the per-request path carries no
		// math.Exp/NormFloat64 calls (see internal/workload/randgen).
		out = simtime.Duration(float64(out) * randgen.FastExp(rng.NormFloat64()*costs.JitterSigma))
	}
	if costs.JitterSpikeProb > 0 && rng.Float64() < costs.JitterSpikeProb {
		out += costs.JitterSpikeCost
	}
	if out < 0 {
		out = 0
	}
	return out
}

// MicroBenchConfig describes one micro-benchmark run: fixed-size requests
// until TotalBytes have been requested (§5.2 uses 1 KB and 256 KB requests
// to 1 GB).
type MicroBenchConfig struct {
	RequestSize int64
	TotalBytes  int64
}

func (c MicroBenchConfig) validate() error {
	if c.RequestSize <= 0 || c.TotalBytes < c.RequestSize {
		return fmt.Errorf("workload: bad micro-benchmark config %+v", c)
	}
	return nil
}

// microPresizeMax caps RunMicroBench's up-front sample reservation at the
// paper's full-scale cell (1 GiB of 1 KiB requests); a longer stream grows
// past it as it records.
const microPresizeMax = 1 << 20

// RunMicroBench drives the allocator with the configured request stream,
// recording each request's malloc+write latency (the paper's "memory
// allocation latency") into rec. The scheduler advances by each request's
// latency, so background work (management thread, kswapd, pressure
// generators) interleaves realistically. Like the paper's benchmark it
// never frees: each request's memory stays allocated, and its handle is
// dropped once read, so the stream reuses one Block instead of growing
// the Go heap per simulated malloc.
func RunMicroBench(k *kernel.Kernel, a alloc.Allocator, cfg MicroBenchConfig, rec *stats.Recorder) {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	n := cfg.TotalBytes / cfg.RequestSize
	if cfg.TotalBytes%cfg.RequestSize != 0 {
		n++
	}
	rec.Grow(int(min(n, microPresizeMax)))
	s := k.Scheduler()
	var requested int64
	for requested < cfg.TotalBytes {
		b, mallocCost := a.Malloc(s.Now(), cfg.RequestSize)
		touchCost := a.Touch(s.Now().Add(mallocCost), b)
		lat := JitterRequest(k, mallocCost+touchCost, b.PreMapped)
		a.Drop(b)
		rec.Record(lat)
		s.Advance(lat)
		requested += cfg.RequestSize
	}
}
