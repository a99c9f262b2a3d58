package workload

import (
	"fmt"
	"math"

	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// This file is the declarative scenario layer: a Scenario describes a whole
// experiment — an ordered list of phases, each blending one or more traffic
// classes under a rate shape, plus a virtual-time event timeline — and the
// ScenarioDriver turns it into one deterministic request stream. The
// cluster engine executes scenarios (and fires their events); everything
// here is pure generation, so the same Scenario replays bit-identically on
// either cluster engine.

// ShapeKind names a rate-shape curve.
type ShapeKind string

const (
	// ShapeConstant keeps the class rates flat across the phase (the
	// default; factor 1 everywhere, bit-identical to an unshaped driver).
	ShapeConstant ShapeKind = "constant"
	// ShapeRamp scales the rate linearly from From× to To× across the
	// phase duration — warm-up ramps and ramp-to-saturation sweeps.
	ShapeRamp ShapeKind = "ramp"
	// ShapeSpike multiplies the rate by Factor inside the window
	// [At, At+Width) of phase-relative time — a flash crowd.
	ShapeSpike ShapeKind = "spike"
	// ShapeDiurnal modulates the rate sinusoidally: factor
	// 1 + Amplitude·sin(2π·t/Period) over phase-relative time t — the
	// day/night swing of a user-facing fleet.
	ShapeDiurnal ShapeKind = "diurnal"
)

// RateShape modulates the arrival rate of every traffic class in a phase.
// The zero value is a constant shape.
type RateShape struct {
	// Kind selects the curve; empty means ShapeConstant.
	Kind ShapeKind
	// From and To are the ramp's endpoint multipliers (ShapeRamp).
	From, To float64
	// Factor is the spike multiplier (ShapeSpike).
	Factor float64
	// At and Width bound the spike window in phase-relative time
	// (ShapeSpike).
	At, Width simtime.Duration
	// Period is the oscillation period (ShapeDiurnal).
	Period simtime.Duration
	// Amplitude is the oscillation depth in [0, 1) (ShapeDiurnal).
	Amplitude float64
}

// ShapeKind resolves the configured kind, defaulting to ShapeConstant so
// the zero RateShape value works.
func (r RateShape) ShapeKind() ShapeKind {
	if r.Kind == "" {
		return ShapeConstant
	}
	return r.Kind
}

// Validate reports whether the shape is well-formed. dur is the owning
// phase's duration (0 when the phase is request-bounded); a ramp needs it
// as the curve's domain.
func (r RateShape) Validate(dur simtime.Duration) error {
	switch r.ShapeKind() {
	case ShapeConstant:
	case ShapeRamp:
		if dur <= 0 {
			return fmt.Errorf("ramp shape needs a phase Duration as its domain")
		}
		if !(r.From > 0 && r.To > 0) {
			return fmt.Errorf("ramp endpoints must be > 0 (got From=%v To=%v)", r.From, r.To)
		}
	case ShapeSpike:
		if !(r.Factor > 0) {
			return fmt.Errorf("spike Factor must be > 0 (got %v)", r.Factor)
		}
		if r.At < 0 || r.Width <= 0 {
			return fmt.Errorf("spike window must have At >= 0 and Width > 0 (got At=%v Width=%v)", r.At, r.Width)
		}
	case ShapeDiurnal:
		if r.Period <= 0 {
			return fmt.Errorf("diurnal Period must be > 0 (got %v)", r.Period)
		}
		if !(0 <= r.Amplitude && r.Amplitude < 1) {
			return fmt.Errorf("diurnal Amplitude must be in [0, 1) (got %v)", r.Amplitude)
		}
	default:
		return fmt.Errorf("unknown shape kind %q (want constant, ramp, spike or diurnal)", r.Kind)
	}
	return nil
}

// factor returns the rate multiplier at phase-relative instant rel; dur is
// the phase duration (0 for request-bounded phases). Factors are pure
// functions of rel, which is what keeps shaped streams deterministic.
func (r RateShape) factor(rel, dur simtime.Duration) float64 {
	switch r.ShapeKind() {
	case ShapeRamp:
		frac := float64(rel) / float64(dur)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return r.From + float64((r.To-r.From)*frac) // rounded: never fused into an FMA
	case ShapeSpike:
		if rel >= r.At && rel < r.At+r.Width {
			return r.Factor
		}
		return 1
	case ShapeDiurnal:
		return 1 + float64(r.Amplitude*math.Sin(2*math.Pi*float64(rel)/float64(r.Period)))
	default:
		return 1
	}
}

// TrafficClass is one independent request population inside a phase: its
// own key space, skew, read/write mix and value sizes, sampled from its own
// domain-separated randgen stream. Classes in one phase interleave by
// arrival time into a single stream.
type TrafficClass struct {
	// Name labels the class in reports.
	Name string
	// Rate is the class's mean arrival rate in requests per virtual
	// second (before phase shaping).
	Rate float64
	// Keys is the class's key-space size; keys are in [0, Keys).
	Keys int64
	// ZipfS selects key skew: 0 uniform, > 1 Zipf with that exponent.
	ZipfS float64
	// ReadFraction is the probability a request is a read.
	ReadFraction float64
	// ValueBytes is the write payload size.
	ValueBytes int64
	// Resilience optionally gives the class's clients a timeout / retry /
	// hedging policy (nil = fire-and-forget clients, the previous
	// behavior).
	Resilience *Resilience
}

// Resilience is a traffic class's client-side failure-handling policy. All
// of it is executed in virtual time by the cluster engine: retries and
// hedges re-enter routing as fresh arrival instants, and every stochastic
// choice (backoff jitter, fault draws) comes from its own domain-separated
// stream — so resilient scenarios replay bit-identically on both engines.
// Durations here are latency-domain (client deadlines measured against
// service latency), so Scenario.Scaled leaves them untouched.
type Resilience struct {
	// Timeout is the client's per-attempt deadline; an attempt whose
	// latency exceeds it counts as timed out (the server still finishes
	// the work — the client just stops waiting). 0 = no deadline.
	Timeout simtime.Duration
	// Retries bounds how many times the client retries a failed attempt
	// (error, timeout, or dropped connection). 0 = no retries. Validate
	// rejects a policy whose whole chain could span more than 2^62 ns.
	Retries int
	// Backoff is the base retry delay: retry k (1-based) waits
	// Backoff·2^(k-1)·(1+jitter) after the failure is observed. Required
	// when Retries > 0.
	Backoff simtime.Duration
	// Jitter is the multiplicative backoff jitter amplitude in [0, 1):
	// each retry's delay is stretched by a factor drawn uniformly from
	// [1, 1+Jitter).
	Jitter float64
	// Hedge, when > 0, fires a speculative duplicate of each read to the
	// next live replica of its shard after this much waiting — tail-latency
	// hedging. Writes are never hedged (a duplicated write would corrupt
	// the store-conservation contract). Requires shard replicas to bite.
	Hedge simtime.Duration
}

// Validate reports whether the policy is well-formed.
func (r Resilience) Validate() error {
	if r.Timeout < 0 {
		return fmt.Errorf("resilience Timeout must be >= 0 (got %v)", r.Timeout)
	}
	if r.Retries < 0 {
		return fmt.Errorf("resilience Retries must be >= 0 (got %d)", r.Retries)
	}
	if r.Retries > 0 && r.Backoff <= 0 {
		return fmt.Errorf("resilience Backoff must be > 0 when Retries > 0 (got %v)", r.Backoff)
	}
	if r.Backoff < 0 {
		return fmt.Errorf("resilience Backoff must be >= 0 (got %v)", r.Backoff)
	}
	if !(0 <= r.Jitter && r.Jitter < 1) {
		return fmt.Errorf("resilience Jitter must be in [0, 1) (got %v)", r.Jitter)
	}
	if r.Hedge < 0 || r.Hedge > maxSpan {
		return fmt.Errorf("resilience Hedge must be in [0, 2^62 ns] (got %v)", r.Hedge)
	}
	if span := r.chainSpan(); span > maxSpan {
		return fmt.Errorf("resilience Retries=%d with Backoff=%v lets one retry chain span %.3g ns (Retries*Timeout + Backoff*(2^Retries-1)*(1+Jitter)), over the 2^62 ns limit: lower Retries or Backoff",
			r.Retries, r.Backoff, span)
	}
	return nil
}

// maxSpan bounds every span of virtual time a scenario declares: the
// timeline (Start, each phase's end, each event's instant and end), how far
// a retry chain reaches past its first attempt, and a hedge delay. It is
// 2^62 ns, about 146 years, so an instant before the timeline's end plus a
// chain or a hedge stays below simtime.MaxTime.
const maxSpan = 1 << 62

// chainSpan returns the longest a retry chain can run past its first
// attempt: Retries·Timeout + Backoff·(2^Retries − 1)·(1 + Jitter). It is
// computed in float64, which saturates where int64 would wrap; each
// product is rounded on its own, so no platform fuses it into the add.
func (r Resilience) chainSpan() float64 {
	timeouts := float64(float64(r.Retries) * float64(r.Timeout))
	backoffs := float64(float64(r.Backoff) * (math.Exp2(float64(r.Retries)) - 1) * (1 + r.Jitter))
	return timeouts + backoffs
}

// loadConfig lowers the class onto the LoadDriver's config for the given
// scenario seed and phase geometry.
func (tc TrafficClass) loadConfig(seed uint64, start simtime.Time, requests int64) LoadConfig {
	return LoadConfig{
		Requests:     requests,
		RatePerSec:   tc.Rate,
		Start:        start,
		Keys:         tc.Keys,
		ZipfS:        tc.ZipfS,
		ReadFraction: tc.ReadFraction,
		ValueBytes:   tc.ValueBytes,
		Seed:         seed,
	}
}

// Phase is one stage of a scenario: a set of traffic classes driven under
// one rate shape until a virtual-time duration elapses or a request budget
// is spent (whichever is set; with both, whichever comes first).
type Phase struct {
	// Name labels the phase in reports.
	Name string
	// Duration bounds the phase in virtual time (0 = unbounded; then
	// Requests must be set).
	Duration simtime.Duration
	// Requests bounds the phase's total request count across classes
	// (0 = unbounded; then Duration must be set).
	Requests int64
	// Shape modulates every class's arrival rate across the phase; the
	// zero value is constant.
	Shape RateShape
	// Classes are the phase's traffic classes (at least one).
	Classes []TrafficClass
}

// EventKind names a timeline action.
type EventKind string

const (
	// EventPressureStart launches a memory-pressure generator (the
	// event's Pressure config, or the anon default) on the target nodes;
	// a generator already running there is stopped first.
	EventPressureStart EventKind = "pressure-start"
	// EventPressureStop stops the target nodes' pressure generators
	// (no-op where none runs).
	EventPressureStop EventKind = "pressure-stop"
	// EventBatchStart launches churning batch co-tenants (the event's
	// Batch config, or the default shape) on the target nodes; a runner
	// already churning there is stopped first.
	EventBatchStart EventKind = "batch-start"
	// EventBatchStop stops the target nodes' batch runners (no-op where
	// none runs).
	EventBatchStop EventKind = "batch-stop"
	// EventDaemonStart launches the monitor daemon (the event's Daemon
	// config, or the default) on the target nodes; requires the Hermes
	// allocator. A daemon already running there is stopped first.
	EventDaemonStart EventKind = "daemon-start"
	// EventDaemonStop stops the target nodes' daemons (no-op where none
	// runs).
	EventDaemonStop EventKind = "daemon-stop"
	// EventSqueezeStart pins Bytes of anonymous memory on the target
	// nodes (an opaque co-tenant grabbing RAM); repeated squeezes grow
	// the same footprint.
	EventSqueezeStart EventKind = "squeeze-start"
	// EventSqueezeStop releases the target nodes' entire squeeze
	// footprint (no-op where none is held).
	EventSqueezeStop EventKind = "squeeze-stop"
	// EventKillNode takes the target node out of rotation: requests whose
	// shard chain has a live replica fail over to it, the rest are
	// dropped; the node's co-tenant machinery (pressure, batch, daemon,
	// squeeze) dies with it. Service state stays resident — the model is a
	// fenced process, not a wiped machine — so a later restore resumes
	// from the pre-kill dataset plus the migrated delta. Requires an
	// explicit Node index (a fleet-wide kill would leave nothing to serve).
	EventKillNode EventKind = "kill-node"
	// EventRestoreNode brings a killed node back into rotation and, when
	// the cluster runs shard replicas, replays the writes the outage
	// missed into the node's primary shards (live shard migration: an SST
	// handoff for RocksDB, a per-key re-fill through the allocator for
	// Redis). Requires an explicit Node index.
	EventRestoreNode EventKind = "restore-node"
	// EventDegradeNode multiplies the target nodes' raw service latency by
	// the event's Factor from the firing instant until a matching
	// heal-node — a brownout: the node keeps serving, just slower. A
	// second degrade on an already-degraded node replaces the factor.
	EventDegradeNode EventKind = "degrade-node"
	// EventHealNode ends a degrade window, restoring the target nodes'
	// native service latency. Requires a preceding degrade on each target.
	EventHealNode EventKind = "heal-node"
	// EventFaultWindow opens an error burst: for Duration after the firing
	// instant, each request routed to the target node (or, when Shard is
	// set, the target shard) fails fast with probability ErrorRate, drawn
	// from a dedicated domain-separated stream at generation time. Errored
	// requests consume no service time and trigger client retries where
	// the class's Resilience policy allows. Overlapping windows compound
	// probabilistically (1 − Π(1−rateᵢ)).
	EventFaultWindow EventKind = "fault-window"
)

// KillPolicy selects what a killed node does with requests that were queued
// behind its single-threaded server when the kill fired.
type KillPolicy string

const (
	// KillDrain (the default) lets the backlog drain: requests that
	// arrived before the kill instant are served even though the server
	// finishes them after it — a graceful stop.
	KillDrain KillPolicy = "drain"
	// KillDrop discards the backlog: a request that arrived before the
	// kill but had not started by it is dropped and counted, as a hard
	// crash severs queued connections. A request already executing at the
	// kill instant still completes.
	KillDrop KillPolicy = "drop"
)

// Event is one timeline entry: at virtual instant Start+At, apply Kind to
// the target nodes. Events fire deterministically inside the run loop —
// each node applies its own events in (At, declaration) order interleaved
// with its request stream, so both cluster engines observe the identical
// per-node history.
type Event struct {
	// At is the firing instant as an offset from the scenario start.
	At simtime.Duration
	// Node targets one node by index, or every node when -1.
	Node int
	// Kind is the action.
	Kind EventKind
	// Pressure optionally configures EventPressureStart (nil = the anon
	// default).
	Pressure *PressureConfig
	// Batch optionally configures EventBatchStart (nil = the default
	// shape; TargetBytes then defaults to the node's total memory).
	Batch *batch.Config
	// Daemon optionally configures EventDaemonStart (nil = the default).
	Daemon *monitor.Config
	// Bytes is the footprint EventSqueezeStart pins.
	Bytes int64
	// Policy selects the backlog fate for EventKillNode (empty =
	// KillDrain).
	Policy KillPolicy
	// Factor is EventDegradeNode's service-latency multiplier (> 1).
	Factor float64
	// ErrorRate is EventFaultWindow's per-request failure probability,
	// in (0, 1].
	ErrorRate float64
	// Duration is EventFaultWindow's length on the virtual timeline.
	Duration simtime.Duration
	// Shard optionally scopes EventFaultWindow to one shard instead of a
	// node; the event's Node must then be -1 (a window targets a node or
	// a shard, never both).
	Shard *int
}

// KillPolicyKind resolves the event's kill policy, defaulting to KillDrain
// so the zero value works.
func (e Event) KillPolicyKind() KillPolicy {
	if e.Policy == "" {
		return KillDrain
	}
	return e.Policy
}

// Validate reports whether the event is well-formed in isolation (node
// bounds and allocator requirements are checked by the cluster, which knows
// the fleet).
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("At must be >= 0 (got %v)", e.At)
	}
	if e.Node < -1 {
		return fmt.Errorf("Node must be a node index or -1 for all nodes (got %d)", e.Node)
	}
	switch e.Kind {
	case EventPressureStart:
		if e.Pressure != nil {
			if err := e.Pressure.Validate(); err != nil {
				return err
			}
		}
	case EventBatchStart:
		if e.Batch != nil {
			if err := e.Batch.Validate(); err != nil {
				return err
			}
		}
	case EventSqueezeStart:
		if e.Bytes <= 0 {
			return fmt.Errorf("squeeze-start Bytes must be > 0 (got %d)", e.Bytes)
		}
	case EventDaemonStart:
		if e.Daemon != nil {
			if err := e.Daemon.Validate(); err != nil {
				return err
			}
		}
	case EventKillNode:
		if e.Node < 0 {
			return fmt.Errorf("kill-node needs an explicit Node index (got %d; -1/all would leave nothing to serve)", e.Node)
		}
		switch e.KillPolicyKind() {
		case KillDrain, KillDrop:
		default:
			return fmt.Errorf("kill-node Policy must be %q or %q (got %q)", KillDrain, KillDrop, e.Policy)
		}
	case EventRestoreNode:
		if e.Node < 0 {
			return fmt.Errorf("restore-node needs an explicit Node index (got %d)", e.Node)
		}
	case EventDegradeNode:
		if !(e.Factor > 1) {
			return fmt.Errorf("degrade-node Factor must be > 1 (got %v; 1 is native speed)", e.Factor)
		}
	case EventHealNode:
	case EventFaultWindow:
		if !(0 < e.ErrorRate && e.ErrorRate <= 1) {
			return fmt.Errorf("fault-window ErrorRate must be in (0, 1] (got %v)", e.ErrorRate)
		}
		if e.Duration <= 0 {
			return fmt.Errorf("fault-window Duration must be > 0 (got %v)", e.Duration)
		}
		if e.Shard != nil {
			if *e.Shard < 0 {
				return fmt.Errorf("fault-window Shard must be a shard index (got %d)", *e.Shard)
			}
			if e.Node != -1 {
				return fmt.Errorf("fault-window targets a node or a shard, not both (got Node=%d with Shard=%d; set Node to -1)", e.Node, *e.Shard)
			}
		}
	case EventPressureStop, EventBatchStop, EventDaemonStop, EventSqueezeStop:
	default:
		return fmt.Errorf("unknown event kind %q", e.Kind)
	}
	if e.Policy != "" && e.Kind != EventKillNode {
		return fmt.Errorf("Policy applies only to kill-node events (got %q on %s)", e.Policy, e.Kind)
	}
	if e.Factor != 0 && e.Kind != EventDegradeNode {
		return fmt.Errorf("Factor applies only to degrade-node events (got %v on %s)", e.Factor, e.Kind)
	}
	if (e.ErrorRate != 0 || e.Duration != 0 || e.Shard != nil) && e.Kind != EventFaultWindow {
		return fmt.Errorf("ErrorRate/Duration/Shard apply only to fault-window events (got them on %s)", e.Kind)
	}
	return nil
}

// Scenario is a declarative description of a whole cluster experiment: an
// ordered list of phases plus an event timeline, reproduced exactly by one
// seed. Cluster.RunScenario executes it.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Seed drives every stochastic choice of every phase and class; one
	// seed reproduces the whole scenario.
	Seed uint64
	// Start is the arrival instant of the first phase (virtual time);
	// event offsets are relative to it.
	Start simtime.Time
	// Phases run back to back: each starts where the previous ended.
	Phases []Phase
	// Events is the timeline; order is irrelevant (fires sorted by At,
	// ties by declaration order).
	Events []Event
	// SLO optionally declares the scenario's latency objective; reports
	// then carry SLO-compliance columns, and Policies (if set) act on
	// breaches.
	SLO *SLO
	// Policies optionally configures the adaptive control plane that
	// reacts to SLO breaches. Requires SLO.
	Policies *Policies
}

// SLO declares a latency objective the scenario is judged (and, with
// Policies, controlled) against.
type SLO struct {
	// P99 is the target 99th-percentile service latency. Latency-domain:
	// Scenario.Scaled leaves it untouched.
	P99 simtime.Duration
	// Window is the controller's sampling window on the virtual timeline:
	// each node closes a window every Window of virtual time and compares
	// that window's p99 against the target. Timeline-domain: it scales.
	Window simtime.Duration
	// MinSamples is the minimum number of served requests a window needs
	// before its p99 can flip the controller (0 = default 16). Sparse
	// windows neither engage nor hold shedding.
	MinSamples int
}

// Validate reports whether the objective is well-formed.
func (s SLO) Validate() error {
	if s.P99 <= 0 {
		return fmt.Errorf("slo P99 must be > 0 (got %v)", s.P99)
	}
	if s.Window <= 0 {
		return fmt.Errorf("slo Window must be > 0 (got %v)", s.Window)
	}
	if s.MinSamples < 0 {
		return fmt.Errorf("slo MinSamples must be >= 0 (got %d)", s.MinSamples)
	}
	return nil
}

// SamplesFloor resolves MinSamples, defaulting to 16 so the zero value
// works.
func (s SLO) SamplesFloor() int {
	if s.MinSamples == 0 {
		return 16
	}
	return s.MinSamples
}

// Policies is the scenario's adaptive control plane: what the cluster does
// when the SLO is breached. Each enabled policy is one reconfiguration
// action the per-node controller may fire at a window boundary; any
// combination works, all are per-node and deterministic.
type Policies struct {
	// Shed enables per-node probabilistic load shedding.
	Shed *ShedPolicy
	// Batch enables adaptive batch sizing: co-tenant batch footprints are
	// stepped down under breach and restored when healthy.
	Batch *BatchPolicy
	// Allocator enables dynamic allocator-policy switching: hermes
	// allocators drop to a conservative reservation factor while breached.
	// Requires the hermes allocator.
	Allocator *AllocatorPolicy
	// Watermark enables kernel memory-watermark retuning: zone watermarks
	// scale up under breach so reclaim starts earlier.
	Watermark *WatermarkPolicy
}

// Validate reports whether the policy block is well-formed.
func (p Policies) Validate() error {
	if p.Shed == nil && p.Batch == nil && p.Allocator == nil && p.Watermark == nil {
		return fmt.Errorf("policies needs at least one policy (shed, batch, allocator or watermark)")
	}
	if p.Shed != nil {
		if err := p.Shed.Validate(); err != nil {
			return err
		}
	}
	if p.Batch != nil {
		if err := p.Batch.Validate(); err != nil {
			return err
		}
	}
	if p.Allocator != nil {
		if err := p.Allocator.Validate(); err != nil {
			return err
		}
	}
	if p.Watermark != nil {
		if err := p.Watermark.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ShedPolicy is SLO-driven admission control: when a node's windowed p99
// breaches the target, the node starts rejecting a fraction of incoming
// requests before they queue, stepping the fraction up each breached window
// and back down each healthy one — graceful degradation instead of
// collapse. Shed decisions draw from a per-node domain-separated stream in
// per-node arrival order, so both engines shed the identical requests.
type ShedPolicy struct {
	// Step is the shed-probability increment per breached window (and the
	// decrement per healthy one), in (0, 1].
	Step float64
	// Max caps the shed probability, in (0, 1].
	Max float64
}

// Validate reports whether the policy is well-formed.
func (p ShedPolicy) Validate() error {
	if !(0 < p.Step && p.Step <= 1) {
		return fmt.Errorf("shed Step must be in (0, 1] (got %v)", p.Step)
	}
	if !(0 < p.Max && p.Max <= 1) {
		return fmt.Errorf("shed Max must be in (0, 1] (got %v)", p.Max)
	}
	if p.Step > p.Max {
		return fmt.Errorf("shed Step must be <= Max (got Step=%v Max=%v)", p.Step, p.Max)
	}
	return nil
}

// BatchPolicy is SLO-driven co-tenant throttling: each breached window the
// controller shrinks the node's batch-runner footprint by Step of its
// configured target (shrinking containers release their trailing memory on
// the spot), and each healthy window restores it by the same step — the
// latency-critical service reclaims memory from best-effort work instead
// of stalling in the kernel. Fractions are dimensionless, so Scaled leaves
// the policy untouched.
type BatchPolicy struct {
	// Step is the fraction of the configured batch footprint removed per
	// breached window (and restored per healthy one), in (0, 1].
	Step float64
	// Min floors the throttled footprint as a fraction of the configured
	// one, in [0, 1). Zero allows a full squeeze-out.
	Min float64
}

// Validate reports whether the policy is well-formed.
func (p BatchPolicy) Validate() error {
	if !(0 < p.Step && p.Step <= 1) {
		return fmt.Errorf("batch policy Step must be in (0, 1] (got %v)", p.Step)
	}
	if !(0 <= p.Min && p.Min < 1) {
		return fmt.Errorf("batch policy Min must be in [0, 1) (got %v)", p.Min)
	}
	return nil
}

// AllocatorPolicy is SLO-driven allocator-policy switching: while a node
// is breached its hermes allocators run at the Conservative reservation
// factor (a smaller pinned reservation frees memory for the kernel), and a
// healthy window restores the configured factor. Requires the hermes
// allocator — the only one with a runtime-tunable policy.
type AllocatorPolicy struct {
	// Conservative is the reservation factor (RSV_FACTOR) switched to
	// while breached; must be > 0, and is typically below the configured
	// factor.
	Conservative float64
}

// Validate reports whether the policy is well-formed.
func (p AllocatorPolicy) Validate() error {
	if !(p.Conservative > 0) {
		return fmt.Errorf("allocator policy Conservative must be > 0 (got %v)", p.Conservative)
	}
	return nil
}

// WatermarkPolicy is SLO-driven kernel watermark retuning: each breached
// window scales the node's zone watermarks up by Step (kswapd wakes
// earlier and keeps a larger free reserve, so fewer requests stall in
// direct reclaim), and each healthy window steps the scale back toward 1.
type WatermarkPolicy struct {
	// Step is the watermark-scale increment per breached window, > 0.
	Step float64
	// Max caps the watermark scale; must be >= 1 + Step.
	Max float64
}

// Validate reports whether the policy is well-formed.
func (p WatermarkPolicy) Validate() error {
	if !(p.Step > 0) {
		return fmt.Errorf("watermark policy Step must be > 0 (got %v)", p.Step)
	}
	if !(p.Max >= 1+p.Step) {
		return fmt.Errorf("watermark policy Max must be >= 1+Step (got Max=%v Step=%v)", p.Max, p.Step)
	}
	return nil
}

// Validate reports whether the scenario is well-formed, locating every
// violation by phase/class/event so the message is actionable verbatim.
// Every float range here and in the nested Validate methods is demanded as
// !(in range), so NaN, which fails every comparison, is rejected.
func (s Scenario) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: needs at least one phase", s.Name)
	}
	if s.Start < 0 || s.Start > maxSpan {
		return fmt.Errorf("scenario %q: Start must be in [0, 2^62 ns] (got %v)", s.Name, s.Start)
	}
	// room is what the timeline has left before maxSpan. Subtracting from it
	// cannot overflow, where adding to an instant could.
	room := simtime.Duration(maxSpan - s.Start)
	for pi, p := range s.Phases {
		where := fmt.Sprintf("scenario %q phase %d (%q)", s.Name, pi, p.Name)
		if p.Duration <= 0 && p.Requests <= 0 {
			return fmt.Errorf("%s: needs a Duration or a Requests budget", where)
		}
		if p.Duration < 0 {
			return fmt.Errorf("%s: Duration must be >= 0 (got %v)", where, p.Duration)
		}
		if p.Requests < 0 {
			return fmt.Errorf("%s: Requests must be >= 0 (got %d)", where, p.Requests)
		}
		if p.Duration > room {
			return fmt.Errorf("%s: Duration %v ends the phase past 2^62 ns (Start plus the phase Durations so far leave %v)", where, p.Duration, room)
		}
		room -= p.Duration
		if err := p.Shape.Validate(p.Duration); err != nil {
			return fmt.Errorf("%s: shape: %w", where, err)
		}
		if len(p.Classes) == 0 {
			return fmt.Errorf("%s: needs at least one traffic class", where)
		}
		for ci, tc := range p.Classes {
			// Lower onto a LoadConfig with placeholder bounds so the
			// class fields get the driver's own validation.
			cfg := tc.loadConfig(s.Seed, s.Start, 1)
			if err := cfg.Validate(); err != nil {
				return fmt.Errorf("%s class %d (%q): %w", where, ci, tc.Name, err)
			}
			if tc.Resilience != nil {
				if err := tc.Resilience.Validate(); err != nil {
					return fmt.Errorf("%s class %d (%q): %w", where, ci, tc.Name, err)
				}
			}
		}
	}
	for ei, e := range s.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("scenario %q event %d (%s): %w", s.Name, ei, e.Kind, err)
		}
		room := simtime.Duration(maxSpan - s.Start)
		if e.At > room || e.Duration > room-e.At {
			return fmt.Errorf("scenario %q event %d (%s): Start+At+Duration passes 2^62 ns (Start=%v At=%v Duration=%v)",
				s.Name, ei, e.Kind, s.Start, e.At, e.Duration)
		}
	}
	if s.SLO != nil {
		if err := s.SLO.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.Policies != nil {
		if s.SLO == nil {
			return fmt.Errorf("scenario %q: Policies requires an SLO to act on", s.Name)
		}
		if err := s.Policies.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// End returns the scenario's declared horizon: the later of the last
// phase's declared end (sum of durations, where known) and the last event.
// Request-bounded phases contribute no declared duration — their real end
// is only known after generation.
func (s Scenario) End() simtime.Time {
	end := s.Start
	for _, p := range s.Phases {
		end = end.Add(p.Duration)
	}
	for _, e := range s.Events {
		if at := s.Start.Add(e.At); at.After(end) {
			end = at
		}
	}
	return end
}

// CheckScale rejects a Scaled factor unless it is positive and finite;
// the error names the field that carried it. NaN fails every comparison,
// so the range is demanded explicitly rather than <= 0 rejected.
func CheckScale(field string, f float64) error {
	if f > 0 && !math.IsInf(f, 1) {
		return nil
	}
	return fmt.Errorf("%s must be a positive, finite number (got %v)", field, f)
}

// Scaled returns a copy with every duration and request budget multiplied
// by f — the CLI's way of shrinking a committed preset onto a CI budget
// (or stretching it for a long soak). Durations nested in event payloads
// (a batch config's work duration and tick period, a pressure generator's
// period, a fault window's length) scale too, so the machinery a shrunken
// timeline starts still fits inside its shrunken window, as do the SLO
// controller's window and sample floor. Rates and tick counts are
// untouched; budgets keep a floor of one request so no phase vanishes.
// Latency-domain durations — Resilience timeouts/backoffs/hedges and the
// SLO's p99 target — do NOT scale: service latencies are scale-invariant,
// so scaling client deadlines would change what the scenario measures.
// It panics on a factor CheckScale rejects.
func (s Scenario) Scaled(f float64) Scenario {
	if err := CheckScale("scenario scale", f); err != nil {
		panic("workload: " + err.Error())
	}
	scaleDur := func(d simtime.Duration) simtime.Duration {
		scaled := simtime.Duration(float64(d) * f)
		if d > 0 && scaled <= 0 {
			return 1 // keep positive durations positive at extreme scales
		}
		return scaled
	}
	out := s
	out.Start = simtime.Time(float64(s.Start) * f)
	out.Phases = append([]Phase(nil), s.Phases...)
	for i := range out.Phases {
		p := &out.Phases[i]
		p.Duration = scaleDur(p.Duration)
		if p.Requests > 0 {
			if p.Requests = int64(float64(p.Requests) * f); p.Requests < 1 {
				p.Requests = 1
			}
		}
		p.Shape.At = scaleDur(p.Shape.At)
		p.Shape.Width = scaleDur(p.Shape.Width)
		p.Shape.Period = scaleDur(p.Shape.Period)
		p.Classes = append([]TrafficClass(nil), s.Phases[i].Classes...)
	}
	out.Events = append([]Event(nil), s.Events...)
	for i := range out.Events {
		e := &out.Events[i]
		e.At = scaleDur(e.At)
		e.Duration = scaleDur(e.Duration)
		// Deep-copy payload configs before scaling them: the input
		// scenario's events must stay untouched.
		if e.Pressure != nil {
			pcfg := *e.Pressure
			pcfg.Period = scaleDur(pcfg.Period)
			e.Pressure = &pcfg
		}
		if e.Batch != nil {
			bcfg := *e.Batch
			bcfg.WorkDuration = scaleDur(bcfg.WorkDuration)
			bcfg.TickPeriod = scaleDur(bcfg.TickPeriod)
			e.Batch = &bcfg
		}
	}
	if s.SLO != nil {
		slo := *s.SLO
		slo.Window = scaleDur(slo.Window)
		// The sample floor shrinks with the window (requests per window =
		// rate × window, and rates don't scale), floored at one so the
		// controller still bites at CI scales.
		if floor := int(float64(slo.SamplesFloor()) * f); floor >= 1 {
			slo.MinSamples = floor
		} else {
			slo.MinSamples = 1
		}
		out.SLO = &slo
	}
	if s.Policies != nil {
		// Policies are dimensionless (probabilities, fractions, factors):
		// nothing to scale, only deep-copy so the input stays untouched.
		pol := *s.Policies
		if pol.Shed != nil {
			shed := *pol.Shed
			pol.Shed = &shed
		}
		if pol.Batch != nil {
			b := *pol.Batch
			pol.Batch = &b
		}
		if pol.Allocator != nil {
			a := *pol.Allocator
			pol.Allocator = &a
		}
		if pol.Watermark != nil {
			w := *pol.Watermark
			pol.Watermark = &w
		}
		out.Policies = &pol
	}
	return out
}

// ScenarioFromLoad lifts a flat LoadConfig onto the scenario surface: one
// request-bounded phase, one class, constant shape, no events. The lowered
// class lands back on the canonical load-driver stream, so the generated
// request sequence is bit-identical to NewLoadDriver(cfg)'s — Cluster.Run
// is this adapter.
func ScenarioFromLoad(cfg LoadConfig) Scenario {
	return Scenario{
		Name:  "load",
		Seed:  cfg.Seed,
		Start: cfg.Start,
		Phases: []Phase{{
			Name:     "load",
			Requests: cfg.Requests,
			Classes: []TrafficClass{{
				Name:         "default",
				Rate:         cfg.RatePerSec,
				Keys:         cfg.Keys,
				ZipfS:        cfg.ZipfS,
				ReadFraction: cfg.ReadFraction,
				ValueBytes:   cfg.ValueBytes,
			}},
		}},
	}
}

// FlatLoad returns the LoadConfig equivalent of a scenario that is a
// single request-bounded, constant-shaped, single-class phase — the shape
// ScenarioFromLoad generates — and whether the scenario has that shape.
// Because class (0, 0) rides the canonical load-driver stream, a plain
// NewLoadDriver over the returned config emits the identical request
// sequence, letting executors skip the scenario merge layer entirely on
// flat runs. The event timeline is unaffected (it never flows through the
// request stream).
func (s Scenario) FlatLoad() (LoadConfig, bool) {
	if len(s.Phases) != 1 || s.SLO != nil || s.Policies != nil {
		return LoadConfig{}, false
	}
	p := s.Phases[0]
	if len(p.Classes) != 1 || p.Duration > 0 || p.Requests <= 0 || p.Shape.ShapeKind() != ShapeConstant || p.Classes[0].Resilience != nil {
		return LoadConfig{}, false
	}
	return p.Classes[0].loadConfig(s.Seed, s.Start, p.Requests), true
}

// classStreamID derives the randgen stream id for class c of phase p. The
// ids live in the load-driver's domain-separation namespace: (0, 0) is the
// canonical streamLoadDriver id itself (the single-class adapter property),
// and every other (phase, class) perturbs distinct low bits, so no two
// classes of a scenario ever share a stream.
func classStreamID(p, c int) uint64 {
	return streamLoadDriver ^ (uint64(p)<<20 | uint64(c))
}

// ScenarioRequest is one generated request annotated with the phase and
// class that produced it, so executors can segment their digests.
type ScenarioRequest struct {
	Request
	// Phase and Class index into Scenario.Phases and Phase.Classes.
	Phase int
	Class int
}

// PhaseBound records where a phase landed on the virtual timeline once the
// driver has generated it.
type PhaseBound struct {
	// Start is the phase's first possible arrival instant.
	Start simtime.Time
	// End is the phase's boundary: the declared duration end, or — for
	// request-bounded phases — the last emitted arrival.
	End simtime.Time
	// Requests counts the requests the phase emitted.
	Requests int64
}

// classState is one traffic class mid-generation: its driver plus the
// pending (peeked) request of the k-way merge.
type classState struct {
	idx     int
	d       *LoadDriver
	pending Request
	ok      bool
}

// ScenarioDriver generates a scenario's merged request stream. Like
// LoadDriver it is a deterministic pull iterator; the cluster (or any other
// executor) routes and serves what it emits. Classes merge by arrival time
// (ties by class index), phases run back to back, and every class draws
// from its own split stream — so the whole stream is a pure function of the
// scenario. Every phase goes through the one merge: a single-class phase is
// a merge of one, and emits that class driver's stream unchanged.
type ScenarioDriver struct {
	scn      Scenario
	phaseIdx int
	classes  []*classState
	start    simtime.Time // current phase start
	end      simtime.Time // current phase's duration bound (or MaxTime)
	budget   int64        // remaining request budget (or MaxInt64)
	lastAt   simtime.Time // last emitted arrival
	emitted  int64        // total across phases
	phaseN   int64        // emitted within current phase
	bounds   []PhaseBound
	done     bool
}

// NewScenarioDriver validates the scenario and positions the stream at the
// first phase's first arrival.
func NewScenarioDriver(scn Scenario) *ScenarioDriver {
	if err := scn.Validate(); err != nil {
		panic(err)
	}
	d := &ScenarioDriver{scn: scn, phaseIdx: -1, lastAt: scn.Start}
	d.nextPhase(scn.Start)
	return d
}

// Emitted returns how many requests have been generated so far.
func (d *ScenarioDriver) Emitted() int64 { return d.emitted }

// Bounds returns the phase bounds generated so far; after the stream is
// drained it covers every phase.
func (d *ScenarioDriver) Bounds() []PhaseBound { return d.bounds }

// nextPhase seals the current phase (if any) and arms the next one to
// start at the given instant. The handoff instant is also the sealed
// phase's End: the duration boundary when the clock ended it, the last
// arrival when the request budget (or class exhaustion) did — so bounds
// never overlap even when a budget closes a duration-bounded phase early.
func (d *ScenarioDriver) nextPhase(start simtime.Time) {
	if d.phaseIdx >= 0 {
		d.bounds = append(d.bounds, PhaseBound{Start: d.start, End: start, Requests: d.phaseN})
	}
	d.phaseIdx++
	d.phaseN = 0
	if d.phaseIdx >= len(d.scn.Phases) {
		d.done = true
		return
	}
	p := d.scn.Phases[d.phaseIdx]
	d.start = start
	d.end = simtime.MaxTime
	if p.Duration > 0 {
		d.end = start.Add(p.Duration)
	}
	d.budget = math.MaxInt64
	if p.Requests > 0 {
		d.budget = p.Requests
	}
	// Each class may have to cover the whole phase budget alone (the
	// merge, not the class, enforces the total).
	perClass := d.budget
	d.classes = d.classes[:0]
	for ci, tc := range p.Classes {
		ld := newLoadDriverStream(tc.loadConfig(d.scn.Seed, start, perClass), classStreamID(d.phaseIdx, ci))
		if kind := p.Shape.ShapeKind(); kind != ShapeConstant {
			shape, phaseStart, dur := p.Shape, start, p.Duration
			ld.shape = func(at simtime.Time) float64 {
				return shape.factor(at.Sub(phaseStart), dur)
			}
		}
		cs := &classState{idx: ci, d: ld}
		cs.pending, cs.ok = ld.Next()
		d.classes = append(d.classes, cs)
	}
}

// Next returns the next request of the merged stream, or ok=false once
// every phase is spent.
func (d *ScenarioDriver) Next() (ScenarioRequest, bool) {
	for {
		if d.done {
			return ScenarioRequest{}, false
		}
		// Pick the earliest pending arrival; ties break by class index.
		var pick *classState
		for _, cs := range d.classes {
			if cs.ok && (pick == nil || cs.pending.At.Before(pick.pending.At)) {
				pick = cs
			}
		}
		if pick == nil || (d.end != simtime.MaxTime && !pick.pending.At.Before(d.end)) {
			// Classes exhausted, or the earliest arrival crossed the
			// phase boundary: the phase is over. Arrivals past the
			// boundary are discarded — they belong to a rate regime that
			// no longer exists.
			start := d.end
			if start == simtime.MaxTime {
				start = d.lastAt
			}
			d.nextPhase(start)
			continue
		}
		out := ScenarioRequest{Request: pick.pending, Phase: d.phaseIdx, Class: pick.idx}
		pick.pending, pick.ok = pick.d.Next()
		d.lastAt = out.At
		d.emitted++
		d.phaseN++
		if d.budget--; d.budget == 0 {
			d.nextPhase(d.lastAt)
		}
		return out, true
	}
}
