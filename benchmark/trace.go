package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/hermes-sim/hermes/internal/stats"
)

// layer is one class of instrumented call: a public function of one module
// that a replay calls. Spans are recorded from the benchmark's own code,
// around each call into a layer; nothing inside the simulator is
// instrumented.
type layer uint8

const (
	lNext      layer = iota // workload: LoadDriver.Next, ScenarioDriver.Next
	lJitter                 // workload: JitterRequest
	lRoute                  // cluster: ShardRouter.ShardForKey
	lInsert                 // services: Service.Insert
	lRead                   // services: Service.Read
	lQuery                  // services: Service.Query
	lDelete                 // services: Service.Delete
	lRunUntil               // simtime: Scheduler.RunUntil up to an arrival or horizon
	lAdvance                // simtime: Scheduler.Advance, Cluster.Advance
	lRecord                 // stats: Recorder.Record
	lSummarize              // stats: Merge, Summarize, Render's CDFs
	lCheck                  // kernel: Kernel.CheckInvariants
	lBoot                   // construction of a cell's node, co-tenants and allocator
	lEmpty                  // an empty span, measured at every request; not reported
	lAlloc                  // alloc: Malloc, Touch per allocator kind; see allocLayer
	nLayers    = lAlloc + 2*layer(len(allocKinds))
)

// allocKinds are the allocator models the alloc layers are split by.
var allocKinds = [...]string{"glibc", "jemalloc", "tcmalloc", "hermes"}

// allocLayer returns the malloc (touch=false) or touch layer of an
// allocator kind.
func allocLayer(kind int, touch bool) layer {
	l := lAlloc + 2*layer(kind)
	if touch {
		l++
	}
	return l
}

var fixedLayers = [lAlloc]struct{ name, module string }{
	lNext:      {"workload.next", "workload"},
	lJitter:    {"workload.jitter", "workload"},
	lRoute:     {"cluster.route", "cluster"},
	lInsert:    {"services.insert", "services"},
	lRead:      {"services.read", "services"},
	lQuery:     {"services.query", "services"},
	lDelete:    {"services.delete", "services"},
	lRunUntil:  {"simtime.run_until", "simtime"},
	lAdvance:   {"simtime.advance", "simtime"},
	lRecord:    {"stats.record", "stats"},
	lSummarize: {"stats.summarize", "stats"},
	lCheck:     {"kernel.check_invariants", "kernel"},
	lBoot:      {"boot", "boot"},
	lEmpty:     {"empty", ""},
}

// name returns the layer's metric name.
func (l layer) name() string {
	if l < lAlloc {
		return fixedLayers[l].name
	}
	op := "malloc"
	if (l-lAlloc)%2 == 1 {
		op = "touch"
	}
	return "alloc." + allocKinds[(l-lAlloc)/2] + "." + op
}

// module returns the repository module the layer's calls go into.
func (l layer) module() string {
	if l < lAlloc {
		return fixedLayers[l].module
	}
	return "alloc"
}

// span is one traced interval: a layer call, a request, an experiment cell
// or the whole replay. Times are nanoseconds since the tracer started;
// Parent indexes the tracer's span list (-1 for the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
}

// sampleShift keeps spans for one request in 1<<(64-sampleShift) = 1024.
const sampleShift = 54

// tracer times every layer call of a replay and keeps the spans of a
// deterministic sample of requests in memory. A nil *tracer is the
// untraced replay: every method is a no-op.
type tracer struct {
	base time.Time
	// ns is each layer's raw span time; spanned counts its spans, calls
	// also counts calls booked by add.
	ns      [nLayers]int64
	spanned [nLayers]int64
	calls   [nLayers]int64
	spans   []span
	// scope is the span new requests attach to (the root or a cell); req
	// is the open sampled request's span, or -1.
	scope, req int32
	reqs       int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), req: -1, spans: []span{{Name: "replay", Parent: -1}}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// selfNS is a layer's time with the cost of its empty spans taken out.
func (t *tracer) selfNS(l layer) float64 {
	empty := 0.0
	if n := t.spanned[lEmpty]; n > 0 {
		empty = float64(t.ns[lEmpty]) / float64(n)
	}
	return float64(t.ns[l]) - empty*float64(t.spanned[l])
}

// start opens a layer call.
func (t *tracer) start() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// stop closes a layer call opened by start.
func (t *tracer) stop(l layer, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.ns[l] += end - start
	t.spanned[l]++
	t.calls[l]++
	if t.req >= 0 {
		t.spans = append(t.spans, span{Name: l.name(), Start: start, End: end, Parent: t.req, Req: t.spans[t.req].Req})
	}
}

// add books a layer's time measured outside a span (whole passes).
func (t *tracer) add(l layer, d time.Duration, calls int64) {
	if t == nil {
		return
	}
	t.ns[l] += int64(d)
	t.calls[l] += calls
}

// beginRequest opens the next request; its calls are kept as spans when
// the request falls in the sample.
func (t *tracer) beginRequest() {
	if t == nil {
		return
	}
	t.reqs++
	// An empty span through the same calls as a layer's, in the replay's
	// own cache state: selfNS subtracts its mean from every span.
	t.stop(lEmpty, t.start())
	if uint64(t.reqs)*0x9E3779B97F4A7C15>>sampleShift != 0 {
		return
	}
	t.req = int32(len(t.spans))
	t.spans = append(t.spans, span{Name: "request", Start: t.now(), Parent: t.scope, Req: t.reqs})
}

// endRequest closes the request opened by beginRequest.
func (t *tracer) endRequest() {
	if t == nil || t.req < 0 {
		return
	}
	t.spans[t.req].End = t.now()
	t.req = -1
}

// openCell opens an experiment cell's span; requests attach to it until
// closeCell.
func (t *tracer) openCell(name string) {
	if t == nil {
		return
	}
	t.scope = int32(len(t.spans))
	t.spans = append(t.spans, span{Name: "cell " + name, Start: t.now(), Parent: 0})
}

func (t *tracer) closeCell() {
	if t == nil {
		return
	}
	t.spans[t.scope].End = t.now()
	t.scope = 0
}

// begin opens the root span where the replay's timed region starts.
func (t *tracer) begin() {
	if t != nil {
		t.spans[0].Start = t.now()
	}
}

// finish closes the root span.
func (t *tracer) finish() {
	if t != nil {
		t.spans[0].End = t.now()
	}
}

// simtimeNS is the host time spent in simtime calls so far: the background
// machinery (kswapd, management threads, daemons, batch ticks) runs there.
func (t *tracer) simtimeNS() int64 {
	if t == nil {
		return 0
	}
	return int64(t.selfNS(lRunUntil) + t.selfNS(lAdvance))
}

// layerStat is one layer's share of a replay.
type layerStat struct {
	Name   string  `json:"name"`
	Module string  `json:"module"`
	Calls  int64   `json:"calls"`
	SelfMS float64 `json:"self_ms"`
}

// NSPerCall is the layer's mean self time per call.
func (s layerStat) NSPerCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return s.SelfMS * 1e6 / float64(s.Calls)
}

// layerStats averages the layer totals of several traced replays, keeping
// the layers that were called.
func layerStats(ts []*tracer) []layerStat {
	var out []layerStat
	for l := layer(0); l < nLayers; l++ {
		var ns float64
		var calls int64
		for _, t := range ts {
			ns += t.selfNS(l)
			calls += t.calls[l]
		}
		if calls == 0 || l == lEmpty {
			continue
		}
		n := int64(len(ts))
		out = append(out, layerStat{Name: l.name(), Module: l.module(), Calls: calls / n,
			SelfMS: ns / float64(n) / 1e6})
	}
	return out
}

// traceResult is a trace child's per-layer breakdown of one workload.
type traceResult struct {
	// Digest is the replay's model digest; it must equal the engine's.
	Digest string `json:"digest"`
	// WallS and TracedS are the median untraced and traced replay walls.
	WallS   float64 `json:"wall_s"`
	TracedS float64 `json:"traced_s"`
	Pairs   int     `json:"pairs"`
	// Layers are the traced replays' mean layer self times.
	Layers []layerStat `json:"layers"`
	Counts simCounts   `json:"counts"`
	// Spans are the last traced replay's sampled spans, when asked for.
	Spans []span `json:"spans,omitempty"`
}

// runTrace replays the workload in pairs, one traced and one untraced
// replay, alternating which goes first, until the budget is spent (at
// least one pair). Every replay must produce the same digest.
func runTrace(w *spec, o childOptions) (childResult, error) {
	deadline := time.Now().Add(o.until)
	tres := &traceResult{}
	var tracers []*tracer
	var traced, plain []float64
	for pair := 0; ; pair++ {
		pairStart := time.Now()
		for i := 0; i < 2; i++ {
			var tr *tracer
			if (pair+i)%2 == 0 {
				tr = newTracer()
			}
			runtime.GC()
			out, err := replay(w, o, tr)
			if err != nil {
				return childResult{}, err
			}
			if tres.Digest == "" {
				tres.Digest = out.digest
			} else if out.digest != tres.Digest {
				return childResult{}, fmt.Errorf("replay is not deterministic: digest %s then %s", tres.Digest, out.digest)
			}
			if tr == nil {
				plain = append(plain, out.wall.Seconds())
				continue
			}
			traced = append(traced, out.wall.Seconds())
			tracers = append(tracers, tr)
			tres.Counts = out.counts
		}
		tres.Pairs++
		if time.Now().Add(time.Since(pairStart)).After(deadline) {
			break
		}
	}
	tres.WallS = stats.Median(plain)
	tres.TracedS = stats.Median(traced)
	tres.Layers = layerStats(tracers)
	if o.spans {
		tres.Spans = tracers[len(tracers)-1].spans
	}
	return childResult{Digest: tres.Digest, Trace: tres}, nil
}
