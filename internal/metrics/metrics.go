// Package metrics is the time-series layer of the experiment harness: a
// windowed collector that samples a cluster run on its virtual timeline —
// per-window latency quantiles, kernel reclaim/swap activity, RSS, the
// resilience counters and controller actions — and exporters that emit the
// stream as JSON-lines or Prometheus text exposition format for
// dashboarding and regression diffing.
//
// Determinism. The collector follows the same ownership discipline as the
// cluster's control plane (monitor.Tracker): all mutable state is per-node,
// windows roll lazily at each node's arrivals in arrival order, and the
// counter snapshot taken at a window close reads only that node's own
// machinery. The cluster-wide series is assembled once, single-threaded, in
// node index order at finish. A collector's output is therefore a pure
// function of the per-node execution histories — bit-identical across the
// sequential and parallel engines, and across repeated runs of one
// (config, scenario, seed) triple.
package metrics

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
)

// Config enables time-series collection on a cluster run.
type Config struct {
	// Period is the sampling-window width on the virtual timeline; every
	// Period of virtual time yields one Sample.
	Period simtime.Duration
}

// Validate reports whether the configuration is well-formed.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("metrics: sampling period must be > 0 (got %v)", c.Period)
	}
	return nil
}

// MaxNodeWindows caps the windows a collector is asked to keep over a
// run's declared horizon, summed over nodes. A closed window costs about
// 80 bytes per node before any histogram, so the cap holds the records
// near 84 MB.
const MaxNodeWindows = 1 << 20

// CheckHorizon reports whether a run whose declared horizon spans span of
// virtual time on nodes nodes stays within MaxNodeWindows: Finish closes
// every window of that span on every node, so a tiny period asks for
// memory no run can hold. Validate must pass first.
func (c Config) CheckHorizon(span simtime.Duration, nodes int) error {
	if windows := windowCount(span, c.Period); nodes > 0 && windows > MaxNodeWindows/int64(nodes) {
		return fmt.Errorf("metrics: period %v cuts the %v horizon into %d windows on each of %d nodes, over the cap of %d node-windows",
			c.Period, span, windows, nodes, MaxNodeWindows)
	}
	return nil
}

// windowCount is the number of windows Finish closes on each node over
// span: a trailing partial window counts, and an empty run has one.
func windowCount(span, period simtime.Duration) int64 {
	n := int64(span / period)
	if span%period != 0 || n == 0 {
		n++
	}
	return n
}

// Counters is one node's cumulative counter state, snapshotted at window
// closes. All fields are running totals (RSSBytes is a gauge); the series
// assembly differences consecutive snapshots into per-window deltas.
type Counters struct {
	// Reclaims and Swapouts are the node kernel's direct-reclaim and
	// swap-out totals.
	Reclaims int64
	Swapouts int64
	// RSSBytes is the node's resident memory (total minus free), a gauge.
	RSSBytes int64
	// Resilience-layer totals (zero on runs without one).
	Shed     int64
	Retries  int64
	Errors   int64
	Timeouts int64
	Hedges   int64
}

// Sample is one cluster-wide window of the time series. Latency fields
// digest the window's served requests across all nodes; counter fields are
// per-window deltas summed across nodes; RSSBytes is the fleet gauge at the
// window close. All times are virtual.
type Sample struct {
	// Window is the window index from the run start.
	Window int64 `json:"window"`
	// Start and End bound the window on the virtual timeline (ns). The
	// final window of a run may be partial: its End is the run horizon.
	Start simtime.Time `json:"start_ns"`
	End   simtime.Time `json:"end_ns"`
	// Requests counts served requests in the window.
	Requests int64 `json:"requests"`
	// P50, P99, Max and Mean digest the window's served latencies.
	P50  simtime.Duration `json:"p50_ns"`
	P99  simtime.Duration `json:"p99_ns"`
	Max  simtime.Duration `json:"max_ns"`
	Mean simtime.Duration `json:"mean_ns"`
	// Kernel activity in the window (deltas) and resident memory at its
	// close (gauge, summed across nodes).
	Reclaims int64 `json:"reclaims"`
	Swapouts int64 `json:"swapouts"`
	RSSBytes int64 `json:"rss_bytes"`
	// Resilience counters in the window (deltas).
	Shed     int64 `json:"shed"`
	Retries  int64 `json:"retries"`
	Errors   int64 `json:"errors"`
	Timeouts int64 `json:"timeouts"`
	Hedges   int64 `json:"hedges"`
	// Actions counts controller decisions that fired in the window.
	Actions int64 `json:"actions"`
}

// windowRec is one node's closed window: the latency digest plus the
// node's cumulative counters at the close.
type windowRec struct {
	hist *stats.Histogram // nil when the window served nothing
	at   Counters
}

// nodeCollector is one node's windowed state. Only the owning node's
// goroutine touches it until Finish.
type nodeCollector struct {
	open   *stats.Histogram
	widx   int64
	closed []windowRec
	snap   func() Counters
}

func (nc *nodeCollector) close() {
	var h *stats.Histogram
	if nc.open.Count() > 0 {
		h = nc.open.Clone()
		nc.open.Reset()
	}
	nc.closed = append(nc.closed, windowRec{hist: h, at: nc.snap()})
	nc.widx++
}

// Collector samples one cluster run. Tick and Observe are called from the
// serving node's goroutine and touch only that node's slot; Finish and
// Series run single-threaded after the run.
type Collector struct {
	start   simtime.Time
	period  simtime.Duration
	nodes   []*nodeCollector
	horizon simtime.Time
}

// NewCollector builds a collector for a fleet of nodes whose first window
// opens at start. snap must return node `i`'s cumulative Counters reading
// only state owned by node i — it is invoked from node i's goroutine at
// window closes (and once per node, single-threaded, at Finish).
func NewCollector(start simtime.Time, period simtime.Duration, nodes int, snap func(node int) Counters) *Collector {
	if period <= 0 {
		panic("metrics: collector period must be > 0")
	}
	c := &Collector{start: start, period: period, nodes: make([]*nodeCollector, nodes)}
	for i := range c.nodes {
		i := i
		c.nodes[i] = &nodeCollector{open: stats.NewHistogram(), snap: func() Counters { return snap(i) }}
	}
	return c
}

// Tick closes every window boundary of the node at or before the arrival
// instant — call once per arrival, before any serve/shed/error decision, so
// rejected attempts advance windows exactly like served ones.
func (c *Collector) Tick(node int, at simtime.Time) {
	nc := c.nodes[node]
	w := int64(at.Sub(c.start) / c.period)
	for nc.widx < w {
		nc.close()
	}
}

// Observe records one served latency into the node's open window.
func (c *Collector) Observe(node int, lat simtime.Duration) {
	c.nodes[node].open.Record(lat)
}

// Finish closes every node's remaining windows so all nodes cover the same
// span [start, horizon]; the final window is partial when the horizon falls
// inside it. Single-threaded, after the run settles on its common horizon.
func (c *Collector) Finish(horizon simtime.Time) {
	if horizon.Before(c.start) {
		horizon = c.start
	}
	c.horizon = horizon
	total := windowCount(horizon.Sub(c.start), c.period)
	for _, nc := range c.nodes {
		for nc.widx < total {
			nc.close()
		}
	}
}

// Series assembles the cluster-wide time series: per window, the per-node
// digests merged in node index order and the counter deltas summed across
// nodes. actions lists the controller decisions' firing instants (the
// merged action log); each is attributed to the window containing it.
// Series must be called after Finish.
func (c *Collector) Series(actions []simtime.Time) []Sample {
	if len(c.nodes) == 0 {
		return nil
	}
	total := int(c.nodes[0].widx)
	samples := make([]Sample, 0, total)
	merged := stats.NewHistogram()
	for w := 0; w < total; w++ {
		s := Sample{
			Window: int64(w),
			Start:  c.start.Add(simtime.Duration(w) * c.period),
			End:    c.start.Add(simtime.Duration(w+1) * c.period),
		}
		if s.End.After(c.horizon) {
			s.End = c.horizon
		}
		merged.Reset()
		for _, nc := range c.nodes {
			rec := nc.closed[w]
			if rec.hist != nil {
				merged.Merge(rec.hist)
			}
			var prev Counters
			if w > 0 {
				prev = nc.closed[w-1].at
			}
			s.Reclaims += rec.at.Reclaims - prev.Reclaims
			s.Swapouts += rec.at.Swapouts - prev.Swapouts
			s.RSSBytes += rec.at.RSSBytes
			s.Shed += rec.at.Shed - prev.Shed
			s.Retries += rec.at.Retries - prev.Retries
			s.Errors += rec.at.Errors - prev.Errors
			s.Timeouts += rec.at.Timeouts - prev.Timeouts
			s.Hedges += rec.at.Hedges - prev.Hedges
		}
		if n := merged.Count(); n > 0 {
			s.Requests = n
			s.P50 = merged.Quantile(50)
			s.P99 = merged.Quantile(99)
			s.Max = merged.Max()
			s.Mean = merged.Sum() / simtime.Duration(n)
		}
		samples = append(samples, s)
	}
	for _, at := range actions {
		w := int64(at.Sub(c.start) / c.period)
		if w < 0 {
			w = 0
		}
		if w >= int64(total) {
			w = int64(total) - 1
		}
		samples[w].Actions++
	}
	return samples
}
