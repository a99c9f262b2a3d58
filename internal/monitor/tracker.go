package monitor

import (
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
)

// Tracker is the control plane's observation primitive: a windowed latency
// histogram on the virtual timeline. Served latencies stream in through
// Observe; Roll closes every fixed-width sampling window an arrival
// crossed and reports, per window, whether its p99 (given enough samples)
// breached the target. The histogram is Reset between windows — the
// stats.Histogram Reset/Merge contract keeps each window's digest exact.
//
// All state advances in the order Roll/Observe are called, so a caller
// that feeds a tracker from a single node's arrival-ordered stream gets a
// trajectory that is a pure function of that stream — the property the
// cluster's adaptive controllers rest their engine bit-identity on.
type Tracker struct {
	hist   *stats.Histogram
	widx   int64 // windows closed since start
	start  simtime.Time
	window simtime.Duration
	target simtime.Duration
	floor  int64
}

// NewTracker creates a tracker sampling p99 against target over fixed
// windows of the given width, starting the first window at start. A window
// with fewer than floor samples never reports a breach.
func NewTracker(start simtime.Time, window, target simtime.Duration, floor int64) *Tracker {
	if window <= 0 {
		panic("monitor: tracker window must be > 0")
	}
	return &Tracker{
		hist:   stats.NewHistogram(),
		start:  start,
		window: window,
		target: target,
		floor:  floor,
	}
}

// Observe records one served latency into the current window.
func (t *Tracker) Observe(lat simtime.Duration) { t.hist.Record(lat) }

// Roll closes every window boundary at or before the instant, calling
// boundary with each window's closing instant and breach verdict (p99 over
// target with at least floor samples), then resetting the histogram for
// the next window.
func (t *Tracker) Roll(at simtime.Time, boundary func(at simtime.Time, breached bool)) {
	w := int64(at.Sub(t.start) / t.window)
	for t.widx < w {
		breached := t.hist.Count() >= t.floor && t.hist.Quantile(99) > t.target
		boundary(t.start.Add(simtime.Duration(t.widx+1)*t.window), breached)
		t.hist.Reset()
		t.widx++
	}
}
