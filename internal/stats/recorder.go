// Package stats provides the latency-statistics machinery used by every
// experiment: sample recording, percentile extraction, CDF export in the
// exact shapes the paper plots, and SLO-violation accounting.
package stats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Recorder accumulates latency samples in one of two modes.
//
// Raw mode (NewRecorder) keeps every sample: exact percentiles, and raw
// samples let tests assert CDF shapes directly. It is the right mode for
// the paper's figure-scale experiments, which record at most a few million
// samples. A raw recorder's statistics cover its own samples plus the
// sorted runs Merge shared into it; each statistic is an exact order
// statistic selected across them, the one sorting their union would give.
// Zero samples are counted, not stored: samples are never negative, so the
// zeros are exactly the smallest order statistics of the union, and a
// queue-wait digest whose requests mostly found their node idle costs
// memory and sort time only for its non-zero waits.
//
// Streaming mode (NewStreamingRecorder) digests samples into a log-bucketed
// Histogram: O(1) Record, memory bounded by the bucket ceiling regardless
// of sample count, percentiles within ≤1% relative error. It is the right
// mode for fleet-scale cluster runs serving millions of requests.
type Recorder struct {
	name    string
	samples []time.Duration
	sorted  bool
	// runs are the sorted sample slices raw Merge shared into r, read-only;
	// merged is their total length.
	runs   [][]time.Duration
	merged int
	zeros  int // zero samples recorded or merged into r, none of them stored
	sum    time.Duration
	hist   *Histogram // non-nil in streaming mode
}

// NewRecorder returns an empty raw-mode recorder labelled name (used in
// rendered tables, e.g. "Hermes+anon").
func NewRecorder(name string) *Recorder {
	return &Recorder{name: name}
}

// NewStreamingRecorder returns an empty streaming (histogram-mode) recorder:
// bounded memory, O(1) Record, ≤1% relative percentile error.
func NewStreamingRecorder(name string) *Recorder {
	return &Recorder{name: name, hist: NewHistogram()}
}

// Name returns the recorder's label.
func (r *Recorder) Name() string { return r.name }

// Streaming reports whether the recorder digests into a histogram instead
// of keeping raw samples.
func (r *Recorder) Streaming() bool { return r.hist != nil }

// Histogram returns the streaming digest, or nil in raw mode.
func (r *Recorder) Histogram() *Histogram { return r.hist }

// Record adds one latency sample. Negative samples indicate a bug in the
// cost model and panic rather than silently skewing percentiles.
func (r *Recorder) Record(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("stats: negative latency sample %v in %q", d, r.name))
	}
	if r.hist != nil {
		r.hist.Record(d)
		return
	}
	if d == 0 {
		r.zeros++
		return
	}
	r.samples = append(r.samples, d)
	r.sorted = false
	r.sum += d
}

// Grow makes room for n more non-zero raw samples, so the next n Records
// of them do not reallocate; zeros take no room. No-op in streaming mode.
func (r *Recorder) Grow(n int) {
	if r.hist == nil {
		r.samples = slices.Grow(r.samples, n)
	}
}

// Merge folds o's samples into r without re-recording them one by one.
// Raw recorders share o's samples: Merge sorts them in place and keeps a
// reference to them, and to every run o itself holds, as read-only sorted
// runs, so nothing is copied, and it adds o's zero count to r's. o's slice
// is clipped to its length first, so o's later Records reallocate instead
// of writing into, or re-sorting, a run r reads. Streaming recorders add
// bucket counts in O(buckets). Cluster runs use it to fold run-local
// digests into shard, node and cluster rollups. Both recorders must be in
// the same mode; o's statistics are unchanged.
func (r *Recorder) Merge(o *Recorder) {
	if o == nil {
		return
	}
	if (r.hist != nil) != (o.hist != nil) {
		panic(fmt.Sprintf("stats: merge of mixed-mode recorders %q and %q", r.name, o.name))
	}
	if r.hist != nil {
		r.hist.Merge(o.hist)
		return
	}
	if len(o.samples) > 0 {
		o.ensureSorted()
		o.samples = slices.Clip(o.samples)
		r.runs = append(r.runs, o.samples)
	}
	r.runs = append(r.runs, o.runs...)
	r.merged += len(o.samples) + o.merged
	r.zeros += o.zeros
	r.sum += o.sum
}

// Sort sorts the raw samples recorded so far, in place, so later
// statistics and merges read them without sorting. Cluster runs call it on
// each node's goroutine, spreading the sort across cores. No-op in
// streaming mode.
func (r *Recorder) Sort() {
	if r.hist == nil {
		r.ensureSorted()
	}
}

// Count returns the number of recorded samples.
func (r *Recorder) Count() int {
	if r.hist != nil {
		return int(r.hist.Count())
	}
	return len(r.samples) + r.merged + r.zeros
}

// Mean returns the average sample, or 0 when empty.
func (r *Recorder) Mean() time.Duration {
	n := r.Count()
	if n == 0 {
		return 0
	}
	return r.Total() / time.Duration(n)
}

// Total returns the sum of all samples.
func (r *Recorder) Total() time.Duration {
	if r.hist != nil {
		return r.hist.Sum()
	}
	return r.sum
}

func (r *Recorder) ensureSorted() {
	if r.sorted {
		return
	}
	sortSamples(r.samples)
	r.sorted = true
}

// nth returns the i-th smallest raw sample (0 ≤ i < Count), the element
// sorting the union of r's samples, runs and counted zeros would put at
// index i. The zeros come first, so below r.zeros it is 0; above, it
// selects i − r.zeros among the stored samples. With one non-empty stored
// view it indexes it. With several it bisects on the value for the
// smallest v with more than i samples ≤ v, counting each sorted view by
// binary search. Both ends of the bracket are samples: each step snaps the
// end it moves to the nearest sample on its side of the midpoint, so it
// halves the range and drops at least one distinct value.
func (r *Recorder) nth(i int) time.Duration {
	if i < r.zeros {
		return 0
	}
	i -= r.zeros
	r.ensureSorted()
	if len(r.runs) == 0 {
		return r.samples[i]
	}
	if len(r.samples) == 0 && len(r.runs) == 1 {
		return r.runs[0][i]
	}
	lo, hi := r.minStored(), r.Max()
	for lo < hi {
		mid := lo + (hi-lo)/2
		n, below, above := 0, lo, hi
		count := func(s []time.Duration) {
			p := atMost(s, mid)
			n += p
			if p > 0 {
				below = max(below, s[p-1])
			}
			if p < len(s) {
				above = min(above, s[p])
			}
		}
		count(r.samples)
		for _, run := range r.runs {
			count(run)
		}
		if n > i {
			hi = below
		} else {
			lo = above
		}
	}
	return lo
}

// atMost returns how many elements of the sorted s are ≤ v.
func atMost(s []time.Duration, v time.Duration) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] <= v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Percentile returns the q-th percentile (q in [0,100]; below 0 or NaN
// clamps to the minimum, above 100 to the maximum). Raw mode uses linear
// interpolation between closest ranks, matching numpy's default, which is
// what the paper's plotting scripts would have used; streaming mode returns
// the histogram quantile (≤1% relative error).
func (r *Recorder) Percentile(q float64) time.Duration {
	if r.hist != nil {
		return r.hist.Quantile(q)
	}
	n := r.Count()
	if n == 0 {
		return 0
	}
	if !(q >= 0) { // also catches NaN, which would index at MinInt
		q = 0
	}
	if q > 100 {
		q = 100
	}
	// Rounded on its own, so no platform fuses it into frac's subtract.
	rank := float64(q / 100 * float64(n-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	a := r.nth(lo)
	if lo == hi {
		return a
	}
	frac := rank - float64(lo)
	return a + time.Duration(frac*float64(r.nth(hi)-a))
}

// Max returns the largest sample, or 0 when empty. Exact in both modes.
func (r *Recorder) Max() time.Duration {
	if r.hist != nil {
		return r.hist.Max()
	}
	r.ensureSorted()
	var m time.Duration
	if n := len(r.samples); n > 0 {
		m = r.samples[n-1]
	}
	for _, run := range r.runs {
		m = max(m, run[len(run)-1])
	}
	return m
}

// Min returns the smallest sample, or 0 when empty. Exact in both modes.
func (r *Recorder) Min() time.Duration {
	if r.hist != nil {
		return r.hist.Min()
	}
	if r.zeros > 0 || r.Count() == 0 {
		return 0
	}
	return r.minStored()
}

// minStored returns the smallest stored raw sample across r's samples and
// runs, at least one of which must be non-empty.
func (r *Recorder) minStored() time.Duration {
	r.ensureSorted()
	m := time.Duration(math.MaxInt64)
	if len(r.samples) > 0 {
		m = r.samples[0]
	}
	for _, run := range r.runs {
		m = min(m, run[0])
	}
	return m
}

// CountAbove returns how many samples fell strictly above d. Exact in raw
// mode; streaming mode resolves the threshold to bucket granularity.
// Summing counts across recorders gives an exact aggregate ratio, which a
// float ViolationRatio average would not.
func (r *Recorder) CountAbove(d time.Duration) int64 {
	if r.hist != nil {
		return r.hist.CountAbove(d)
	}
	r.ensureSorted()
	n := r.Count() - atMost(r.samples, d)
	for _, run := range r.runs {
		n -= atMost(run, d)
	}
	if d >= 0 {
		n -= r.zeros
	}
	return int64(n)
}

// ViolationRatio returns the fraction of samples strictly above slo — the
// paper's SLO-violation metric (Figs 13, 14). Exact in raw mode; streaming
// mode resolves the threshold to bucket granularity.
func (r *Recorder) ViolationRatio(slo time.Duration) float64 {
	n := r.Count()
	if n == 0 {
		return 0
	}
	return float64(r.CountAbove(slo)) / float64(n)
}

// Summary is the fixed set of statistics the paper reports per series:
// average plus the p75/p90/p95/p99 percentiles (Figs 2, 7d, 8d, 15, 16).
type Summary struct {
	Name  string
	Count int
	Mean  time.Duration
	P50   time.Duration
	P75   time.Duration
	P90   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summarize extracts the paper's standard percentile set.
func (r *Recorder) Summarize() Summary {
	return Summary{
		Name:  r.name,
		Count: r.Count(),
		Mean:  r.Mean(),
		P50:   r.Percentile(50),
		P75:   r.Percentile(75),
		P90:   r.Percentile(90),
		P95:   r.Percentile(95),
		P99:   r.Percentile(99),
		Max:   r.Max(),
	}
}

// String renders the summary as one table row.
func (s Summary) String() string {
	return fmt.Sprintf("%-24s n=%-8d avg=%-10v p50=%-10v p75=%-10v p90=%-10v p95=%-10v p99=%-10v max=%v",
		s.Name, s.Count, s.Mean, s.P50, s.P75, s.P90, s.P95, s.P99, s.Max)
}

// At returns the statistic named by key ("avg", "p75", ...). Unknown keys
// panic: they indicate a typo in an experiment definition, not runtime input.
func (s Summary) At(key string) time.Duration {
	switch key {
	case "avg", "mean":
		return s.Mean
	case "p50":
		return s.P50
	case "p75":
		return s.P75
	case "p90":
		return s.P90
	case "p95":
		return s.P95
	case "p99":
		return s.P99
	case "max":
		return s.Max
	default:
		panic(fmt.Sprintf("stats: unknown summary key %q", key))
	}
}

// PercentileKeys is the ordering the paper uses on its bar charts.
var PercentileKeys = []string{"avg", "p75", "p90", "p95", "p99"}

// Reduction returns the percentage reduction of new relative to base for the
// given summary key, the y-axis of Figs 7d, 8d, 15, 16. Positive means new
// is faster.
func Reduction(base, new Summary, key string) float64 {
	b := base.At(key)
	if b == 0 {
		return 0
	}
	return (1 - float64(new.At(key))/float64(b)) * 100
}
