// Package stats provides the latency-statistics machinery used by every
// experiment: sample recording, percentile extraction, CDF export in the
// exact shapes the paper plots, and SLO-violation accounting.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Recorder accumulates latency samples in one of two modes.
//
// Raw mode (NewRecorder) keeps every sample: exact percentiles, and raw
// samples let tests assert CDF shapes directly. It is the right mode for
// the paper's figure-scale experiments, which record at most a few million
// samples.
//
// Streaming mode (NewStreamingRecorder) digests samples into a log-bucketed
// Histogram: O(1) Record, memory bounded by the bucket ceiling regardless
// of sample count, percentiles within ≤1% relative error. It is the right
// mode for fleet-scale cluster runs serving millions of requests.
type Recorder struct {
	name    string
	samples []time.Duration
	sorted  bool
	sum     time.Duration
	hist    *Histogram // non-nil in streaming mode
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
	r.samples = append(r.samples, d)
	r.sorted = false
	r.sum += d
}

// Merge folds o's samples into r without re-recording them one by one: raw
// recorders append o's sample slice, streaming recorders add bucket counts
// in O(buckets). Cluster runs use it to fold run-local digests into shard,
// node and cluster rollups. Both recorders must be in the same mode; o is
// left unchanged.
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
	if len(o.samples) == 0 {
		return
	}
	r.samples = append(r.samples, o.samples...)
	r.sorted = false
	r.sum += o.sum
}

// Reserve grows the raw-mode sample buffer to hold n more samples without
// reallocation — callers that know a merge fan-in's total size (the cluster
// engine's canonical fold) avoid the append-doubling copies. No-op in
// streaming mode.
func (r *Recorder) Reserve(n int) {
	if r.hist != nil || n <= 0 {
		return
	}
	r.samples = slices.Grow(r.samples, n)
}

// Count returns the number of recorded samples.
func (r *Recorder) Count() int {
	if r.hist != nil {
		return int(r.hist.Count())
	}
	return len(r.samples)
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

// Percentile returns the q-th percentile (q in [0,100]; below 0 or NaN
// clamps to the minimum, above 100 to the maximum). Raw mode uses linear
// interpolation between closest ranks, matching numpy's default, which is
// what the paper's plotting scripts would have used; streaming mode returns
// the histogram quantile (≤1% relative error).
func (r *Recorder) Percentile(q float64) time.Duration {
	if r.hist != nil {
		return r.hist.Quantile(q)
	}
	if len(r.samples) == 0 {
		return 0
	}
	if !(q >= 0) { // also catches NaN, which would index at MinInt
		q = 0
	}
	if q > 100 {
		q = 100
	}
	r.ensureSorted()
	if len(r.samples) == 1 {
		return r.samples[0]
	}
	// Rounded on its own, so no platform fuses it into frac's subtract.
	rank := float64(q / 100 * float64(len(r.samples)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return r.samples[lo]
	}
	frac := rank - float64(lo)
	return r.samples[lo] + time.Duration(frac*float64(r.samples[hi]-r.samples[lo]))
}

// Max returns the largest sample, or 0 when empty. Exact in both modes.
func (r *Recorder) Max() time.Duration {
	if r.hist != nil {
		return r.hist.Max()
	}
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	return r.samples[len(r.samples)-1]
}

// Min returns the smallest sample, or 0 when empty. Exact in both modes.
func (r *Recorder) Min() time.Duration {
	if r.hist != nil {
		return r.hist.Min()
	}
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	return r.samples[0]
}

// CountAbove returns how many samples fell strictly above d. Exact in raw
// mode; streaming mode resolves the threshold to bucket granularity.
// Summing counts across recorders gives an exact aggregate ratio, which a
// float ViolationRatio average would not.
func (r *Recorder) CountAbove(d time.Duration) int64 {
	if r.hist != nil {
		return r.hist.CountAbove(d)
	}
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	idx := sort.Search(len(r.samples), func(i int) bool { return r.samples[i] > d })
	return int64(len(r.samples) - idx)
}

// ViolationRatio returns the fraction of samples strictly above slo — the
// paper's SLO-violation metric (Figs 13, 14). Exact in raw mode; streaming
// mode resolves the threshold to bucket granularity.
func (r *Recorder) ViolationRatio(slo time.Duration) float64 {
	if r.hist != nil {
		if r.hist.Count() == 0 {
			return 0
		}
		return float64(r.hist.CountAbove(slo)) / float64(r.hist.Count())
	}
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	// First index with sample > slo.
	idx := sort.Search(len(r.samples), func(i int) bool { return r.samples[i] > slo })
	return float64(len(r.samples)-idx) / float64(len(r.samples))
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
