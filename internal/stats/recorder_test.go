package stats

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder("x")
	if r.Count() != 0 || r.Mean() != 0 || r.Max() != 0 || r.Min() != 0 {
		t.Fatal("empty recorder must report zeros")
	}
	for _, d := range []time.Duration{10, 20, 30} {
		r.Record(d)
	}
	if r.Count() != 3 {
		t.Fatalf("count = %d", r.Count())
	}
	if r.Mean() != 20 {
		t.Fatalf("mean = %v, want 20", r.Mean())
	}
	if r.Min() != 10 || r.Max() != 30 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
	if r.Total() != 60 {
		t.Fatalf("total = %v", r.Total())
	}

	// Grow(n) presizes the raw samples: the next n Records write in place,
	// and every statistic reads as it would without Grow.
	const n = 5000
	plain, grown := NewRecorder("x"), NewRecorder("x")
	for _, rec := range []*Recorder{plain, grown} {
		rec.Record(1)
	}
	grown.Grow(n)
	c := cap(grown.samples)
	if c < n+1 {
		t.Fatalf("cap after Grow(%d) on 1 sample = %d, want at least %d", n, c, n+1)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < n; i++ {
		d := time.Duration(rng.Int64N(int64(time.Millisecond)))
		plain.Record(d)
		grown.Record(d)
	}
	if got := cap(grown.samples); got != c {
		t.Fatalf("%d Records after Grow(%d) reallocated: cap %d, was %d", n, n, got, c)
	}
	plain.Sort()
	assertMatchesOracle(t, grown, plain)

	// Streaming mode keeps no raw samples, so Grow is a no-op.
	h := NewStreamingRecorder("h")
	h.Grow(n)
	if h.samples != nil || h.Count() != 0 {
		t.Fatalf("streaming Grow kept %d raw slots and count %d, want none", cap(h.samples), h.Count())
	}
}

// TestRecorderMergeSharesRuns pins raw Merge's sharing contract: the
// merged recorder reads the source's sorted samples in place, so the
// source's later Records and sorts must not reach them, and a fan-in
// copies no samples.
func TestRecorderMergeSharesRuns(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewPCG(3, 4))
	a, b := NewRecorder("a"), NewRecorder("b")
	// Spare capacity, so without the clip b's next Record would write into
	// the array a shares.
	b.samples = make([]time.Duration, 0, 2*n)
	for i := 0; i < n; i++ {
		a.Record(time.Duration(rng.Int64N(int64(time.Millisecond))))
		b.Record(time.Duration(rng.Int64N(int64(time.Millisecond))))
	}
	a.Merge(b)
	x := a.Percentile(90)
	sum, cdf, above := a.Summarize(), a.CDF(100), a.CountAbove(x)
	// One zero, which b only counts, and nine stored samples, which land in
	// the spare capacity unless Merge clipped it.
	for i := 0; i < 10; i++ {
		b.Record(time.Duration(i))
	}
	_ = b.Percentile(99) // re-sorts b
	if got := a.Summarize(); got != sum {
		t.Fatalf("Summarize after the source changed = %+v, want %+v", got, sum)
	}
	if got := a.CDF(100); !reflect.DeepEqual(got, cdf) {
		t.Fatal("CDF(100) changed after the source changed")
	}
	if got := a.CountAbove(x); got != above {
		t.Fatalf("CountAbove(%v) after the source changed = %d, want %d", x, got, above)
	}
	if got := b.Count(); got != n+10 || b.Min() != 0 {
		t.Fatalf("source count = %d, min = %v; want %d, 0", got, b.Min(), n+10)
	}

	srcs := make([]*Recorder, 8)
	for j := range srcs {
		srcs[j] = NewRecorder("src")
		for i := 0; i < 100_000; i++ {
			srcs[j].Record(time.Duration(rng.Int64N(int64(time.Millisecond))))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	merged := NewRecorder("merged")
	for _, src := range srcs {
		merged.Merge(src)
	}
	s := merged.Summarize()
	runtime.ReadMemStats(&after)
	if s.Count != 800_000 {
		t.Fatalf("merged count = %d, want 800000", s.Count)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("merging 8×100k samples and summarizing allocated %d B, want < 64 KiB", got)
	}
}

// TestRecorderZeroSamples: a raw recorder counts its zero samples instead
// of storing them, and every statistic still reads as if the zeros were
// sorted into the union. Each case builds a recorder and the samples it
// saw, which the slices.Sort oracle stores zeros and all.
func TestRecorderZeroSamples(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 97))
	// gen returns n samples: zeroPct percent of them zero, the rest in
	// [1, maxNS] ns.
	gen := func(n, zeroPct int, maxNS int64) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			if rng.IntN(100) >= zeroPct {
				xs[i] = time.Duration(1 + rng.Int64N(maxNS))
			}
		}
		return xs
	}
	record := func(r *Recorder, xs []time.Duration) *Recorder {
		for _, d := range xs {
			r.Record(d)
		}
		return r
	}
	const ms = int64(time.Millisecond)
	cases := []struct {
		name  string
		build func() (*Recorder, []time.Duration)
	}{
		{"all-zero", func() (*Recorder, []time.Duration) {
			xs := make([]time.Duration, 3000)
			return record(NewRecorder("r"), xs), xs
		}},
		{"one-zero", func() (*Recorder, []time.Duration) {
			xs := gen(5000, 0, ms)
			xs[2500] = 0
			return record(NewRecorder("r"), xs), xs
		}},
		{"zeros-with-ties", func() (*Recorder, []time.Duration) {
			xs := gen(5000, 60, 3)
			return record(NewRecorder("r"), xs), xs
		}},
		{"zeros-only-in-merged-sources", func() (*Recorder, []time.Duration) {
			all := gen(2000, 0, ms)
			r := record(NewRecorder("r"), all)
			for j := 0; j < 3; j++ {
				part := gen(1000, 97, ms)
				r.Merge(record(NewRecorder("src"), part))
				all = append(all, part...)
			}
			return r, all
		}},
		{"nested-merges-with-all-zero-parts", func() (*Recorder, []time.Duration) {
			parts := [][]time.Duration{
				gen(1000, 97, ms), make([]time.Duration, 500), gen(800, 0, ms), make([]time.Duration, 1),
				make([]time.Duration, 300), gen(700, 50, ms), make([]time.Duration, 200),
			}
			return mergeNested(parts), slices.Concat(parts...)
		}},
		{"merged-then-records-zeros", func() (*Recorder, []time.Duration) {
			src, own := gen(2000, 90, ms), gen(1500, 80, ms)
			r := NewRecorder("r")
			r.Merge(record(NewRecorder("src"), src))
			return record(r, own), slices.Concat(src, own)
		}},
		{"sort-before-and-after-merge", func() (*Recorder, []time.Duration) {
			a, b, c := gen(2000, 70, ms), gen(2000, 95, ms), gen(1000, 50, ms)
			r := record(NewRecorder("r"), a)
			r.Sort()
			r.Merge(record(NewRecorder("src"), b))
			r.Sort()
			record(r, c)
			return r, slices.Concat(a, b, c)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, all := tc.build()
			o := oracleRecorder(all)
			assertMatchesOracle(t, r, o)
			if got, want := r.Min(), o.Min(); got != want {
				t.Fatalf("Min = %v, want %v", got, want)
			}
			if got, want := r.CountAbove(-1), int64(r.Count()); got != want {
				t.Fatalf("CountAbove(-1) = %d, want Count %d", got, want)
			}
		})
	}
}

// TestRecorderZeroSamplesNotStored: zeros cost a raw recorder no memory, so
// recording a million of them allocates nothing and keeps no slot.
func TestRecorderZeroSamplesNotStored(t *testing.T) {
	const n = 1_000_000
	r := NewRecorder("wait")
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			r.Record(0)
		}
	})
	if allocs != 0 || cap(r.samples) != 0 {
		t.Fatalf("recording %d zeros allocated %v times and kept %d slots, want none", n, allocs, cap(r.samples))
	}
	// AllocsPerRun calls the function twice: a warm-up, then the measured run.
	if got := r.Count(); got != 2*n || r.Max() != 0 {
		t.Fatalf("Count = %d, Max = %v; want %d, 0", got, r.Max(), 2*n)
	}
}

func TestRecorderNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative sample must panic")
		}
	}()
	NewRecorder("x").Record(-1)
}

func TestPercentileExactValues(t *testing.T) {
	r := NewRecorder("x")
	// 1..100 → p-th percentile interpolates cleanly.
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i))
	}
	tests := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1},
		{100, 100},
		{50, 50}, // rank 49.5 → 50.5 truncated by Duration math
		{99, 99},
	}
	for _, tc := range tests {
		got := r.Percentile(tc.q)
		if got < tc.want-1 || got > tc.want+1 {
			t.Errorf("p%v = %v, want ~%v", tc.q, got, tc.want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	r := NewRecorder("x")
	r.Record(42)
	for _, q := range []float64{0, 50, 99, 100} {
		if got := r.Percentile(q); got != 42 {
			t.Fatalf("p%v = %v, want 42", q, got)
		}
	}
}

func TestPercentileClampsQ(t *testing.T) {
	r := NewRecorder("x")
	r.Record(1)
	r.Record(2)
	if r.Percentile(-5) != 1 {
		t.Fatal("q<0 must clamp to min")
	}
	if r.Percentile(150) != 2 {
		t.Fatal("q>100 must clamp to max")
	}
}

func TestRecordAfterPercentileKeepsCorrectness(t *testing.T) {
	r := NewRecorder("x")
	r.Record(10)
	_ = r.Percentile(50) // forces a sort
	r.Record(5)          // must invalidate sorted state
	if r.Min() != 5 {
		t.Fatalf("min = %v, want 5", r.Min())
	}
}

func TestViolationRatio(t *testing.T) {
	r := NewRecorder("x")
	for i := 1; i <= 10; i++ {
		r.Record(time.Duration(i * 100))
	}
	tests := []struct {
		slo  time.Duration
		want float64
	}{
		{1000, 0},  // nothing above max
		{0, 1},     // everything above zero
		{500, 0.5}, // 600..1000 violate
		{550, 0.5}, // boundary between samples
		{100, 0.9}, // only the first meets it (ties do not violate)
		{99, 1.0},  // all violate
		{999, 0.1}, // only 1000 violates
	}
	for _, tc := range tests {
		if got := r.ViolationRatio(tc.slo); got != tc.want {
			t.Errorf("ViolationRatio(%v) = %v, want %v", tc.slo, got, tc.want)
		}
	}
}

func TestSummaryAtAndKeys(t *testing.T) {
	r := NewRecorder("series")
	for i := 1; i <= 1000; i++ {
		r.Record(time.Duration(i))
	}
	s := r.Summarize()
	if s.Name != "series" || s.Count != 1000 {
		t.Fatalf("summary header wrong: %+v", s)
	}
	for _, key := range PercentileKeys {
		if s.At(key) <= 0 {
			t.Errorf("At(%q) = %v, want > 0", key, s.At(key))
		}
	}
	if s.At("p50") != s.P50 || s.At("max") != s.Max {
		t.Fatal("At() disagrees with fields")
	}
	// Percentiles must be monotone.
	if !(s.P50 <= s.P75 && s.P75 <= s.P90 && s.P90 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
}

func TestSummaryAtUnknownKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown key must panic")
		}
	}()
	Summary{}.At("p12")
}

func TestReduction(t *testing.T) {
	base := Summary{Mean: 100}
	improved := Summary{Mean: 60}
	if got := Reduction(base, improved, "avg"); got != 40 {
		t.Fatalf("reduction = %v, want 40", got)
	}
	worse := Summary{Mean: 150}
	if got := Reduction(base, worse, "avg"); got != -50 {
		t.Fatalf("reduction = %v, want -50", got)
	}
	if got := Reduction(Summary{}, improved, "avg"); got != 0 {
		t.Fatalf("reduction with zero base = %v, want 0", got)
	}
}

// Property: percentile is monotone in q and bounded by [min, max].
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder("p")
		for _, v := range raw {
			r.Record(time.Duration(v))
		}
		lo, hi := float64(qa%101), float64(qb%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		pa, pb := r.Percentile(lo), r.Percentile(hi)
		return pa <= pb && pa >= r.Min() && pb <= r.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: ViolationRatio equals the brute-force count for random data.
func TestViolationRatioMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 50; trial++ {
		r := NewRecorder("v")
		var vals []time.Duration
		n := 1 + rng.IntN(200)
		for i := 0; i < n; i++ {
			d := time.Duration(rng.IntN(1000))
			vals = append(vals, d)
			r.Record(d)
		}
		slo := time.Duration(rng.IntN(1000))
		var above int
		for _, v := range vals {
			if v > slo {
				above++
			}
		}
		want := float64(above) / float64(n)
		if got := r.ViolationRatio(slo); got != want {
			t.Fatalf("trial %d: ViolationRatio(%v) = %v, want %v", trial, slo, got, want)
		}
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder("m")
		for _, v := range raw {
			r.Record(time.Duration(v))
		}
		return r.Mean() >= r.Min() && r.Mean() <= r.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryStringContainsName(t *testing.T) {
	r := NewRecorder("Hermes+anon")
	r.Record(time.Microsecond)
	s := r.Summarize().String()
	if !strings.Contains(s, "Hermes+anon") {
		t.Fatalf("summary string %q lacks series name", s)
	}
}
