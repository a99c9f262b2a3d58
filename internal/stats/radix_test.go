package stats

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"
)

// oracleRecorder is a raw recorder holding a slices.Sort-sorted copy of
// every sample, zeros included, and their sum: it bypasses Record, so its
// statistics read the full sorted list instead of counted zeros and
// sortSamples' order. They are the expected ones.
func oracleRecorder(samples []time.Duration) *Recorder {
	o := NewRecorder("oracle")
	o.samples = slices.Clone(samples)
	slices.Sort(o.samples)
	o.sorted = true
	for _, d := range samples {
		o.sum += d
	}
	return o
}

// assertMatchesOracle checks that r, whose order comes from sortSamples and,
// for merged runs, from nth's selection, agrees exactly with the
// slices.Sort oracle on every order statistic and on every statistic read
// from them.
func assertMatchesOracle(t *testing.T, r, o *Recorder) {
	t.Helper()
	r.name = o.name
	if got, want := r.Summarize(), o.Summarize(); got != want {
		t.Fatalf("Summarize = %+v, want %+v", got, want)
	}
	for i, want := range o.samples {
		if got := r.nth(i); got != want {
			t.Fatalf("nth(%d) = %d, want %d from the slices.Sort oracle (n=%d)", i, got, want, len(o.samples))
		}
	}
	if got, want := r.CDF(1000), o.CDF(1000); !reflect.DeepEqual(got, want) {
		t.Fatal("CDF(1000) differs from the oracle")
	}
	if got, want := r.TailCDF(0.9, 100), o.TailCDF(0.9, 100); !reflect.DeepEqual(got, want) {
		t.Fatal("TailCDF(0.9, 100) differs from the oracle")
	}
	thresholds := []time.Duration{0, 1, time.Microsecond, time.Millisecond, math.MaxInt64}
	if n := len(o.samples); n > 0 {
		thresholds = append(thresholds, o.samples[0], o.samples[n/2], o.samples[n-1], o.samples[n-1]-1)
	}
	for _, d := range thresholds {
		if got, want := r.CountAbove(d), o.CountAbove(d); got != want {
			t.Fatalf("CountAbove(%d) = %d, want %d", d, got, want)
		}
		if got, want := r.ViolationRatio(d), o.ViolationRatio(d); got != want {
			t.Fatalf("ViolationRatio(%d) = %v, want %v", d, got, want)
		}
	}
}

func checkAgainstOracle(t *testing.T, samples []time.Duration) {
	t.Helper()
	r := NewRecorder("radix")
	for _, d := range samples {
		r.Record(d)
	}
	assertMatchesOracle(t, r, oracleRecorder(samples))
}

func TestSortSamplesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	gen := func(n int, f func(i int) time.Duration) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	random := func(int) time.Duration { return time.Duration(rng.Int64N(int64(time.Second))) }
	cases := map[string][]time.Duration{
		"empty":      nil,
		"one":        {42},
		"two":        {7, 3},
		"all-equal":  gen(5000, func(int) time.Duration { return 123456 }),
		"all-zero":   gen(5000, func(int) time.Duration { return 0 }),
		"max-int64":  gen(3000, func(i int) time.Duration { return math.MaxInt64 - time.Duration(i%3)*(1<<56) }),
		"low-byte":   gen(5000, func(int) time.Duration { return 0x0123_4567_89ab_cd00 | time.Duration(rng.IntN(256)) }),
		"high-byte":  gen(5000, func(int) time.Duration { return time.Duration(rng.IntN(128))<<56 | 0x0012_3456_789a_bcde }),
		"sorted":     gen(5000, func(i int) time.Duration { return time.Duration(i) * 997 }),
		"reversed":   gen(5000, func(i int) time.Duration { return time.Duration(5000-i) * 997 }),
		"n=255":      gen(255, random),
		"n=256":      gen(256, random),
		"n=257":      gen(257, random),
		"n=1<<16":    gen(1<<16, random),
		"few-values": gen(1<<16, func(int) time.Duration { return time.Duration(rng.IntN(7)) * time.Microsecond }),
		"wide":       gen(1<<16, func(int) time.Duration { return time.Duration(rng.Int64N(math.MaxInt64)) }),

		// The counting window: slices of countCutoff or more samples count
		// those in [lo, lo+countWindow) and radix-sort the rest.
		"window-all": gen(1<<15, func(int) time.Duration { return 5*time.Microsecond + time.Duration(rng.IntN(countWindow)) }),
		"window-edges": gen(countCutoff, func(i int) time.Duration {
			// lo itself, then the window's last value and the first two
			// beyond it, 100 samples in all: the rest is slices.Sort's.
			edge := [...]time.Duration{0, countWindow - 1, countWindow, countWindow + 1}
			if i < 100 {
				return 3000 + edge[i%4]
			}
			return 3000 + time.Duration(rng.IntN(countWindow))
		}),
		"window-63pct": gen(1<<16, func(i int) time.Duration {
			// brownout's shape: 63% within the window, the rest to 1 s.
			const lo = 200 * time.Microsecond
			switch {
			case i == 0:
				return lo
			case rng.IntN(100) < 63:
				return lo + time.Duration(rng.IntN(countWindow))
			}
			return lo + countWindow + time.Duration(rng.Int64N(int64(time.Second)))
		}),
		"window-micro-cell": gen(1<<16, func(i int) time.Duration {
			// A Fig 7 cell: a 2 µs minimum, 99% within 32 µs, rare spikes.
			switch {
			case i == 0:
				return 2 * time.Microsecond
			case rng.IntN(4096) == 0:
				return time.Millisecond + time.Duration(rng.Int64N(int64(3*time.Millisecond)))
			case rng.IntN(100) == 0:
				return 40*time.Microsecond + time.Duration(rng.Int64N(int64(60*time.Microsecond)))
			}
			return 2*time.Microsecond + time.Duration(min(rng.ExpFloat64()*1500, 30_000))
		}),
		"window-max-int64": gen(countCutoff, func(int) time.Duration { return math.MaxInt64 - time.Duration(rng.IntN(countWindow/2)) }),
		"window-below-cutoff": gen(countCutoff-1, func(int) time.Duration {
			return 2*time.Microsecond + time.Duration(rng.IntN(countWindow))
		}),
	}
	for name, samples := range cases {
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, samples) })
	}
}

// A recorder sorted once, then grown by Merge, must read the oracle's
// order statistics over the union.
func TestSortSamplesAfterMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	r, other := NewRecorder("radix"), NewRecorder("other")
	var all []time.Duration
	for i := 0; i < 3000; i++ {
		d := time.Duration(rng.IntN(1 << 30))
		r.Record(d)
		all = append(all, d)
	}
	_ = r.Percentile(99) // sorts r's own samples
	for i := 0; i < 4000; i++ {
		d := time.Duration(rng.IntN(1 << 20))
		other.Record(d)
		all = append(all, d)
	}
	r.Merge(other)
	assertMatchesOracle(t, r, oracleRecorder(all))
}

// The first Percentile on a raw recorder sorts in place: no allocation, so
// a cluster run's peak RSS does not grow with the digest it summarizes.
func TestSortSamplesAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	r := NewRecorder("allocs")
	r.samples = make([]time.Duration, 0, 100_000)
	for i := 0; i < 100_000; i++ {
		r.Record(time.Duration(rng.Int64N(int64(10 * time.Millisecond))))
	}
	allocs := testing.AllocsPerRun(5, func() {
		slices.Reverse(r.samples)
		r.sorted = false
		_ = r.Percentile(99)
	})
	if allocs != 0 {
		t.Fatalf("first Percentile allocated %v times, want 0", allocs)
	}
}

// NaN must clamp like q < 0 instead of indexing at MinInt, and raw and
// streaming recorders must agree on it.
func TestPercentileNaN(t *testing.T) {
	raw, streaming := NewRecorder("raw"), NewStreamingRecorder("streaming")
	for _, d := range []time.Duration{300, 100, 200, 12345} {
		raw.Record(d)
		streaming.Record(d)
	}
	nan := math.NaN()
	if got := raw.Percentile(nan); got != 100 {
		t.Fatalf("raw Percentile(NaN) = %v, want the minimum 100", got)
	}
	if got, want := streaming.Percentile(nan), raw.Percentile(nan); got != want {
		t.Fatalf("streaming Percentile(NaN) = %v, raw = %v", got, want)
	}
	if got := Quantile([]float64{3, 1, 2}, nan); got != 1 {
		t.Fatalf("Quantile(NaN) = %v, want the minimum 1", got)
	}
}

// fuzzSamples decodes a fuzz input into samples: the 8-byte words of raw
// followed by n generated ones, width random bits shifted left by shift, so
// the fuzzer can steer duplicates and which bytes differ. The sign bit is
// cleared, as Record guarantees. n is taken modulo 2^14, which must stay
// above countCutoff so that generated samples reach the counting window.
func fuzzSamples(raw []byte, seed uint64, n uint16, width, shift uint8) []time.Duration {
	var xs []time.Duration
	for ; len(raw) >= 8; raw = raw[8:] {
		xs = append(xs, time.Duration(binary.LittleEndian.Uint64(raw)&math.MaxInt64))
	}
	mask := uint64(1)<<(width%64) - 1
	state := seed
	for i := 0; i < int(n%(1<<14)); i++ {
		v := (splitmix64(&state) & mask) << (shift % 64)
		xs = append(xs, time.Duration(v&math.MaxInt64))
	}
	return xs
}

// FuzzSortSamples checks sortSamples against slices.Sort on the samples
// fuzzSamples decodes. The seed corpus is in testdata/fuzz/FuzzSortSamples;
// FuzzMergeRuns has the same seeds, so each seed goes through both checks.
func FuzzSortSamples(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, n uint16, width, shift uint8) {
		xs := fuzzSamples(raw, seed, n, width, shift)
		want := slices.Clone(xs)
		slices.Sort(want)
		sortSamples(xs)
		if !slices.Equal(xs, want) {
			t.Fatalf("sortSamples differs from slices.Sort on %d samples", len(xs))
		}
	})
}

// FuzzMergeRuns splits the samples fuzzSamples decodes across 1–8
// recorders, as many as the low three bits of raw's first byte say, merges
// them by mergeNested and checks every statistic of the result against the
// oracle recorder. The seed corpus is in testdata/fuzz/FuzzMergeRuns:
// one-max-int64 merges seven empty recorders and one holding MaxInt64, the
// merged-* seeds split thousands of samples across 3, 6 and 8 runs, and
// the zero-heavy seeds split 4,000 zeros (all-zero-8-runs) and 512 samples
// 96.5% zero, like a flat-8n node's queue waits (zero-97pct-8-runs),
// across 8 runs, and the count-window-* seeds sort 16,383 samples in one
// recorder through the counting window: all of them inside it (width 15),
// about half (width 16), or one distinct value per window (shift 16).
func FuzzMergeRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64, n uint16, width, shift uint8) {
		k := 1
		if len(raw) > 0 {
			k += int(raw[0] % 8)
		}
		xs := fuzzSamples(raw, seed, n, width, shift)
		parts := make([][]time.Duration, k)
		for j := range parts {
			parts[j] = xs[len(xs)*j/k : len(xs)*(j+1)/k]
		}
		assertMatchesOracle(t, mergeNested(parts), oracleRecorder(xs))
	})
}

// mergeNested records each part into its own recorder and pre-sorts every
// other one with Sort. It merges the recorders after the first in pairs,
// then folds each pair into the first, which keeps the samples of its own
// part, and returns the first.
func mergeNested(parts [][]time.Duration) *Recorder {
	recs := make([]*Recorder, len(parts))
	for j, part := range parts {
		recs[j] = NewRecorder("part")
		for _, d := range part {
			recs[j].Record(d)
		}
		if j%2 == 1 {
			recs[j].Sort()
		}
	}
	for j := 1; j+1 < len(recs); j += 2 {
		recs[j].Merge(recs[j+1])
	}
	for j := 1; j < len(recs); j += 2 {
		recs[0].Merge(recs[j])
	}
	return recs[0]
}

var summarySink Summary

// BenchmarkRecorderSummarize times Summarize on a freshly filled raw
// recorder — dominated by the sort — at flat-8n's shard (2M/128), node
// (2M/8) and cluster (2M) digest sizes. The micro case is one micro-fig7
// cell's shape: 524,288 samples from a 2 µs minimum, 99% of them within
// the counting window, 1% at 40–100 µs and one in 4,096 at 1–4 ms. The
// wide case, uniform over 1 s, is the shape the window cannot help: almost
// no sample falls in it. The runs=128 case is flat-8n's
// cluster digest as finish builds it: 128 sorted shard runs of 15,625
// samples merged into one recorder, so Summarize selects across the runs
// instead of sorting. The wait case is one flat-8n node's queue-wait
// digest: 250,000 samples, 97% of them zero, recorded through Record into
// a fresh recorder each iteration, so the zeros take the counted path and
// the timing and B/op cover recording as well as the sort.
func BenchmarkRecorderSummarize(b *testing.B) {
	gen := func(rng *rand.Rand, n int, f func(*rand.Rand) time.Duration) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = f(rng)
		}
		return xs
	}
	exp := func(rng *rand.Rand) time.Duration {
		return 20*time.Microsecond + time.Duration(rng.ExpFloat64()*float64(80*time.Microsecond))
	}
	micro := func(rng *rand.Rand) time.Duration {
		switch {
		case rng.IntN(4096) == 0:
			return time.Millisecond + time.Duration(rng.Int64N(int64(3*time.Millisecond)))
		case rng.IntN(100) == 0:
			return 40*time.Microsecond + time.Duration(rng.Int64N(int64(60*time.Microsecond)))
		}
		return 2*time.Microsecond + time.Duration(min(rng.ExpFloat64()*1500, 30_000))
	}
	wide := func(rng *rand.Rand) time.Duration { return time.Duration(rng.Int64N(int64(time.Second))) }
	sorts := []struct {
		name string
		n    int
		f    func(*rand.Rand) time.Duration
	}{
		{"n=15625", 15_625, exp},
		{"n=250000", 250_000, exp},
		{"n=2000000", 2_000_000, exp},
		{"micro,n=524288", 524_288, micro},
		{"wide,n=1048576", 1_048_576, wide},
	}
	for _, c := range sorts {
		b.Run(c.name, func(b *testing.B) {
			src := gen(rand.New(rand.NewPCG(9, uint64(c.n))), c.n, c.f)
			r := NewRecorder("bench")
			r.samples = make([]time.Duration, 0, c.n)
			for _, d := range src {
				r.Record(d)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(r.samples, src)
				r.sorted = false
				b.StartTimer()
				summarySink = r.Summarize()
			}
		})
	}
	b.Run("wait,n=250000", func(b *testing.B) {
		rng := rand.New(rand.NewPCG(9, 97))
		src := gen(rng, 250_000, exp)
		for i := range src {
			if rng.IntN(100) < 97 {
				src[i] = 0
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := NewRecorder("wait")
			for _, d := range src {
				r.Record(d)
			}
			summarySink = r.Summarize()
		}
	})
	b.Run("runs=128", func(b *testing.B) {
		rng := rand.New(rand.NewPCG(9, 128))
		shards := make([]*Recorder, 128)
		for j := range shards {
			shards[j] = NewRecorder("shard")
			for _, d := range gen(rng, 15_625, exp) {
				shards[j].Record(d)
			}
			shards[j].Sort()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := NewRecorder("bench")
			for _, sh := range shards {
				r.Merge(sh)
			}
			summarySink = r.Summarize()
		}
	})
}
