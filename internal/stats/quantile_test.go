package stats

import (
	"math"
	"testing"
	"time"
)

// TestQuantileClosedForm checks the interpolated quantile against values
// derivable by hand from small closed-form samples.
func TestQuantileClosedForm(t *testing.T) {
	// The uniform grid 0..100: the q-quantile is exactly 100q.
	grid := make([]float64, 101)
	for i := range grid {
		grid[i] = float64(i)
	}
	for _, q := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		if got, want := Quantile(grid, q), 100*q; math.Abs(got-want) > 1e-9 {
			t.Errorf("Quantile(grid, %v) = %v, want %v", q, got, want)
		}
	}
	// Even count interpolates the midpoint; odd count picks the middle.
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2 (input unsorted)", got)
	}
	// Interpolation between ranks: p75 of {10, 20, 30, 40} sits at rank
	// 2.25 → 30 + 0.25·10 = 32.5.
	if got := Quantile([]float64{10, 20, 30, 40}, 0.75); got != 32.5 {
		t.Errorf("p75 = %v, want 32.5", got)
	}
	// Degenerate inputs.
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("singleton quantile = %v, want 7", got)
	}
}

// TestQuantileMatchesRecorder pins the convention match: replica-level
// Quantile and sample-level Recorder.Percentile implement the same
// interpolation rule.
func TestQuantileMatchesRecorder(t *testing.T) {
	vals := []float64{3, 141, 59, 26, 535, 89, 79, 32, 384, 626}
	rec := NewRecorder("conv")
	for _, v := range vals {
		rec.Record(time.Duration(v))
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := float64(rec.Percentile(q * 100))
		got := Quantile(vals, q)
		if math.Abs(got-want) > 1 { // Percentile truncates to whole ns
			t.Errorf("q=%v: Quantile=%v Recorder.Percentile=%v", q, got, want)
		}
	}
}

func TestMedianSpread(t *testing.T) {
	med, lo, hi := MedianSpread([]float64{5, 1, 9, 3})
	if med != 4 || lo != 1 || hi != 9 {
		t.Errorf("MedianSpread = (%v, %v, %v), want (4, 1, 9)", med, lo, hi)
	}
	if med, lo, hi := MedianSpread(nil); med != 0 || lo != 0 || hi != 0 {
		t.Errorf("empty MedianSpread = (%v, %v, %v), want zeros", med, lo, hi)
	}
}

// TestBootstrapCI checks the interval's defining properties on a known
// distribution: deterministic under a fixed seed, contains the sample
// median, and tightens as the sample grows (the 1/√n contraction every
// closed-form CI shares).
func TestBootstrapCI(t *testing.T) {
	// An exponential(1) sample via inverse transform on a fixed splitmix64
	// stream: median ln 2 ≈ 0.693.
	gen := func(n int, seed uint64) []float64 {
		state := seed
		xs := make([]float64, n)
		for i := range xs {
			u := float64(splitmix64(&state)>>11) / float64(1<<53)
			xs[i] = -math.Log(1 - u)
		}
		return xs
	}

	small := gen(30, 7)
	lo1, hi1 := BootstrapCI(small, 0.95, 2000, 42)
	lo2, hi2 := BootstrapCI(small, 0.95, 2000, 42)
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatalf("bootstrap not deterministic: (%v,%v) vs (%v,%v)", lo1, hi1, lo2, hi2)
	}
	med := Median(small)
	if !(lo1 <= med && med <= hi1) {
		t.Errorf("CI [%v, %v] does not contain the sample median %v", lo1, hi1, med)
	}
	if !(lo1 < hi1) {
		t.Errorf("CI [%v, %v] is degenerate on a 30-sample input", lo1, hi1)
	}
	// True median ln 2 should be inside a 95% CI of a well-behaved sample
	// (this specific seed is pinned, so the assertion cannot flake).
	if ln2 := math.Ln2; !(lo1 <= ln2 && ln2 <= hi1) {
		t.Errorf("CI [%v, %v] misses the true median ln2=%v for this pinned sample", lo1, hi1, ln2)
	}

	big := gen(3000, 7)
	blo, bhi := BootstrapCI(big, 0.95, 2000, 42)
	if (bhi - blo) >= (hi1 - lo1) {
		t.Errorf("CI width did not shrink with sample size: n=30 width %v vs n=3000 width %v",
			hi1-lo1, bhi-blo)
	}

	// Degenerate inputs collapse to the median.
	if lo, hi := BootstrapCI([]float64{3}, 0.95, 100, 1); lo != 3 || hi != 3 {
		t.Errorf("singleton CI = [%v, %v], want [3, 3]", lo, hi)
	}
	if lo, hi := BootstrapCI(nil, 0.95, 100, 1); lo != 0 || hi != 0 {
		t.Errorf("empty CI = [%v, %v], want [0, 0]", lo, hi)
	}
}
