package stats

import (
	"math"
	"sort"
)

// This file is the replica-statistics toolkit the campaign harness (and the
// scaling bench's median-of-reps discipline) build on: quantiles over small
// float samples, median-with-spread, and a deterministic bootstrap
// confidence interval for the median. Everything here is a pure function of
// its inputs — BootstrapCI draws its resamples from an explicit seed — so
// campaign reports stay bit-reproducible.

// Quantile returns the q-quantile (q in [0, 1]) of xs using linear
// interpolation between closest ranks — the same numpy-default rule
// Recorder.Percentile applies to raw latency samples, so replica-level and
// sample-level quantiles agree on convention. xs need not be sorted; it is
// left unmodified. Returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted is Quantile on an already-sorted slice.
func quantileSorted(s []float64, q float64) float64 {
	if !(q >= 0) { // also catches NaN, which would index at MinInt
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

// Median returns the median of xs (the 0.5 Quantile): the middle element
// for odd counts, the midpoint of the two middle elements for even counts.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MedianSpread returns the median, minimum and maximum of xs — the
// scaling bench's median-of-reps discipline: the median is the committed
// number, the spread makes a noise-dominated median visible instead of
// letting it masquerade as signal. Returns zeros for an empty slice.
func MedianSpread(xs []float64) (med, lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5), s[0], s[len(s)-1]
}

// splitmix64 advances one step of the splitmix64 sequence — the same
// generator family randgen's stream splitting uses, inlined here so stats
// keeps zero intra-repo dependencies. It is more than adequate for
// bootstrap index draws.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// BootstrapCI returns a conf-level (e.g. 0.95) percentile-bootstrap
// confidence interval for the median of xs: resamples draws of len(xs)
// indices with replacement, each resample's median, and the
// ((1−conf)/2, 1−(1−conf)/2) quantiles of those medians. The draw sequence
// is a pure function of seed, so the interval is bit-reproducible — the
// property campaign reports pin. With one sample (or resamples <= 0) the
// interval degenerates to [median, median].
func BootstrapCI(xs []float64, conf float64, resamples int, seed uint64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	med := Median(xs)
	if len(xs) == 1 || resamples <= 0 {
		return med, med
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	state := seed
	meds := make([]float64, resamples)
	resample := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range resample {
			// Modulo bias over a 64-bit draw is negligible for any
			// realistic replica count.
			resample[i] = xs[splitmix64(&state)%uint64(len(xs))]
		}
		meds[r] = Median(resample)
	}
	sort.Float64s(meds)
	alpha := (1 - conf) / 2
	return quantileSorted(meds, alpha), quantileSorted(meds, 1-alpha)
}
