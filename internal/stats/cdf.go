package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// CDFPoint is one point of an empirical CDF: F(Latency) = Fraction.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF returns the empirical CDF evaluated at n evenly spaced fractions in
// (0, 1]. This matches how the paper plots Figures 3, 7, 8, 11, 12: latency
// on the x-axis, cumulative fraction on the y-axis.
func (r *Recorder) CDF(n int) []CDFPoint {
	if n <= 0 || r.Count() == 0 {
		return nil
	}
	points := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		frac := float64(i) / float64(n)
		points = append(points, CDFPoint{Latency: r.atFraction(frac), Fraction: frac})
	}
	return points
}

// TailCDF returns CDF points covering only the [from, 1] fraction range,
// the zoomed tail view of Figures 11 and 12 (0.90–0.99).
func (r *Recorder) TailCDF(from float64, n int) []CDFPoint {
	if n <= 0 || r.Count() == 0 || from < 0 || from >= 1 {
		return nil
	}
	span := float64(n - 1)
	if span == 0 {
		span = 1 // a single point sits at `from`, not at NaN
	}
	points := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		frac := from + (1-from)*float64(i)/span
		if frac > 1 {
			frac = 1
		}
		points = append(points, CDFPoint{Latency: r.atFraction(frac), Fraction: frac})
	}
	return points
}

// atFraction returns the latency at cumulative fraction frac: the
// histogram's quantile in streaming mode, else the ⌊frac·n⌋-th smallest
// raw sample, clamped to the samples.
func (r *Recorder) atFraction(frac float64) time.Duration {
	if r.hist != nil {
		return r.hist.Quantile(frac * 100)
	}
	n := r.Count()
	idx := int(frac*float64(n)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return r.nth(idx)
}

// RenderCDFTable renders one or more CDFs side by side as a fixed-fraction
// table, the textual equivalent of the paper's CDF figures. All series
// should come from the same experiment so the fractions line up.
func RenderCDFTable(title string, fractions []float64, series map[string][]CDFPoint, order []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s", "CDF")
	for _, name := range order {
		fmt.Fprintf(&b, " %-14s", name)
	}
	b.WriteString("\n")
	for _, frac := range fractions {
		fmt.Fprintf(&b, "%-8.3f", frac)
		for _, name := range order {
			points := series[name]
			fmt.Fprintf(&b, " %-14v", lookupCDF(points, frac))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// lookupCDF finds the latency at the smallest fraction >= frac.
func lookupCDF(points []CDFPoint, frac float64) time.Duration {
	idx := sort.Search(len(points), func(i int) bool { return points[i].Fraction >= frac })
	if idx >= len(points) {
		if len(points) == 0 {
			return 0
		}
		return points[len(points)-1].Latency
	}
	return points[idx].Latency
}
