package experiments

import (
	"fmt"
	"strings"

	"github.com/hermes-sim/hermes/internal/core"
	"github.com/hermes-sim/hermes/internal/stats"
)

// This file regenerates the micro-benchmark artifacts: Figure 3 (Glibc
// allocation-latency CDFs under the three regimes) and Figures 7 and 8
// (four allocators × three regimes for 1 KB and 256 KB requests, plus the
// per-percentile reduction bars).

// runMicroCell runs one (allocator, scenario, request size) micro-benchmark
// cell on the paper's testbed, with an optional Hermes configuration
// override, and returns its latency recorder and the allocator's peak
// reservation.
func runMicroCell(kind AllocKind, scenario Scenario, reqSize, totalBytes int64, seed uint64, hermesCfg *core.Config) (*stats.Recorder, int64) {
	c := NewMicroCell(microConfig(seed), kind, scenario, totalBytes, hermesCfg)
	defer c.Close()
	rec := stats.NewRecorder(seriesName(kind, scenario))
	c.Run(reqSize, rec)
	return rec, c.Allocator().Stats().ReservePeak
}

// Fig3Result holds the Figure 3 series: Glibc small-request allocation
// latency on an idle system vs file-cache vs anonymous-page pressure.
type Fig3Result struct {
	Idle *stats.Recorder
	File *stats.Recorder
	Anon *stats.Recorder
}

// Fig3 reproduces Figure 3 (and the §2.2 case-study numbers: anon pressure
// prolongs the average by ~35.6% and p99 by ~46.6%; file pressure by ~10.8%
// and ~7.6%).
func Fig3(scale Scale, seed uint64) Fig3Result {
	cell := func(scenario Scenario) *stats.Recorder {
		rec, _ := runMicroCell(KindGlibc, scenario, 1024, scale.MicroTotalBytes, seed, nil)
		return rec
	}
	return Fig3Result{Idle: cell(ScenarioDedicated), File: cell(ScenarioFile), Anon: cell(ScenarioAnon)}
}

// Render prints the CDF table plus the pressure-inflation summary.
func (r Fig3Result) Render() string {
	var b strings.Builder
	fractions := []float64{0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}
	series := map[string][]stats.CDFPoint{
		"idle": r.Idle.CDF(1000),
		"file": r.File.CDF(1000),
		"anon": r.Anon.CDF(1000),
	}
	b.WriteString(stats.RenderCDFTable(
		"Figure 3: CDF of memory allocation latency (1KB requests, Glibc)",
		fractions, series, []string{"idle", "file", "anon"}))
	idle, file, anon := r.Idle.Summarize(), r.File.Summarize(), r.Anon.Summarize()
	fmt.Fprintf(&b, "\nInflation vs idle (paper: anon +35.6%% avg/+46.6%% p99; file +10.8%%/+7.6%%):\n")
	fmt.Fprintf(&b, "  anon: avg %+.1f%%  p99 %+.1f%%\n",
		-stats.Reduction(idle, anon, "avg"), -stats.Reduction(idle, anon, "p99"))
	fmt.Fprintf(&b, "  file: avg %+.1f%%  p99 %+.1f%%\n",
		-stats.Reduction(idle, file, "avg"), -stats.Reduction(idle, file, "p99"))
	return b.String()
}

// MicroFigResult holds one of Figures 7/8: recorders per (allocator,
// scenario) plus the "Hermes w/o rec" file-pressure curve.
type MicroFigResult struct {
	Figure      string
	RequestSize int64
	// Series maps the paper's curve label to its recorder.
	Series map[string]*stats.Recorder
	// Order lists the labels per scenario for rendering.
	Scenarios []Scenario
}

// runMicroFig runs the full allocator×scenario sweep for one request size.
func runMicroFig(figure string, reqSize int64, scale Scale, seed uint64) MicroFigResult {
	res := MicroFigResult{
		Figure:      figure,
		RequestSize: reqSize,
		Series:      make(map[string]*stats.Recorder),
		Scenarios:   AllScenarios,
	}
	for _, scenario := range AllScenarios {
		for _, kind := range AllAllocKinds {
			rec, _ := runMicroCell(kind, scenario, reqSize, scale.MicroTotalBytes, seed, nil)
			res.Series[rec.Name()] = rec
		}
	}
	// The proactive-reclamation ablation only matters under file-cache
	// pressure (Figs 7c, 8c).
	rec, _ := runMicroCell(KindHermesNoRec, ScenarioFile, reqSize, scale.MicroTotalBytes, seed, nil)
	res.Series[rec.Name()] = rec
	return res
}

// Fig7 reproduces Figure 7: small (1 KB) allocation-latency CDFs and
// Hermes-vs-Glibc reductions.
func Fig7(scale Scale, seed uint64) MicroFigResult {
	return runMicroFig("Figure 7 (small 1KB requests)", 1024, scale, seed)
}

// Fig8 reproduces Figure 8: large (256 KB) requests.
func Fig8(scale Scale, seed uint64) MicroFigResult {
	return runMicroFig("Figure 8 (large 256KB requests)", 256<<10, scale, seed)
}

// Reduction returns Hermes' percentage latency reduction vs Glibc at the
// given summary key under the given scenario (the Fig 7d/8d bars).
func (r MicroFigResult) Reduction(scenario Scenario, key string) float64 {
	glibc := r.Series[seriesName(KindGlibc, scenario)]
	hermes := r.Series[seriesName(KindHermes, scenario)]
	return stats.Reduction(glibc.Summarize(), hermes.Summarize(), key)
}

// Render prints per-scenario CDF tables, the summary rows, and the
// reduction bars.
func (r MicroFigResult) Render() string {
	var b strings.Builder
	fractions := []float64{0.25, 0.5, 0.75, 0.9, 0.95, 0.99}
	for _, scenario := range r.Scenarios {
		var order []string
		series := make(map[string][]stats.CDFPoint)
		for _, kind := range AllAllocKinds {
			name := seriesName(kind, scenario)
			order = append(order, name)
			series[name] = r.Series[name].CDF(1000)
		}
		if scenario == ScenarioFile {
			name := seriesName(KindHermesNoRec, scenario)
			if rec, ok := r.Series[name]; ok {
				order = append(order, name)
				series[name] = rec.CDF(1000)
			}
		}
		b.WriteString(stats.RenderCDFTable(
			fmt.Sprintf("%s — %s system", r.Figure, scenario), fractions, series, order))
		for _, name := range order {
			fmt.Fprintf(&b, "  %s\n", r.Series[name].Summarize())
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%s — latency reduction by Hermes vs Glibc (%%):\n", r.Figure)
	fmt.Fprintf(&b, "%-12s", "")
	for _, key := range stats.PercentileKeys {
		fmt.Fprintf(&b, " %8s", key)
	}
	b.WriteString("\n")
	for _, scenario := range r.Scenarios {
		fmt.Fprintf(&b, "%-12s", scenario)
		for _, key := range stats.PercentileKeys {
			fmt.Fprintf(&b, " %8.1f", r.Reduction(scenario, key))
		}
		b.WriteString("\n")
	}
	return b.String()
}
