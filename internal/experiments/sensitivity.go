package experiments

import (
	"fmt"
	"strings"

	"github.com/hermes-sim/hermes/internal/core"
	"github.com/hermes-sim/hermes/internal/stats"
)

// This file reproduces the parameter-sensitivity study (§5.4, Figures 15
// and 16): Hermes' latency reduction versus Glibc as the reservation factor
// RSV_FACTOR sweeps 0.5–3.0, for small and large requests, on a dedicated
// system and under anonymous-page pressure.

// SensitivityFactors is the paper's sweep.
var SensitivityFactors = []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}

// SensitivityConfig is the §5.4 study's Hermes configuration for one
// RSV_FACTOR. min_rsv would dominate the micro-benchmark's per-interval
// demand and mask the factor, so the study lowers it and RSV_FACTOR
// governs the reserve.
func SensitivityConfig(factor float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.ReservationFactor = factor
	cfg.MinReserve = 256 << 10
	return cfg
}

// SensitivityResult holds one figure's data: reduction (%) per factor per
// percentile key, for each scenario, plus the reserve peaks for the
// memory-wastage discussion.
type SensitivityResult struct {
	Figure      string
	RequestSize int64
	// Reductions is indexed [scenario][factor index][percentile key].
	Reductions map[Scenario][]map[string]float64
	// ReservePeak is indexed [scenario][factor index] (bytes).
	ReservePeak map[Scenario][]int64
}

func runSensitivity(figure string, reqSize int64, scale Scale, seed uint64) SensitivityResult {
	res := SensitivityResult{
		Figure:      figure,
		RequestSize: reqSize,
		Reductions:  make(map[Scenario][]map[string]float64),
		ReservePeak: make(map[Scenario][]int64),
	}
	scenarios := []Scenario{ScenarioDedicated, ScenarioAnon}
	for _, scenario := range scenarios {
		glibcRec, _ := runMicroCell(KindGlibc, scenario, reqSize, scale.MicroTotalBytes, seed, nil)
		glibc := glibcRec.Summarize()
		rows := make([]map[string]float64, 0, len(SensitivityFactors))
		peaks := make([]int64, 0, len(SensitivityFactors))
		for _, factor := range SensitivityFactors {
			cfg := SensitivityConfig(factor)
			rec, peak := runMicroCell(KindHermes, scenario, reqSize, scale.MicroTotalBytes, seed, &cfg)
			hermes := rec.Summarize()
			row := make(map[string]float64, len(stats.PercentileKeys))
			for _, key := range stats.PercentileKeys {
				row[key] = stats.Reduction(glibc, hermes, key)
			}
			rows = append(rows, row)
			peaks = append(peaks, peak)
		}
		res.Reductions[scenario] = rows
		res.ReservePeak[scenario] = peaks
	}
	return res
}

// Reduction returns the reduction row for (scenario, factor index, key).
func (r SensitivityResult) Reduction(scenario Scenario, factorIdx int, key string) float64 {
	return r.Reductions[scenario][factorIdx][key]
}

// Render prints the Figure 15/16 bars.
func (r SensitivityResult) Render() string {
	var b strings.Builder
	for _, scenario := range []Scenario{ScenarioDedicated, ScenarioAnon} {
		fmt.Fprintf(&b, "%s — %s system: latency reduction vs Glibc (%%) by RSV_FACTOR\n", r.Figure, scenario)
		fmt.Fprintf(&b, "%-8s", "factor")
		for _, key := range stats.PercentileKeys {
			fmt.Fprintf(&b, " %8s", key)
		}
		fmt.Fprintf(&b, " %12s\n", "peak reserve")
		for i, factor := range SensitivityFactors {
			fmt.Fprintf(&b, "%-8.1f", factor)
			for _, key := range stats.PercentileKeys {
				fmt.Fprintf(&b, " %8.1f", r.Reductions[scenario][i][key])
			}
			fmt.Fprintf(&b, " %12d\n", r.ReservePeak[scenario][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig15 reproduces Figure 15: sensitivity for small (1 KB) requests.
func Fig15(scale Scale, seed uint64) SensitivityResult {
	return runSensitivity("Figure 15 (small requests)", 1024, scale, seed)
}

// Fig16 reproduces Figure 16: sensitivity for large (256 KB) requests.
func Fig16(scale Scale, seed uint64) SensitivityResult {
	return runSensitivity("Figure 16 (large requests)", 256<<10, scale, seed)
}
