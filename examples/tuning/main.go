// Tuning: the §5.4 exercise — how the reservation factor RSV_FACTOR trades
// allocation latency against reserved-memory waste. Sweeps 0.5–3.0 on the
// micro-benchmark and prints the latency reduction vs Glibc plus the peak
// reservation, the data behind Figures 15/16 and the paper's choice of 2.
package main

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/core"
	"github.com/hermes-sim/hermes/internal/experiments"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/stats"
)

func main() {
	baseline, _ := run(experiments.KindGlibc, nil)
	fmt.Printf("Glibc baseline: avg=%v p99=%v\n\n", baseline.Mean, baseline.P99)

	fmt.Printf("%-8s %-10s %-10s %-14s\n", "factor", "avg red%", "p99 red%", "peak reserve")
	for _, factor := range experiments.SensitivityFactors {
		cfg := experiments.SensitivityConfig(factor)
		s, peak := run(experiments.KindHermes, &cfg)
		avgRed := (1 - float64(s.Mean)/float64(baseline.Mean)) * 100
		p99Red := (1 - float64(s.P99)/float64(baseline.P99)) * 100
		fmt.Printf("%-8.1f %-10.1f %-10.1f %-14s\n", factor, avgRed, p99Red,
			fmt.Sprintf("%.1f MB", float64(peak)/(1<<20)))
	}
	fmt.Println("\nthe paper settles on RSV_FACTOR=2: more buys little, less hurts tails")
}

// run drives 64 MB of 1 KB mallocs through one dedicated micro cell and
// returns the latency digest and the allocator's peak reservation.
func run(kind experiments.AllocKind, cfg *core.Config) (stats.Summary, int64) {
	cell := experiments.NewMicroCell(kernel.DefaultConfig(), kind, experiments.ScenarioDedicated, 64<<20, cfg)
	defer cell.Close()
	rec := stats.NewRecorder(string(kind))
	cell.Run(1024, rec)
	return rec.Summarize(), cell.Allocator().Stats().ReservePeak
}
