// Microbench: the §5.2 shoot-out — all four allocators under anonymous-page
// pressure, printing the latency CDF table (the Figure 7(b) comparison).
package main

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/experiments"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/stats"
)

func main() {
	const reqSize, totalBytes = 1024, 64 << 20
	results := make(map[experiments.AllocKind]*stats.Recorder)

	// Anonymous-page pressure: a co-tenant burns memory down to a thin
	// free buffer and holds it.
	for _, kind := range experiments.AllAllocKinds {
		cell := experiments.NewMicroCell(kernel.DefaultConfig(), kind, experiments.ScenarioAnon, totalBytes, nil)
		rec := stats.NewRecorder(string(kind))
		cell.Run(reqSize, rec)
		cell.Close()
		results[kind] = rec
	}

	fmt.Println("1KB allocation latency under anonymous-page pressure:")
	fmt.Printf("%-10s %-10s %-10s %-10s %-10s %-10s\n", "", "avg", "p50", "p90", "p99", "max")
	for _, kind := range experiments.AllAllocKinds {
		s := results[kind].Summarize()
		fmt.Printf("%-10s %-10v %-10v %-10v %-10v %-10v\n",
			kind, s.Mean, s.P50, s.P90, s.P99, s.Max)
	}
}
