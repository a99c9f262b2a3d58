// Colocation: the paper's headline scenario — a Redis-like latency-critical
// service sharing a node with memory-hungry batch jobs. Compares Glibc and
// Hermes (with the monitor daemon's proactive reclamation) on p90 latency
// and SLO violation under ~100% memory pressure.
package main

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/experiments"
	"github.com/hermes-sim/hermes/internal/stats"
)

func main() {
	fmt.Println("co-locating Redis with batch jobs at 100% memory pressure…")
	glibc, hermes := run(experiments.KindGlibc), run(experiments.KindHermes)

	// The paper's SLO is Glibc's dedicated p90; both runs here are
	// co-located, so Glibc's co-located p90 is the reference line instead.
	slo := glibc.Percentile(90)
	fmt.Printf("\n%-8s p90=%-12v SLO-violations(vs %v)=%.1f%%\n",
		"Glibc", glibc.Percentile(90), slo, glibc.ViolationRatio(slo)*100)
	fmt.Printf("%-8s p90=%-12v SLO-violations(vs %v)=%.1f%%\n",
		"Hermes", hermes.Percentile(90), slo, hermes.ViolationRatio(slo)*100)
}

// run co-locates the service, on the given allocator, with batch jobs
// targeting 100% of an 8 GB node and inserts 64 MB of 1 KB records; it
// returns the query latencies.
func run(kind experiments.AllocKind) *stats.Recorder {
	scale := experiments.Scale{NodeMemory: 8 << 30, NodeSwap: 8 << 30, ServiceInsertBytes: 64 << 20}
	return experiments.RunServiceCell(experiments.ServiceRedis, kind, 1.0, 1024, scale, 1).Total
}
