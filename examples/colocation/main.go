// Colocation: the paper's headline scenario — a Redis-like latency-critical
// service sharing a node with memory-hungry batch jobs. Compares Glibc and
// Hermes (with the monitor daemon's proactive reclamation) on p90 latency
// and SLO violation under ~100% memory pressure.
package main

import (
	"fmt"
	"time"

	hermes "github.com/hermes-sim/hermes"
	"github.com/hermes-sim/hermes/internal/batch"
)

func main() {
	fmt.Println("co-locating Redis with batch jobs at 100% memory pressure…")
	glibcP90, glibcRec := run(false)
	hermesP90, hermesRec := run(true)

	slo := glibcP90 // the paper's SLO: Glibc's dedicated p90 — here we use
	// the Glibc co-located p90 as a reference line instead, since both
	// runs are co-located.
	fmt.Printf("\n%-8s p90=%-12v SLO-violations(vs %v)=%.1f%%\n",
		"Glibc", glibcP90, slo, glibcRec.ViolationRatio(slo)*100)
	fmt.Printf("%-8s p90=%-12v SLO-violations(vs %v)=%.1f%%\n",
		"Hermes", hermesP90, slo, hermesRec.ViolationRatio(slo)*100)
}

// run co-locates the service with batch jobs on an 8 GB node and returns
// the p90 query latency plus the full recorder.
func run(useHermes bool) (time.Duration, *hermes.Recorder) {
	cfg := hermes.DefaultNodeConfig()
	cfg.Kernel.TotalMemory = 8 << 30
	cfg.Kernel.SwapBytes = 8 << 30
	node := hermes.NewNode(cfg)

	// Batch jobs targeting 100% of node memory.
	bcfg := batch.DefaultConfig()
	bcfg.TargetBytes = 8 << 30
	bcfg.InputBytes = 512 << 20
	bcfg.WorkDuration = 20 * time.Second
	runner := batch.NewRunner(node.Kernel(), bcfg)
	defer runner.Stop()

	var a hermes.Allocator
	if useHermes {
		reg := node.NewRegistry()
		h := node.NewHermesAllocatorWith("redis", hermes.DefaultHermesConfig(), reg, true)
		runner.RegisterEvery(reg, 500*time.Millisecond)
		daemon := node.StartDaemon(reg, hermes.DefaultDaemonConfig())
		defer daemon.Stop()
		a = h
	} else {
		a = node.NewGlibcAllocator("redis")
	}
	defer a.Close()

	svc := node.NewRedis(a)
	defer svc.Close()

	node.Advance(2 * time.Second) // batch ramp + warm-up

	rec := hermes.NewRecorder("queries")
	var key int64
	for svc.StoredBytes() < 64<<20 {
		key++
		total, _, _ := svc.Query(key, 1024)
		rec.Record(total)
	}
	return rec.Percentile(90), rec
}
