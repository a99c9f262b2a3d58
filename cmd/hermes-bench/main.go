// hermes-bench regenerates the paper's tables and figures, and measures
// the parallel cluster engine's multi-core scaling curve. Each experiment
// prints the rows/series the paper reports (see EXPERIMENTS.md for
// paper-vs-measured).
//
// Usage:
//
//	hermes-bench [-scale quick|full] [-seed N] [-run fig3,fig7,...]
//	             [-json] [-cpuprofile f] [-memprofile f]
//	hermes-bench -bench-scaling BENCH_scaling.json [-scaling-cores 1,2,4,8]
//	             [-scaling-fleets 8,64] [-scaling-requests 1000000]
//	             [-scaling-reps 3] [-scaling-min-speedup 0]
//
// With no -run flag every experiment runs in paper order. -json emits
// machine-readable experiment reports instead of tables; -cpuprofile and
// -memprofile write pprof profiles (parity with hermes-cluster), so
// node-level profiles are one command away.
//
// -bench-scaling measures the parallel cluster engine's multi-core
// scaling curve (see scalingbench.go); the committed BENCH_scaling.json
// is its output. It sets GOMAXPROCS per measured point.
//
// The single-core speed of the simulator is measured elsewhere: by the
// benchmark in benchmark/ (run `bash benchmark/run.sh`) and by the
// `go test -bench` benchmarks in the repository root and in
// internal/workload/randgen.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	hermes "github.com/hermes-sim/hermes"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	scaleFlag := flag.String("scale", "quick", "workload scale: quick or full (paper-sized)")
	seed := flag.Uint64("seed", 1, "determinism seed")
	runFlag := flag.String("run", "", "comma-separated experiments (default: all): fig2,fig3,fig6,fig7,fig8,fig9,fig10,fig15,fig16,table1,overhead,mlock")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON reports instead of tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	benchScaling := flag.String("bench-scaling", "", "measure the parallel engine's multi-core scaling curve and write the JSON trajectory to this file")
	scalingCores := flag.String("scaling-cores", "1,2,4,8", "comma-separated GOMAXPROCS points for -bench-scaling")
	scalingFleets := flag.String("scaling-fleets", "8,64", "comma-separated node counts for -bench-scaling")
	scalingRequests := flag.Int64("scaling-requests", 1_000_000, "requests per measurement for -bench-scaling")
	scalingReps := flag.Int("scaling-reps", 3, "repetitions per point for -bench-scaling (median reported)")
	scalingMinSpeedup := flag.Float64("scaling-min-speedup", 0, "fail unless every fleet's best multi-core speedup reaches this factor (0 = report only)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hermes-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hermes-bench:", err)
			}
		}()
	}

	if *benchScaling != "" {
		return runScalingBench(scalingBenchConfig{
			path:       *benchScaling,
			cores:      *scalingCores,
			fleets:     *scalingFleets,
			requests:   *scalingRequests,
			reps:       *scalingReps,
			minSpeedup: *scalingMinSpeedup,
			seed:       *seed,
		})
	}

	var scale hermes.Scale
	switch *scaleFlag {
	case "quick":
		scale = hermes.QuickScale()
	case "full":
		scale = hermes.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}

	type experiment struct {
		name string
		run  func() string
	}
	all := []experiment{
		{"fig2", func() string { return hermes.Fig2(scale, *seed).Render() }},
		{"fig3", func() string { return hermes.Fig3(scale, *seed).Render() }},
		{"fig6", func() string { return hermes.Fig6Ablation(scale, *seed).Render() }},
		{"fig7", func() string { return hermes.Fig7(scale, *seed).Render() }},
		{"fig8", func() string { return hermes.Fig8(scale, *seed).Render() }},
		{"fig9", func() string {
			f := hermes.Fig9(scale, *seed)
			return f.RenderLatency("Figure 9") + "\n" + f.RenderTail("Figure 11") + "\n" + f.RenderViolation("Figure 13")
		}},
		{"fig10", func() string {
			f := hermes.Fig10(scale, *seed)
			return f.RenderLatency("Figure 10") + "\n" + f.RenderTail("Figure 12") + "\n" + f.RenderViolation("Figure 14")
		}},
		{"fig15", func() string { return hermes.Fig15(scale, *seed).Render() }},
		{"fig16", func() string { return hermes.Fig16(scale, *seed).Render() }},
		{"table1", func() string { return hermes.Table1(scale, *seed).Render() }},
		{"overhead", func() string { return hermes.Overhead(scale, *seed).Render() }},
		{"mlock", func() string { return hermes.MlockAblation(scale, *seed).Render() }},
	}

	selected := map[string]bool{}
	if *runFlag != "" {
		for _, name := range strings.Split(*runFlag, ",") {
			selected[strings.TrimSpace(name)] = true
		}
		for name := range selected {
			found := false
			for _, e := range all {
				if e.name == name {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("unknown experiment %q", name)
			}
		}
	}

	// jsonExperiment is one experiment's machine-readable record.
	type jsonExperiment struct {
		Name   string  `json:"name"`
		WallMS float64 `json:"wall_ms"`
		Output string  `json:"output"`
	}
	var jsonReports []jsonExperiment

	if !*jsonOut {
		fmt.Printf("hermes-bench scale=%s seed=%d\n\n", scale.Name, *seed)
	}
	for _, e := range all {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		start := time.Now()
		out := e.run()
		wall := time.Since(start)
		if *jsonOut {
			jsonReports = append(jsonReports, jsonExperiment{Name: e.name, WallMS: ms(wall), Output: out})
			continue
		}
		fmt.Printf("=== %s (wall %v) ===\n%s\n", e.name, wall.Round(time.Millisecond), out)
	}
	if *jsonOut {
		return writeJSON(os.Stdout, struct {
			Scale       string           `json:"scale"`
			Seed        uint64           `json:"seed"`
			Experiments []jsonExperiment `json:"experiments"`
		}{scale.Name, *seed, jsonReports})
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// writeJSON delegates to the report-serialization path every CLI shares.
func writeJSON(f *os.File, v any) error { return hermes.WriteReportJSON(f, v) }
