// hermes-sweep runs experiment campaigns: a declarative JSON spec names a
// base scenario and a grid of axes (allocator, skew, rate scale, fleet
// size, adaptive-vs-static policies, seed replicas); the runner expands
// the grid, executes the cells in parallel across cores, and aggregates
// seed replicas into per-group medians with bootstrap confidence
// intervals. Worker count changes wall clock only — the report is
// bit-identical at any width, and each cell matches a standalone
// hermes-cluster run of the same spec and seed.
//
//	hermes-sweep -campaign examples/campaigns/adaptive-sweep.json -out report.json
//	hermes-sweep -diff baseline.json report.json -gate-pct 5
//	hermes-sweep -validate-metrics run.prom
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	hermes "github.com/hermes-sim/hermes"
	"github.com/hermes-sim/hermes/internal/campaign"
	"github.com/hermes-sim/hermes/internal/metrics"
)

func main() {
	campaignPath := flag.String("campaign", "", "campaign spec file to run")
	workers := flag.Int("workers", 0, "parallel cell workers (0 = GOMAXPROCS); affects wall clock only, never results")
	out := flag.String("out", "", "write the campaign report JSON here")
	scale := flag.Float64("scale", 1, "multiply the campaign's scenario scale by this factor (CI shrink knob)")
	jsonOut := flag.Bool("json", false, "print the report JSON to stdout instead of the comparison table")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress lines")
	diff := flag.Bool("diff", false, "compare two report files (old new); exit 1 when a regression crosses the gate")
	gatePct := flag.Float64("gate-pct", 5, "noise gate for -diff: percent p99 growth / compliance points that count as a regression")
	validate := flag.String("validate-metrics", "", "parse a metrics file (.prom/.txt Prometheus, else JSON-lines) and report the sample count")
	flag.Parse()

	if err := run(*campaignPath, *workers, *out, *scale, *jsonOut, *quiet, *diff, *gatePct, *validate); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-sweep:", err)
		os.Exit(1)
	}
}

func run(campaignPath string, workers int, out string, scale float64, jsonOut, quiet, diff bool, gatePct float64, validate string) error {
	switch {
	case diff:
		if flag.NArg() != 2 {
			return fmt.Errorf("-diff wants exactly two report files (old new), got %d args", flag.NArg())
		}
		return runDiff(flag.Arg(0), flag.Arg(1), gatePct)
	case validate != "":
		return runValidate(validate)
	case campaignPath != "":
		return runCampaign(campaignPath, workers, out, scale, jsonOut, quiet)
	default:
		return fmt.Errorf("nothing to do: pass -campaign, -diff or -validate-metrics")
	}
}

func runCampaign(path string, workers int, out string, scale float64, jsonOut, quiet bool) error {
	if workers < 0 {
		return fmt.Errorf("-workers %d must be >= 0 (0 = GOMAXPROCS)", workers)
	}
	c, err := campaign.Load(path)
	if err != nil {
		return err
	}
	if scale != 1 {
		if err := c.ScaleBy(scale); err != nil {
			return err
		}
	}
	opts := campaign.Options{Workers: workers}
	if !quiet {
		opts.Progress = func(done, total int, cell campaign.Cell) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, cell.ID)
		}
	}
	rep, runErr := c.Run(opts)
	if jsonOut {
		if err := hermes.WriteReportJSON(os.Stdout, rep); err != nil {
			return err
		}
	} else {
		fmt.Print(rep.Render())
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := hermes.WriteReportJSON(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d cells, %d groups)\n", out, len(rep.Cells), len(rep.Groups))
	}
	return runErr
}

func runDiff(oldPath, newPath string, gatePct float64) error {
	// A NaN gate makes every "delta > gate" test false, so it passes any
	// regression, as +Inf passes any finite one; a gate is a noise
	// allowance, so it cannot be negative.
	if !(gatePct >= 0) || math.IsInf(gatePct, 1) {
		return fmt.Errorf("-gate-pct %v must be a finite number >= 0", gatePct)
	}
	oldRep, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return err
	}
	text, regressed, err := campaign.Diff(oldRep, newRep, gatePct)
	if err != nil {
		return fmt.Errorf("cannot compare %s with %s: %w", oldPath, newPath, err)
	}
	fmt.Print(text)
	if regressed {
		return fmt.Errorf("regression beyond the %.1f%% gate", gatePct)
	}
	return nil
}

func readReport(path string) (*campaign.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep campaign.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runValidate parses a metrics export — the CI format gate for both the
// Prometheus text exposition and the JSON-lines stream.
func runValidate(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if metrics.IsPrometheusPath(path) {
		n, err := hermes.ParseMetricsPrometheus(f)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: valid Prometheus exposition, %d samples\n", path, n)
		return nil
	}
	samples, err := hermes.ParseMetricsJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid metrics JSONL, %d windows\n", path, len(samples))
	return nil
}
