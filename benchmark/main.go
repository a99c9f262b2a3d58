// Command benchmark measures how long the simulator takes, in host time,
// to run six workloads that stress different layers, and where that time
// goes.
//
// Run from this directory:
//
//	go run . [-seed N] [-reps 7] [-trace trace.json] [-out results.json]
//	go run . -workload flat-8n -seed 1 -seconds 20 -trace 0
//
// Without -workload every workload runs -reps times; with it, one workload
// runs for -seconds and the last line of the output is a JSON object with
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// Each rep runs in a fresh child process, one child at a time. See
// README.md for the workloads, metrics, bounds and the claim procedure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command; it returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload, for -seconds, and end with a JSON result line")
	seed := fs.Uint64("seed", 1, "seed every workload's input is built from")
	seconds := fs.Float64("seconds", 20, "host-time budget per workload of a -workload run or a trace")
	reps := fs.Int("reps", 7, "timed reps per workload when running all workloads")
	trace := fs.String("trace", "0", "0 times the engine; 1 traces a replay per layer; any other value also writes the sampled spans to that file")
	out := fs.String("out", "", "append this set's results to a JSON list in this file")
	size := fs.Float64("size", 1, "scale every workload's input by this factor")
	root := fs.String("root", "", "repository root (default: searched upward from the working directory)")
	role := fs.String("child", "", "internal: run as a child process in this role")
	t0 := fs.Int64("t0", 0, "internal: the parent's clock when it started this child, Unix ns")
	spans := fs.Bool("spans", false, "internal: a trace child returns its sampled spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(*size > 0) || !(*seconds >= 0) || *reps < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -size must be > 0, -seconds >= 0 and -reps >= 1")
		return 2
	}

	if *role != "" {
		w, err := specByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		res := runChild(w, childOptions{role: *role, seed: *seed, size: *size, root: *root, t0: *t0,
			until: time.Duration(*seconds * float64(time.Second)), spans: *spans})
		if err := json.NewEncoder(stdout).Encode(res); err != nil || res.Err != "" {
			return 1
		}
		return 0
	}

	// An interrupt or termination kills the running child and ends the
	// run without a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runParent(ctx, stdout, *name, *seed, *seconds, *reps, *trace, *out, *size, *root); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// errFailedRuns reports that some run failed a correctness gate; the
// results were still printed.
var errFailedRuns = errors.New("some runs failed; see above")

func runParent(ctx context.Context, stdout io.Writer, name string, seed uint64, seconds float64, reps int, trace, out string, size float64, root string) error {
	if root == "" {
		var err error
		if root, err = findRoot(); err != nil {
			return err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ws := specs
	if name != "" {
		w, err := specByName(name)
		if err != nil {
			return err
		}
		ws = []*spec{w}
	}
	p := &parent{self: self, seed: seed, size: size, root: root}
	budget := time.Duration(seconds * float64(time.Second))
	set := setOutput{Manifest: newManifest(root), Seed: seed, Mode: "time"}
	fmt.Fprintf(stdout, "hermes-sim benchmark · seed %d · %s · %d CPUs · %s · rev %.12s\n",
		seed, set.Manifest.Go, set.Manifest.NProc, set.Manifest.CPU, set.Manifest.Rev)

	var line resultLine
	tracing := trace != "0" && trace != ""
	if tracing {
		set.Mode = "trace"
		spansPath := ""
		if trace != "1" {
			spansPath = trace
		}
		var traces []traceFileWorkload
		for _, w := range ws {
			if ctx.Err() != nil {
				break
			}
			t := p.traceOne(ctx, w, budget, spansPath != "")
			wo, values := reportTrace(stdout, t)
			set.Workloads = append(set.Workloads, wo)
			line.add(wo, perLayerDefs, values)
			if spansPath != "" && t.tr.err == nil {
				traces = append(traces, traceFileWorkload{Name: w.name, Seed: seed,
					Layers: t.tr.res.Trace.Layers, Spans: t.tr.res.Trace.Spans})
			}
		}
		if spansPath != "" {
			if err := writeJSON(spansPath, traceFile{Manifest: set.Manifest, Workloads: traces}); err != nil {
				return err
			}
		}
	} else {
		if name != "" {
			reps = 0 // the budget decides
		} else {
			budget = 0
		}
		for _, t := range p.timeSet(ctx, ws, reps, budget) {
			wo := reportTiming(stdout, t)
			set.Workloads = append(set.Workloads, wo)
			// A run reports wall time and peak RSS as their lower quartile
			// over its reps: on a shared host the upper half of a run's
			// reps absorbs the neighbours' bursts and the garbage
			// collector's overshoot. Set-up time, a millisecond, is the
			// median of the reps' set-ups.
			values := map[string]float64{}
			for _, m := range wo.Metrics {
				values[m.Name] = m.P25
				if m.Name == "setup_s" {
					values[m.Name] = m.Median
				}
			}
			line.add(wo, endToEndDefs, values)
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted: %w", err)
	}
	if out != "" {
		if err := appendSet(out, set); err != nil {
			return err
		}
	}
	if name != "" {
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return err
		}
	}
	if line.Failed > 0 {
		return errFailedRuns
	}
	return nil
}

// findRoot searches upward from the working directory for the repository
// root: the directory holding go.mod and the committed scenario presets.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, brownoutFile)); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root not found: run from inside the repository or pass -root")
		}
		dir = parent
	}
}
