package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent commit's median an end-to-end
	// metric may worsen by before a change counts as a regression.
	Bound float64
}

// endToEndDefs are what a user of the simulator sees, measured with
// tracing off. A failed run is not a metric: it counts against the runs
// attempted.
var endToEndDefs = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayerDefs are the per-layer metrics of a traced run, every one
// reported for every workload: a layer a workload never calls reads 0.
// Layer times are self times with the empty span's cost taken out: per
// call in ns, whole passes in ms, and per module as a share of the
// untraced replay wall.
var perLayerDefs = []metricDef{
	{Name: "share.workload", Unit: "%", Better: "lower"},
	{Name: "share.cluster", Unit: "%", Better: "lower"},
	{Name: "share.services", Unit: "%", Better: "lower"},
	{Name: "share.alloc", Unit: "%", Better: "lower"},
	{Name: "share.kernel", Unit: "%", Better: "lower"},
	{Name: "share.simtime", Unit: "%", Better: "lower"},
	{Name: "share.stats", Unit: "%", Better: "lower"},
	{Name: "share.boot", Unit: "%", Better: "lower"},
	{Name: "share.unattributed", Unit: "%", Better: "lower"},
	{Name: "trace.wall_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.jitter_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.route_ns", Unit: "ns", Better: "lower"},
	{Name: "services.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "services.read_ns", Unit: "ns", Better: "lower"},
	{Name: "services.query_ns", Unit: "ns", Better: "lower"},
	{Name: "services.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "simtime.run_until_ns", Unit: "ns", Better: "lower"},
	{Name: "simtime.advance_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.record_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.summarize_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc.glibc.malloc_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.glibc.touch_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.jemalloc.malloc_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.jemalloc.touch_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.tcmalloc.malloc_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.tcmalloc.touch_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.hermes.malloc_ns", Unit: "ns", Better: "lower"},
	{Name: "alloc.hermes.touch_ns", Unit: "ns", Better: "lower"},
	{Name: "monitor.host_us_per_scan", Unit: "us", Better: "lower"},
	{Name: "cluster.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.route_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.run_residual_ms", Unit: "ms", Better: "lower"},
	{Name: "go.alloc_b_per_op", Unit: "B/op", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "cluster.parallelism", Unit: "ratio", Better: "higher"},
	{Name: "sim.ops", Unit: "count", Better: "higher"},
	{Name: "kernel.minor_faults", Unit: "count", Better: "lower"},
	{Name: "kernel.major_faults", Unit: "count", Better: "lower"},
	{Name: "kernel.direct_reclaims", Unit: "count", Better: "lower"},
	{Name: "kernel.kswapd_runs", Unit: "count", Better: "lower"},
	{Name: "kernel.pages_reclaimed", Unit: "pages", Better: "lower"},
	{Name: "kernel.swap_in", Unit: "pages", Better: "lower"},
	{Name: "kernel.swap_out", Unit: "pages", Better: "lower"},
	{Name: "kernel.oom_kills", Unit: "count", Better: "lower"},
	{Name: "core.premapped_ratio", Unit: "ratio", Better: "higher"},
	{Name: "monitor.scans", Unit: "count", Better: "lower"},
	{Name: "monitor.pages_per_scan", Unit: "pages", Better: "higher"},
	{Name: "batch.jobs", Unit: "count", Better: "higher"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower"},
	{Name: "cluster.timeouts", Unit: "count", Better: "lower"},
	{Name: "cluster.errors", Unit: "count", Better: "lower"},
	{Name: "cluster.shed", Unit: "count", Better: "lower"},
	{Name: "cluster.failed", Unit: "count", Better: "lower"},
	{Name: "cluster.served_per_attempt", Unit: "ratio", Better: "higher"},
}

// setOutput is one invocation's results, as -out appends them.
type setOutput struct {
	Manifest  manifest         `json:"manifest"`
	Seed      uint64           `json:"seed"`
	Mode      string           `json:"mode"`
	Workloads []workloadOutput `json:"workloads"`
}

// workloadOutput is one workload's results.
type workloadOutput struct {
	Name        string          `json:"name"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	Runs        int             `json:"runs"`
	FailedRuns  int             `json:"failed_runs"`
	ModelDigest string          `json:"model_digest"`
	Metrics     []metricSummary `json:"metrics"`
	Model       []modelValue    `json:"model,omitempty"`
	Layers      []layerStat     `json:"layers,omitempty"`
	Errors      []string        `json:"errors,omitempty"`
}

// resultLine is the last line of a -workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (l *resultLine) add(wo workloadOutput, defs []metricDef, values map[string]float64) {
	l.Attempted += wo.Runs
	l.Failed += wo.FailedRuns
	l.Correct = l.Failed == 0
	l.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		l.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

// reportTiming prints and returns one workload's timed results.
func reportTiming(w io.Writer, t *timing) workloadOutput {
	digest, runs, errs := t.verdict()
	wo := workloadOutput{Name: t.w.name, GOMAXPROCS: t.w.gomaxprocs(), Runs: runs, FailedRuns: len(errs),
		ModelDigest: digest, Metrics: t.metrics(), Model: t.model(), Errors: errs}
	fmt.Fprintf(w, "\n%s  (GOMAXPROCS %d) — %s\n", wo.Name, wo.GOMAXPROCS, t.w.why)
	for _, m := range wo.Metrics {
		fmt.Fprintf(w, "  %-12s %-3s median %-10.4f p25 %-10.4f p75 %-10.4f n %d\n", m.Name, m.Unit, m.Median, m.P25, m.P75, m.N)
	}
	of := "reps"
	if t.oracle != nil {
		of = "reps and the sequential oracle"
	}
	fmt.Fprintf(w, "  failed_runs  %d of %d runs (%s)\n", wo.FailedRuns, wo.Runs, of)
	fmt.Fprintf(w, "  model digest %.16s\n", digest)
	printModel(w, wo.Model)
	printErrors(w, errs)
	return wo
}

func printModel(w io.Writer, model []modelValue) {
	if len(model) == 0 {
		return
	}
	fmt.Fprintln(w, "  simulated time (model output, not gated):")
	for _, m := range model {
		paper := ""
		if m.Paper != "" {
			paper = "  paper " + m.Paper
		}
		fmt.Fprintf(w, "    %-30s %12.4g %s%s\n", m.Name, m.Value, m.Unit, paper)
	}
}

func printErrors(w io.Writer, errs []string) {
	for _, e := range errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// reportTrace prints and returns one workload's per-layer results, and the
// values of perLayerDefs.
func reportTrace(w io.Writer, t *tracing) (workloadOutput, map[string]float64) {
	runs, errs := t.verdict()
	wo := workloadOutput{Name: t.w.name, GOMAXPROCS: t.w.gomaxprocs(), Runs: runs, FailedRuns: len(errs), Errors: errs}
	fmt.Fprintf(w, "\n%s  (GOMAXPROCS %d) — per-layer trace\n", wo.Name, wo.GOMAXPROCS)
	if t.run.err != nil || t.tr.err != nil {
		printErrors(w, errs)
		return wo, nil
	}
	tr := t.tr.res.Trace
	wo.ModelDigest, wo.Layers, wo.Model = tr.Digest, tr.Layers, t.run.res.Model
	values := perLayerValues(t)
	for _, d := range perLayerDefs {
		wo.Metrics = append(wo.Metrics, summarize(d.Name, d.Unit, []float64{values[d.Name]}))
	}

	match := "matches"
	if tr.Digest != t.run.res.Digest {
		match = "DIFFERS from"
	}
	fmt.Fprintf(w, "  replay digest %.16s %s the engine's\n", tr.Digest, match)
	fmt.Fprintf(w, "  replay wall %.4f s untraced, %.4f s traced: tracing overhead %+.1f%% (%d pairs)\n",
		tr.WallS, tr.TracedS, values["trace.overhead_pct"], tr.Pairs)
	if t.w.kind == kindScenario {
		fmt.Fprintf(w, "  past generation and routing the engine is not public: %.1f%% of its wall is the residual\n",
			values["share.unattributed"])
	} else {
		fmt.Fprintf(w, "  layer self times sum to %.1f%% of the untraced replay wall (target 90-110%%)\n",
			100-values["share.unattributed"])
	}
	fmt.Fprintf(w, "  %-26s %12s %12s %10s %7s\n", "layer", "calls", "self ms", "ns/call", "share")
	for _, l := range tr.Layers {
		fmt.Fprintf(w, "  %-26s %12d %12.2f %10.1f %6.1f%%\n", l.Name, l.Calls, l.SelfMS, l.NSPerCall(), pct(l.SelfMS/1e3, tr.WallS))
	}
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-28s %16.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
	printModel(w, wo.Model)
	printErrors(w, errs)
	return wo, values
}

// pct is part/whole in percent, 0 for an empty whole.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// perLayerValues computes perLayerDefs for one traced workload; a metric
// of a layer the workload never calls is 0.
func perLayerValues(t *tracing) map[string]float64 {
	tr, run := t.tr.res.Trace, t.run.res
	c := tr.Counts
	v := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		v[d.Name] = 0
	}
	wallMS := tr.WallS * 1e3
	attributed := 0.0
	for _, l := range tr.Layers {
		v["share."+l.Module] += pct(l.SelfMS, wallMS)
		attributed += l.SelfMS
		if l.Name == "stats.summarize" {
			v["stats.summarize_ms"] = l.SelfMS
		} else {
			v[l.Name+"_ns"] = l.NSPerCall()
		}
	}
	v["share.unattributed"] = pct(wallMS-attributed, wallMS)
	v["trace.wall_s"] = tr.WallS
	v["trace.overhead_pct"] = pct(tr.TracedS-tr.WallS, tr.WallS)
	if c.Scans > 0 {
		v["monitor.host_us_per_scan"] = float64(c.DaemonHostNS) / 1e3 / float64(c.Scans)
	}
	if c.GenNS > 0 {
		gen, route := float64(c.GenNS)/1e6, float64(c.RouteNS)/1e6
		v["cluster.gen_ms"], v["cluster.route_ms"] = gen, route
		v["cluster.run_residual_ms"] = wallMS - gen - route
	}
	v["go.alloc_b_per_op"] = float64(run.AllocBytes) / float64(max(1, c.Ops))
	v["go.gc_cycles"] = float64(run.GCCycles)
	v["cluster.parallelism"] = run.CPUS / run.WallS
	v["sim.ops"] = float64(c.Ops)
	k := c.Kernel
	v["kernel.minor_faults"] = float64(k.MinorFaults)
	v["kernel.major_faults"] = float64(k.MajorFaults)
	v["kernel.direct_reclaims"] = float64(k.DirectReclaims)
	v["kernel.kswapd_runs"] = float64(k.KswapdRuns)
	v["kernel.pages_reclaimed"] = float64(k.PagesReclaimed)
	v["kernel.swap_in"] = float64(k.PagesSwappedIn)
	v["kernel.swap_out"] = float64(k.PagesSwapOut)
	v["kernel.oom_kills"] = float64(k.OOMKills)
	v["core.premapped_ratio"] = ratio(c.PreMapped, c.Inserts)
	v["monitor.scans"] = float64(c.Scans)
	v["monitor.pages_per_scan"] = ratio(c.PagesReleased, c.Scans)
	v["batch.jobs"] = float64(c.Jobs)
	v["cluster.retries"] = float64(c.Retries)
	v["cluster.hedges"] = float64(c.Hedges)
	v["cluster.timeouts"] = float64(c.Timeouts)
	v["cluster.errors"] = float64(c.Errors)
	v["cluster.shed"] = float64(c.Shed)
	v["cluster.failed"] = float64(c.Failed)
	// Experiments serve every operation they issue.
	attempts := c.Ops
	if c.Clients > 0 {
		attempts = c.Clients + c.Retries + c.Hedges
	}
	v["cluster.served_per_attempt"] = ratio(c.Ops, attempts)
	return v
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceFile is what -trace FILE writes: every workload's layer breakdown
// and the sampled spans of its last traced replay.
type traceFile struct {
	Manifest  manifest            `json:"manifest"`
	Workloads []traceFileWorkload `json:"workloads"`
}

type traceFileWorkload struct {
	Name   string      `json:"name"`
	Seed   uint64      `json:"seed"`
	Layers []layerStat `json:"layers"`
	Spans  []span      `json:"spans"`
}

// appendSet appends set to the JSON list in path, creating the file.
func appendSet(path string, set setOutput) error {
	var sets []setOutput
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &sets); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	return writeJSON(path, append(sets, set))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
