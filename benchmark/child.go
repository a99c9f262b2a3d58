package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hermes-sim/hermes/internal/cluster"
	"github.com/hermes-sim/hermes/internal/experiments"
	"github.com/hermes-sim/hermes/internal/workload"
)

// childResult is what one child process reports, as the last line of its
// standard output.
type childResult struct {
	// Digest is the canonical model digest of the run's output; every run
	// of one seed must produce the same one.
	Digest string `json:"digest"`
	// SetupS is host time from the parent starting the child to the timed
	// call: process start, package init, input parsing, cluster.New.
	SetupS float64 `json:"setup_s"`
	// WallS and CPUS are the timed call's host wall and CPU time.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// PeakRSSMB is the child's peak resident set.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// AllocBytes and GCCycles are the Go heap allocation and collections
	// during the timed call.
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`
	// Model holds simulated-time observables of the output.
	Model []modelValue `json:"model,omitempty"`
	// Trace is the per-layer breakdown of a trace child.
	Trace *traceResult `json:"trace,omitempty"`
	// Err is set when the run panicked, errored or failed a gate.
	Err string `json:"err,omitempty"`
}

// modelValue is one simulated-time observable: a number the simulated
// fleet produced, printed next to the host-time metrics and never gated.
type modelValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Paper is the paper's number for the same quantity, when it has one.
	Paper string `json:"paper,omitempty"`
}

// childOptions is what the parent tells a child.
type childOptions struct {
	role  string // "run", "oracle" or "trace"
	seed  uint64
	size  float64
	root  string
	t0    int64         // parent's wall clock at spawn, Unix ns
	until time.Duration // trace children: host-time budget for replays
	spans bool          // trace children: return the sampled spans
}

// runChild executes one child role and never panics: a panic on the
// calling goroutine becomes the result's Err.
func runChild(w *spec, o childOptions) (res childResult) {
	defer func() {
		if r := recover(); r != nil {
			res = childResult{Err: fmt.Sprint("panic: ", r)}
		}
	}()
	var err error
	switch o.role {
	case "run":
		res, err = runEngine(w, o, false)
	case "oracle":
		res, err = runEngine(w, o, true)
	case "trace":
		res, err = runTrace(w, o)
	default:
		err = fmt.Errorf("unknown child role %q", o.role)
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// runEngine builds the workload's inputs, times its public entry call, and
// checks the output. sequential selects the cluster's single-goroutine
// engine: the oracle every other engine must match bit for bit.
func runEngine(w *spec, o childOptions, sequential bool) (childResult, error) {
	var res childResult
	var in clusterInput
	var c *cluster.Cluster
	if w.input != nil {
		var err error
		if in, err = w.input(o.seed, o.size, o.root); err != nil {
			return res, err
		}
		in.cfg.Sequential = sequential
		if err := in.cfg.Validate(); err != nil {
			return res, err
		}
		c = cluster.New(in.cfg)
		defer c.Close()
	}
	res.SetupS = time.Duration(time.Now().UnixNano() - o.t0).Seconds()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	var out any
	var text string
	switch w.kind {
	case kindFlat:
		if in.warmup > 0 {
			c.Advance(in.warmup)
		}
		out = c.Run(in.load)
	case kindScenario:
		rep, err := c.RunScenario(in.scn)
		if err != nil {
			return res, err
		}
		out = rep
	case kindFig7:
		r := experiments.Fig7(fig7Scale(o.size), o.seed)
		text = r.Render()
		out = r
	case kindTable1:
		r := experiments.Table1(table1Scale(o.size), o.seed)
		text = r.Render()
		out = r
	}
	res.WallS = time.Since(start).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.GCCycles = m1.NumGC - m0.NumGC

	var err error
	switch r := out.(type) {
	case cluster.Report:
		res.Digest, err = digestJSON(r)
		res.Model = clusterModel(r)
	case cluster.ScenarioReport:
		res.Digest, err = digestJSON(r)
		res.Model = clusterModel(r.Report)
		if err == nil {
			err = checkConservation(r.Report, countClients(in.scn))
		}
	case experiments.MicroFigResult:
		res.Digest = digestText(text)
		res.Model = fig7Model(r)
	case experiments.Table1Result:
		res.Digest = digestText(text)
		res.Model = table1Model(r)
	}
	if err == nil && c != nil {
		err = checkNodes(c)
	}
	if err == nil {
		res.PeakRSSMB, err = peakRSSMB()
	}
	return res, err
}

// peakRSSMB is the process's peak resident set since exec, VmHWM in
// /proc/self/status. The rusage maximum would not do: Linux carries the
// spawning parent's resident set across the exec into it.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// digestJSON is the canonical model digest of a report: the sha256 of the
// indented JSON every CLI writes (map keys sorted by the encoder). Host
// times are not part of any report, so equal simulations digest equally.
func digestJSON(v any) (string, error) {
	var b bytes.Buffer
	if err := cluster.WriteReportJSON(&b, v); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestText(b.String()), nil
}

// digestText is the model digest of a rendered experiment.
func digestText(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checkNodes runs Kernel.CheckInvariants on every node.
func checkNodes(c *cluster.Cluster) (err error) {
	for _, n := range c.Nodes() {
		func() {
			defer func() {
				if r := recover(); r != nil && err == nil {
					err = fmt.Errorf("%s: %v", n.Name, r)
				}
			}()
			n.Kernel().CheckInvariants()
		}()
	}
	return err
}

// countClients counts the scenario's client requests: the stream before
// resilience expansion adds retries and hedges.
func countClients(scn workload.Scenario) int64 {
	d := workload.NewScenarioDriver(scn)
	for {
		if _, ok := d.Next(); !ok {
			return d.Emitted()
		}
	}
}

// checkConservation applies the chain-accounting identities of the
// resilience layer to a run without topology events. Every attempt fired
// (clients, retries, hedges) is shed, errors fast, or is served; each
// retry has one cause, an error or a timeout, except that an attempt shed
// before its error verdict still fires its retry; each chain succeeds at
// most once and otherwise fails or is shed. With no shedding and no hedges
// the bounds collapse to the exact identities TestResilienceConservationOracle
// pins.
func checkConservation(r cluster.Report, clients int64) error {
	if got, want := r.Requests, clients+r.Retries+r.Hedges-r.Shed-r.Errors; got != want {
		return fmt.Errorf("conservation: served %d, want clients(%d)+retries(%d)+hedges(%d)-shed(%d)-errors(%d) = %d",
			got, clients, r.Retries, r.Hedges, r.Shed, r.Errors, want)
	}
	if x := r.Retries - (r.Errors + r.Timeouts - r.Failed); x < 0 || x > r.Shed {
		return fmt.Errorf("conservation: retries(%d) - errors(%d) - timeouts(%d) + failed(%d) = %d, want within [0, shed=%d]",
			r.Retries, r.Errors, r.Timeouts, r.Failed, x, r.Shed)
	}
	if x := (clients - r.Failed) - (r.Requests - r.Hedges - r.Timeouts); x < 0 || x > r.Shed {
		return fmt.Errorf("conservation: %d chains neither succeeded nor failed, want within [0, shed=%d]", x, r.Shed)
	}
	var sum cluster.NodeReport
	for _, n := range r.PerNode {
		sum.Retries += n.Retries
		sum.Timeouts += n.Timeouts
		sum.Errors += n.Errors
		sum.Hedges += n.Hedges
		sum.Shed += n.Shed
		sum.Failed += n.Failed
	}
	if sum.Retries != r.Retries || sum.Timeouts != r.Timeouts || sum.Errors != r.Errors ||
		sum.Hedges != r.Hedges || sum.Shed != r.Shed || sum.Failed != r.Failed {
		return fmt.Errorf("conservation: per-node resilience columns do not sum to the cluster totals")
	}
	return nil
}

// us converts a simulated duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// clusterModel is the simulated-time block of a cluster report.
func clusterModel(r cluster.Report) []modelValue {
	m := []modelValue{
		{Name: "requests", Value: float64(r.Requests), Unit: "count"},
		{Name: "virtual_p50", Value: us(r.Cluster.P50), Unit: "us"},
		{Name: "virtual_p99", Value: us(r.Cluster.P99), Unit: "us"},
	}
	if r.SLOTarget > 0 {
		m = append(m,
			modelValue{Name: "slo_compliance", Value: r.SLOCompliance * 100, Unit: "%"},
			modelValue{Name: "shed", Value: float64(r.Shed), Unit: "count"},
			modelValue{Name: "failed", Value: float64(r.Failed), Unit: "count"},
		)
	}
	return m
}

// fig7Model is Hermes' latency reduction against Glibc, the best over the
// three regimes as the paper's abstract states it.
func fig7Model(r experiments.MicroFigResult) []modelValue {
	var m []modelValue
	for _, key := range []struct{ key, paper string }{{"avg", "up to 54.4"}, {"p99", "up to 62.4"}} {
		best := 0.0
		for _, sc := range r.Scenarios {
			red := r.Reduction(sc, key.key)
			best = max(best, red)
			m = append(m, modelValue{Name: fmt.Sprintf("hermes_vs_glibc_%s_%s", key.key, sc), Value: red, Unit: "%"})
		}
		m = append(m, modelValue{Name: "hermes_vs_glibc_" + key.key + "_best", Value: best, Unit: "%", Paper: key.paper})
	}
	return m
}

// table1Model is the batch-job throughput per co-location policy.
func table1Model(r experiments.Table1Result) []modelValue {
	paper := map[experiments.ServiceKind][]string{
		experiments.ServiceRedis:   {"212", "194", "123", "0"},
		experiments.ServiceRocksdb: {"380", "364", "267", "0"},
	}
	var m []modelValue
	for _, svc := range []experiments.ServiceKind{experiments.ServiceRedis, experiments.ServiceRocksdb} {
		for i, sc := range experiments.Table1Scenarios {
			m = append(m, modelValue{Name: fmt.Sprintf("jobs_%s_%s", svc, sc),
				Value: float64(r.Jobs[svc][sc]), Unit: "jobs", Paper: paper[svc][i]})
		}
	}
	return m
}
