package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/hermes-sim/hermes/internal/stats"
)

// childEnv marks a process as a benchmark child; the parent sets it on
// every child it starts.
const childEnv = "HERMES_BENCH_CHILD"

const (
	// minReps keeps a budgeted run's quartiles meaningful when one rep is
	// long against the budget.
	minReps = 3
	// childTimeout kills a hung child so a run always ends.
	childTimeout = 150 * time.Second
)

// parent starts the children of one invocation, one at a time.
type parent struct {
	self string
	seed uint64
	size float64
	root string
}

// child is one child process as the parent saw it.
type child struct {
	res     childResult
	elapsed time.Duration // start to exit; for a timed rep, with the probe after it
	err     error         // failed to start, exited non-zero, or reported Err
	// speed is the host's slowdown factor around a timed child (the
	// geometric mean of the probes before and after it); 0 when unprobed.
	speed float64
}

// spawn runs one child to completion at the workload's GOMAXPROCS. The
// child is killed when ctx is done.
func (p *parent) spawn(ctx context.Context, w *spec, role string, until time.Duration, spans bool) child {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, p.self,
		"-child", role, "-workload", w.name,
		"-seed", strconv.FormatUint(p.seed, 10),
		"-size", strconv.FormatFloat(p.size, 'g', -1, 64),
		"-root", p.root,
		"-seconds", strconv.FormatFloat(until.Seconds(), 'g', -1, 64),
		"-spans="+strconv.FormatBool(spans))
	cmd.Env = append(os.Environ(), childEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", w.gomaxprocs()))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	start := time.Now()
	// The child measures its set-up from this instant, so it is the last
	// argument appended before the process starts.
	cmd.Args = append(cmd.Args, "-t0", strconv.FormatInt(start.UnixNano(), 10))
	runErr := cmd.Run()
	c := child{elapsed: time.Since(start)}
	if err := json.Unmarshal(lastLine(out.Bytes()), &c.res); err != nil && runErr == nil {
		runErr = fmt.Errorf("unreadable result: %w", err)
	}
	switch {
	case c.res.Err != "":
		c.err = fmt.Errorf("%s %s: %s", w.name, role, c.res.Err)
	case runErr != nil:
		c.err = fmt.Errorf("%s %s: %w", w.name, role, runErr)
	}
	return c
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// timing is one workload's timed reps and its sequential oracle.
type timing struct {
	w      *spec
	reps   []child
	oracle *child
}

// timeSet runs every workload's oracle, then its reps, round-robin across
// workloads with the order reversed on every round. With a budget, a
// workload gets reps while another one fits (at least minReps); without,
// it gets exactly reps. It stops early when ctx is done.
func (p *parent) timeSet(ctx context.Context, ws []*spec, reps int, budget time.Duration) []*timing {
	start := time.Now()
	pr := newProbe()
	ts := make([]*timing, len(ws))
	for i, w := range ws {
		ts[i] = &timing{w: w}
		if w.input != nil {
			o := p.spawn(ctx, w, "oracle", 0, false)
			ts[i].oracle = &o
		}
	}
	// The probe between two children serves both: it is the first one's
	// after and the second one's before.
	last := pr.factor()
	for round := 0; ; round++ {
		order := slices.Clone(ts)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		ran := false
		for _, t := range order {
			if budget > 0 {
				if len(t.reps) >= minReps && time.Since(start)+t.typicalRep() > budget {
					continue
				}
			} else if len(t.reps) >= reps {
				continue
			}
			repStart := time.Now()
			c := p.spawn(ctx, t.w, "run", 0, false)
			after := pr.factor()
			c.speed = math.Sqrt(last * after)
			c.elapsed = time.Since(repStart)
			last = after
			t.reps = append(t.reps, c)
			ran = true
		}
		if !ran || ctx.Err() != nil {
			return ts
		}
	}
}

// typicalRep is the median lifetime of the workload's children so far.
func (t *timing) typicalRep() time.Duration {
	var xs []float64
	for _, c := range t.reps {
		xs = append(xs, float64(c.elapsed))
	}
	return time.Duration(stats.Median(xs))
}

// verdict applies the correctness gates: every run succeeded, and every
// rep and the oracle produced the same model digest.
func (t *timing) verdict() (digest string, runs int, errs []string) {
	all := t.reps
	if t.oracle != nil {
		all = append(slices.Clone(t.reps), *t.oracle)
	}
	for _, c := range all {
		if c.err == nil {
			digest = c.res.Digest
			break
		}
	}
	for i, c := range all {
		switch {
		case c.err != nil:
			errs = append(errs, c.err.Error())
		case c.res.Digest != digest:
			what := fmt.Sprintf("rep %d", i+1)
			if i == len(t.reps) {
				what = "the sequential oracle"
			}
			errs = append(errs, fmt.Sprintf("%s: %s's model digest %.12s differs from %.12s", t.w.name, what, c.res.Digest, digest))
		}
	}
	return digest, len(all), errs
}

// metrics summarizes the end-to-end metrics over the successful reps,
// then the raw walls and the host speed they were normalized by. Times
// are divided by the host's slowdown factor around each rep.
func (t *timing) metrics() []metricSummary {
	var wall, setup, rss, raw, speed []float64
	for _, c := range t.reps {
		if c.err != nil {
			continue
		}
		wall = append(wall, c.res.WallS/c.speed)
		setup = append(setup, c.res.SetupS/c.speed)
		rss = append(rss, c.res.PeakRSSMB)
		raw = append(raw, c.res.WallS)
		speed = append(speed, c.speed)
	}
	return []metricSummary{
		summarize("wall_s", "s", wall),
		summarize("setup_s", "s", setup),
		summarize("peak_rss_mb", "MB", rss),
		summarize("raw_wall_s", "s", raw),
		summarize("host_slowdown", "x", speed),
	}
}

// model returns the simulated-time block of the first successful rep.
func (t *timing) model() []modelValue {
	for _, c := range t.reps {
		if c.err == nil {
			return c.res.Model
		}
	}
	return nil
}

// metricSummary is one metric over a set of runs.
type metricSummary struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// summarize is the median and quartiles of xs (linear interpolation between
// closest ranks). Fewer than eleven values carry no meaningful tail, so no
// higher percentile is reported.
func summarize(name, unit string, xs []float64) metricSummary {
	return metricSummary{Name: name, Unit: unit, N: len(xs),
		Median: stats.Quantile(xs, 0.5), P25: stats.Quantile(xs, 0.25), P75: stats.Quantile(xs, 0.75)}
}

// tracing is one workload's untraced engine run and its trace child.
type tracing struct {
	w   *spec
	run child
	tr  child
}

// traceOne runs the engine once untraced, for the Go runtime metrics and
// the engine's digest, then a trace child for what remains of the budget.
func (p *parent) traceOne(ctx context.Context, w *spec, budget time.Duration, spans bool) *tracing {
	start := time.Now()
	t := &tracing{w: w, run: p.spawn(ctx, w, "run", 0, false)}
	t.tr = p.spawn(ctx, w, "trace", max(0, budget-time.Since(start)), spans)
	return t
}

// verdict applies the trace gates: both children succeeded and the
// replay's digest equals the engine's.
func (t *tracing) verdict() (runs int, errs []string) {
	for _, c := range []child{t.run, t.tr} {
		if c.err != nil {
			errs = append(errs, c.err.Error())
		}
	}
	if len(errs) == 0 && t.tr.res.Trace.Digest != t.run.res.Digest {
		errs = append(errs, fmt.Sprintf("%s: replay digest %.12s differs from the engine's %.12s",
			t.w.name, t.tr.res.Trace.Digest, t.run.res.Digest))
	}
	return 2, errs
}

// manifest identifies the host and code a result came from.
type manifest struct {
	CPU        string         `json:"cpu"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Rev        string         `json:"rev"`
}

func newManifest(root string) manifest {
	m := manifest{CPU: cpuModel(), NProc: runtime.NumCPU(), Go: runtime.Version(),
		Rev: gitRev(root), GOMAXPROCS: map[string]int{}}
	for _, w := range specs {
		m.GOMAXPROCS[w.name] = w.gomaxprocs()
	}
	return m
}

// cpuModel is the first model name in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev reads the checked-out commit from the repository's .git
// directory, or "unknown" outside a git checkout.
func gitRev(root string) string {
	git := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(git, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(git, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}
