// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2, §5). Each Fig*/Table* function runs the corresponding
// experiment on the simulated testbed and returns a structured result with
// a Render method producing the rows/series the paper reports. The
// experiment index lives in DESIGN.md §3.
package experiments

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/alloc/glibcmalloc"
	"github.com/hermes-sim/hermes/internal/alloc/jemalloc"
	"github.com/hermes-sim/hermes/internal/alloc/tcmalloc"
	"github.com/hermes-sim/hermes/internal/core"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
)

// Scale selects experiment fidelity: benchmarks run the paper-sized
// workloads; tests run shrunken ones with identical structure.
type Scale struct {
	// Name tags rendered output.
	Name string
	// MicroTotalBytes is the micro-benchmark's total requested memory
	// (paper: 1 GB).
	MicroTotalBytes int64
	// ServiceInsertBytes is the per-run inserted data volume for the
	// Redis/RocksDB experiments (paper: 2 GB).
	ServiceInsertBytes int64
	// NodeMemory/NodeSwap size the simulated node for service and batch
	// experiments (micro experiments always use the paper's 128 GB node).
	NodeMemory int64
	NodeSwap   int64
	// BatchHours is the co-location window for Table 1 (paper: 24 h).
	BatchHours float64
}

// FullScale reproduces the paper's workload sizes. The service/batch node
// is scaled to 8 GB (with workloads scaled in proportion) and the Table 1
// co-location window to 6 hours (job durations scale with the window, so
// throughput ratios are preserved) to keep the discrete-event count
// tractable; all comparisons are relative, so shapes are preserved (see
// DESIGN.md §1).
func FullScale() Scale {
	return Scale{
		Name:               "full",
		MicroTotalBytes:    1 << 30,
		ServiceInsertBytes: 256 << 20,
		NodeMemory:         8 << 30,
		NodeSwap:           8 << 30,
		BatchHours:         6,
	}
}

// QuickScale is the CI-friendly variant used by `go test`.
func QuickScale() Scale {
	return Scale{
		Name:               "quick",
		MicroTotalBytes:    48 << 20,
		ServiceInsertBytes: 24 << 20,
		NodeMemory:         2 << 30,
		NodeSwap:           2 << 30,
		BatchHours:         0.5,
	}
}

// microConfig is the paper's testbed for micro-benchmarks, seeded: 128 GB
// DRAM, 64 GB HDD swap.
func microConfig(seed uint64) kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// serviceNode builds the scaled node for service/batch experiments.
func serviceNode(scale Scale, seed uint64) (*kernel.Kernel, *simtime.Scheduler) {
	s := simtime.NewScheduler()
	cfg := kernel.DefaultConfig()
	cfg.TotalMemory = scale.NodeMemory
	cfg.SwapBytes = scale.NodeSwap
	cfg.Seed = seed
	return kernel.New(s, cfg), s
}

// AllocKind names the allocator configurations compared in the evaluation.
type AllocKind string

// The four allocators of §5 plus the proactive-reclamation ablation.
const (
	KindGlibc       AllocKind = "Glibc"
	KindHermes      AllocKind = "Hermes"
	KindHermesNoRec AllocKind = "Hermes w/o rec"
	KindJemalloc    AllocKind = "jemalloc"
	KindTCMalloc    AllocKind = "TCMalloc"
)

// AllAllocKinds is the comparison set of Figures 7–14.
var AllAllocKinds = []AllocKind{KindHermes, KindGlibc, KindJemalloc, KindTCMalloc}

// allocEnv is an allocator plus its node-side support (registry, daemon).
type allocEnv struct {
	a      alloc.Allocator
	reg    *monitor.Registry
	daemon *monitor.Daemon
	hermes *core.Hermes
}

func (e *allocEnv) close() {
	if e.daemon != nil {
		e.daemon.Stop()
	}
	e.a.Close()
}

// newAllocEnv instantiates the allocator under test, with an optional
// Hermes configuration override (the sensitivity and ablation experiments
// sweep it). For Hermes the monitor daemon runs too (proactive
// reclamation) unless the "w/o rec" ablation is selected; batchPIDs are the
// co-tenant processes whose files the daemon may release.
func newAllocEnv(k *kernel.Kernel, kind AllocKind, name string, batchPIDs []kernel.PID, hermesCfg *core.Config) *allocEnv {
	env := &allocEnv{}
	switch kind {
	case KindGlibc:
		env.a = glibcmalloc.New(k, name, glibcmalloc.DefaultConfig())
	case KindJemalloc:
		env.a = jemalloc.New(k, name, jemalloc.DefaultConfig())
	case KindTCMalloc:
		env.a = tcmalloc.New(k, name, tcmalloc.DefaultConfig())
	case KindHermes, KindHermesNoRec:
		cfg := core.DefaultConfig()
		if hermesCfg != nil {
			cfg = *hermesCfg
		}
		env.reg = monitor.NewRegistry()
		h := core.NewWithRegistry(k, name, cfg, env.reg, true)
		env.hermes = h
		env.a = h
		if kind == KindHermes {
			for _, pid := range batchPIDs {
				env.reg.AddBatch(pid)
			}
			env.daemon = monitor.NewDaemon(k, env.reg, monitor.DefaultConfig())
		}
	default:
		panic(fmt.Sprintf("experiments: unknown allocator kind %q", kind))
	}
	return env
}

// Scenario names the three micro-benchmark memory regimes of Figure 3.
type Scenario string

// The three regimes.
const (
	ScenarioDedicated Scenario = "dedicated"
	ScenarioAnon      Scenario = "anon"
	ScenarioFile      Scenario = "file"
)

// AllScenarios is the Figure 7/8 scenario sweep.
var AllScenarios = []Scenario{ScenarioDedicated, ScenarioAnon, ScenarioFile}

// MicroPressure returns the scenario's Figure 3 pressure generator, or
// ok=false on a dedicated system. The residual free buffer scales with the
// benchmark's total demand so shrunken runs drain it and reach the
// reclaim-backed regime just as the paper-sized runs do (300 MB for the
// 1 GB benchmark).
func MicroPressure(scenario Scenario, benchBytes int64) (cfg workload.PressureConfig, ok bool) {
	var kind workload.PressureKind
	switch scenario {
	case ScenarioDedicated:
		return workload.PressureConfig{}, false
	case ScenarioAnon:
		kind = workload.PressureAnon
	case ScenarioFile:
		kind = workload.PressureFile
	default:
		panic(fmt.Sprintf("experiments: unknown scenario %q", scenario))
	}
	cfg = workload.DefaultPressureConfig(kind)
	cfg.FreeBytes = int64(float64(cfg.FreeBytes) * float64(benchBytes) / float64(1<<30))
	if cfg.FreeBytes < 4<<20 {
		cfg.FreeBytes = 4 << 20
	}
	return cfg, true
}

// MicroCell is one §5.2 micro-benchmark cell: a node booted from a kernel
// config, the scenario's pressure generator sized to the benchmark (none on
// a dedicated system) and the allocator under test, with the generator's
// process registered as a batch co-tenant the monitor daemon may reclaim
// from.
type MicroCell struct {
	Kernel     *kernel.Kernel
	Sched      *simtime.Scheduler
	pressure   *workload.Pressure
	env        *allocEnv
	benchBytes int64
}

// NewMicroCell sets up a cell for a benchmark of benchBytes. hermesCfg
// optionally overrides the Hermes configuration. Run drives the paper's
// benchmark; callers with their own request loop warm up themselves.
func NewMicroCell(kcfg kernel.Config, kind AllocKind, scenario Scenario, benchBytes int64, hermesCfg *core.Config) *MicroCell {
	s := simtime.NewScheduler()
	c := &MicroCell{Kernel: kernel.New(s, kcfg), Sched: s, benchBytes: benchBytes}
	var batchPIDs []kernel.PID
	if pcfg, ok := MicroPressure(scenario, benchBytes); ok {
		c.pressure = workload.StartPressure(c.Kernel, pcfg)
		batchPIDs = []kernel.PID{c.pressure.PID()}
	}
	c.env = newAllocEnv(c.Kernel, kind, "microbench", batchPIDs, hermesCfg)
	return c
}

// Allocator is the allocator under test.
func (c *MicroCell) Allocator() alloc.Allocator { return c.env.a }

// Run lets background machinery settle (management thread warm-up,
// kswapd's first reaction to the pressure fill), drives benchBytes of
// reqSize mallocs into rec, stops the pressure and checks the kernel's
// invariants.
func (c *MicroCell) Run(reqSize int64, rec *stats.Recorder) {
	c.Sched.Advance(20 * simtime.Millisecond)
	workload.RunMicroBench(c.Kernel, c.env.a, workload.MicroBenchConfig{
		RequestSize: reqSize,
		TotalBytes:  c.benchBytes,
	}, rec)
	c.stopPressure()
	c.Kernel.CheckInvariants()
}

// Close stops the pressure, the daemon and the allocator.
func (c *MicroCell) Close() {
	c.stopPressure()
	c.env.close()
}

func (c *MicroCell) stopPressure() {
	if c.pressure != nil {
		c.pressure.Stop()
		c.pressure = nil
	}
}

// seriesName renders the paper's curve labels ("Hermes+anon", "Glibc").
func seriesName(kind AllocKind, scenario Scenario) string {
	if scenario == ScenarioDedicated {
		return string(kind)
	}
	return string(kind) + "+" + string(scenario)
}
