package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/cluster"
	"github.com/hermes-sim/hermes/internal/experiments"
	"github.com/hermes-sim/hermes/internal/metrics"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// kind selects a workload's public entry call, and so how it is replayed.
type kind int

const (
	kindFlat     kind = iota // Cluster.Run of a flat open-loop load
	kindScenario             // Cluster.RunScenario of a committed preset
	kindFig7                 // experiments.Fig7, then Render
	kindTable1               // experiments.Table1, then Render
)

// spec is one benchmark workload. Every workload is closed-loop: one child
// process runs the entry call once and exits.
type spec struct {
	name string
	why  string
	// procs is the GOMAXPROCS every child of the workload runs at.
	procs int
	kind  kind
	// input builds a cluster workload's configuration and load from the
	// seed; size scales the load (1 is the benchmark's size, tests shrink
	// it). root is the repository root, where presets live.
	input func(seed uint64, size float64, root string) (clusterInput, error)
}

// clusterInput is everything a cluster workload's child builds before the
// timed call.
type clusterInput struct {
	cfg cluster.Config
	// warmup is virtual time the fleet runs before the load (batch ramp,
	// Hermes reservations); it is part of the timed call.
	warmup simtime.Duration
	load   workload.LoadConfig // kindFlat
	scn    workload.Scenario   // kindScenario
}

// Workload sizes. Each timed call takes one to two seconds on a 2-vCPU
// host, so a 20 s run of the benchmark fits eight or more reps; a run with
// three reps of the paper-sized Fig 7 (4 s each) spread twice as wide.
const (
	flatRequests  = 2_000_000
	colocRequests = 1_600_000
	colocWarmup   = 6 * simtime.Second
	colocNodeMem  = int64(4) << 30
	fig7Share     = 0.5  // of FullScale's 1 GiB per cell
	table1Hours   = 0.03 // quick scale's window is 0.5 h
	brownoutFile  = "examples/scenarios/brownout.json"
)

var specs = []*spec{
	{
		name: "flat-8n", procs: 2, kind: kindFlat, input: flatInput,
		why: "the hot path every other workload builds on: generation, routing, services, jitter and stats, with no reclaim, daemon or resilience work",
	},
	{
		name: "flat-8n-1core", procs: 1, kind: kindFlat, input: flatInput,
		why: "the same input at GOMAXPROCS=1, which takes the partitioned engine path instead of the chunk pipeline",
	},
	{
		name: "coloc-hermes-8n", procs: 2, kind: kindFlat, input: colocInput,
		why: "the paper's co-location regime at fleet scale: hermes under batch co-tenants with the monitor daemon, so background machinery in simtime does real work",
	},
	{
		name: "brownout", procs: 2, kind: kindScenario, input: brownoutInput,
		why: "the resilience path: retries, hedges, the shed controller and the metrics stream, with an idle kernel",
	},
	{
		name: "micro-fig7", procs: 1, kind: kindFig7,
		why: "the paper's micro-benchmark (Fig 7): allocators and the kernel fault path with no cluster layer, plus the raw-sample sort",
	},
	{
		name: "table1-coloc", procs: 1, kind: kindTable1,
		why: "the paper's single-node co-location (Table 1): monitor scans over batch files dominate, which no other workload shows",
	},
}

// specByName returns the named workload.
func specByName(name string) (*spec, error) {
	for _, w := range specs {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// gomaxprocs is the workload's GOMAXPROCS, clamped to the host's CPUs.
func (w *spec) gomaxprocs() int {
	return min(w.procs, runtime.NumCPU())
}

// scaled returns max(1, n·size) for request budgets.
func scaled(n int64, size float64) int64 {
	return max(1, int64(float64(n)*size))
}

// flatInput is cluster.DefaultConfig's 8 nodes × 16 Redis shards on glibc
// with raw stats, driven by DefaultLoadConfig.
func flatInput(seed uint64, size float64, _ string) (clusterInput, error) {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	cfg.Stats = cluster.StatsRaw
	load := workload.DefaultLoadConfig()
	load.Requests = scaled(flatRequests, size)
	load.Seed = seed
	return clusterInput{cfg: cfg, load: load}, nil
}

// colocInput is the examples/cluster flagship on hermes: 8 nodes × 32
// shards of 4 GB, batch co-tenants at 100% of memory, the monitor daemon,
// and a 6 s virtual warm-up before the load.
func colocInput(seed uint64, size float64, _ string) (clusterInput, error) {
	cfg := cluster.DefaultConfig()
	cfg.Shards = 32
	cfg.Allocator = cluster.AllocHermes
	cfg.Kernel.TotalMemory = colocNodeMem
	cfg.Kernel.SwapBytes = colocNodeMem
	cfg.Seed = seed
	b := batch.DefaultConfig()
	b.TargetBytes = colocNodeMem
	b.InputBytes = colocNodeMem / 16
	b.WorkDuration = 20 * simtime.Second
	b.RampTicks = 10
	cfg.Batch = &b
	d := monitor.DefaultConfig()
	cfg.Daemon = &d
	load := workload.DefaultLoadConfig()
	load.Requests = scaled(colocRequests, size)
	load.Keys = 200_000
	load.ValueBytes = 4096
	load.Start = simtime.Time(colocWarmup)
	load.Seed = seed
	return clusterInput{cfg: cfg, warmup: colocWarmup, load: load}, nil
}

// brownoutInput loads the committed brownout preset with the seed pinned
// into both the scenario and the fleet, collecting metrics at 100 ms
// windows as SLO users run it.
func brownoutInput(seed uint64, size float64, root string) (clusterInput, error) {
	data, err := os.ReadFile(filepath.Join(root, brownoutFile))
	if err != nil {
		return clusterInput{}, err
	}
	sp, err := cluster.ParseScenarioSpec(data)
	if err != nil {
		return clusterInput{}, err
	}
	cfg, err := sp.Overrides.Apply(cluster.DefaultConfig())
	if err != nil {
		return clusterInput{}, err
	}
	scn := sp.Scenario
	if size != 1 {
		scn = scn.Scaled(size)
	}
	scn.Seed = seed
	cfg.Seed = seed
	cfg.Metrics = &metrics.Config{Period: 100 * simtime.Millisecond}
	return clusterInput{cfg: cfg, scn: scn}, nil
}

// fig7Scale is the paper's micro-benchmark at half its size: 512 MiB of
// 1 KiB mallocs per cell.
func fig7Scale(size float64) experiments.Scale {
	s := experiments.FullScale()
	s.MicroTotalBytes = max(4<<10, int64(float64(s.MicroTotalBytes)*fig7Share*size))
	return s
}

// table1Scale is quick scale with a shortened co-location window; job
// durations scale with the window, so job counts keep their meaning.
func table1Scale(size float64) experiments.Scale {
	s := experiments.QuickScale()
	s.BatchHours = table1Hours * size
	return s
}
