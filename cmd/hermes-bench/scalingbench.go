package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	hermes "github.com/hermes-sim/hermes"
	"github.com/hermes-sim/hermes/internal/stats"
)

// -bench-scaling measures the parallel cluster engine's multi-core scaling
// curve: for each fleet size, the identical workload runs through
// Cluster.Run once per GOMAXPROCS point — timing the engine Run dispatches
// to at that core count — and the file records wall clock, aggregate
// throughput and speedup versus the 1-core point. Before timing anything,
// each fleet verifies that the parallel engine's report is bit-identical to
// the sequential oracle's — the scaling curve is only worth committing if
// the virtual-time results it belongs to are the contractual ones.
//
// The file also records host_cpus and marks every point whose GOMAXPROCS
// exceeds the host's CPU count as saturated: on a 2-CPU container the 4-
// and 8-core points physically cannot scale past ~2×, and the committed
// file must say so rather than let a flat tail read as an engine defect.

// scalingBenchConfig carries the -bench-scaling invocation.
type scalingBenchConfig struct {
	path       string
	cores      string
	fleets     string
	requests   int64
	reps       int
	minSpeedup float64
	seed       uint64
}

// scalingPoint is one (fleet, cores) measurement.
type scalingPoint struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	WallMS     float64 `json:"wall_ms"` // median of reps
	WallMinMS  float64 `json:"wall_min_ms"`
	WallMaxMS  float64 `json:"wall_max_ms"`
	ReqsPerSec float64 `json:"reqs_per_sec"`
	Speedup    float64 `json:"speedup_vs_1core"`
	Saturated  bool    `json:"saturated"` // gomaxprocs exceeds host_cpus
}

// scalingFleet is one node-count row of the curve.
type scalingFleet struct {
	Nodes  int `json:"nodes"`
	Shards int `json:"shards"`
	// BitIdentical records the parallel-vs-sequential report equivalence
	// check that preceded the timed points.
	BitIdentical bool           `json:"bit_identical_vs_sequential"`
	Points       []scalingPoint `json:"points"`
}

// scalingFile is the -bench-scaling JSON document.
type scalingFile struct {
	Generated  string         `json:"generated"`
	HostCPUs   int            `json:"host_cpus"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	Requests   int64          `json:"requests"`
	RatePerSec float64        `json:"rate_per_sec"`
	Seed       uint64         `json:"seed"`
	Reps       int            `json:"reps"`
	Note       string         `json:"note,omitempty"`
	Fleets     []scalingFleet `json:"fleets"`
}

func parseIntList(s, name string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad %s element %q: want positive integers", name, f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s list", name)
	}
	return out, nil
}

// parseCores parses -scaling-cores into ascending, distinct core counts.
// Every speedup is taken against the 1-core point, so the list must hold 1.
func parseCores(s string) ([]int, error) {
	cores, err := parseIntList(s, "-scaling-cores")
	if err != nil {
		return nil, err
	}
	slices.Sort(cores)
	cores = slices.Compact(cores)
	if cores[0] != 1 {
		return nil, fmt.Errorf("-scaling-cores %q lacks 1: every speedup is measured against the 1-core point", s)
	}
	return cores, nil
}

func runScalingBench(cfg scalingBenchConfig) error {
	cores, err := parseCores(cfg.cores)
	if err != nil {
		return err
	}
	fleets, err := parseIntList(cfg.fleets, "-scaling-fleets")
	if err != nil {
		return err
	}
	if cfg.reps < 1 {
		cfg.reps = 1
	}
	hostCPUs := runtime.NumCPU()
	out := scalingFile{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		HostCPUs:   hostCPUs,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Requests:   cfg.requests,
		RatePerSec: hermes.DefaultLoadConfig().RatePerSec,
		Seed:       cfg.seed,
		Reps:       cfg.reps,
	}
	if cores[len(cores)-1] > hostCPUs {
		out.Note = fmt.Sprintf("host has %d CPUs: points above %d cores are saturated and cannot scale further; rerun on a wider host for the full curve", hostCPUs, hostCPUs)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, nodes := range fleets {
		ccfg := hermes.DefaultClusterConfig()
		ccfg.Nodes = nodes
		ccfg.Shards = 2 * nodes
		ccfg.Seed = cfg.seed
		load := hermes.DefaultLoadConfig()
		load.Requests = cfg.requests
		load.Seed = cfg.seed
		if err := ccfg.Validate(); err != nil {
			return err
		}

		// Equivalence first, with raw (exact) digests: the timed points
		// below only count if the parallel engine still reproduces the
		// sequential oracle's report bit for bit.
		fl := scalingFleet{Nodes: nodes, Shards: ccfg.Shards}
		{
			run := func(sequential bool) hermes.ClusterReport {
				c := ccfg
				c.Stats = hermes.StatsRaw
				c.Sequential = sequential
				cl := hermes.NewCluster(c)
				defer cl.Close()
				return cl.Run(load)
			}
			seqRep, parRep := run(true), run(false)
			fl.BitIdentical = reflect.DeepEqual(seqRep, parRep)
			if !fl.BitIdentical {
				return fmt.Errorf("bench-scaling %d nodes: parallel report differs from sequential:\nseq %v\npar %v",
					nodes, seqRep.Cluster, parRep.Cluster)
			}
		}

		fmt.Printf("bench-scaling %d nodes × %d shards, %d requests (bit-identical vs sequential):\n",
			nodes, ccfg.Shards, cfg.requests)
		var oneCore float64
		for _, n := range cores {
			runtime.GOMAXPROCS(n)
			c := ccfg
			c.Stats = hermes.StatsHistogram
			walls := make([]float64, cfg.reps)
			for i := range walls {
				cl := hermes.NewCluster(c)
				start := time.Now()
				rep := cl.Run(load)
				walls[i] = ms(time.Since(start))
				cl.Close()
				if rep.Requests != cfg.requests {
					return fmt.Errorf("bench-scaling served %d requests, want %d", rep.Requests, cfg.requests)
				}
			}
			med, lo, hi := stats.MedianSpread(walls)
			if n == 1 {
				oneCore = med // parseCores puts the 1-core point first
			}
			pt := scalingPoint{
				GoMaxProcs: n,
				WallMS:     med,
				WallMinMS:  lo,
				WallMaxMS:  hi,
				ReqsPerSec: float64(cfg.requests) / (med / 1000),
				Speedup:    oneCore / med,
				Saturated:  n > hostCPUs,
			}
			note := ""
			if pt.Saturated {
				note = "  (saturated: exceeds host CPUs)"
			}
			fmt.Printf("  %2d cores  %8.1f ms  [%.1f–%.1f]  %10.0f req/s  speedup %.2fx%s\n",
				n, pt.WallMS, pt.WallMinMS, pt.WallMaxMS, pt.ReqsPerSec, pt.Speedup, note)
			fl.Points = append(fl.Points, pt)
		}
		out.Fleets = append(out.Fleets, fl)
	}

	if cfg.minSpeedup > 0 {
		for _, fl := range out.Fleets {
			best := 0.0
			for _, pt := range fl.Points {
				if pt.GoMaxProcs > 1 && pt.Speedup > best {
					best = pt.Speedup
				}
			}
			if best < cfg.minSpeedup {
				return fmt.Errorf("bench-scaling %d nodes: best multi-core speedup %.2fx below the -scaling-min-speedup %.2fx gate", fl.Nodes, best, cfg.minSpeedup)
			}
		}
	}

	f, err := os.Create(cfg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := writeJSON(f, out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", cfg.path)
	return nil
}
