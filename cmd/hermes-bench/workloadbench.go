package main

import (
	"fmt"
	"math"
	randv2 "math/rand/v2"
	"os"
	"runtime"
	"time"

	hermes "github.com/hermes-sim/hermes"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload/randgen"
)

// -bench-workload measures workload *generation* alone — no simulation —
// as the randgen samplers against the math/rand/v2 stdlib algorithms they
// replaced ("legacy" entries), for two draws:
//
//   - zipf+exp: the per-request draw pair (Zipf key, exponential gap);
//   - jitter:   the log-normal latency multiplier exp(σ·Z), drawn once per
//     served request by workload.Jitter.
//
// The full LoadDriver.Next loop is benchmarked by BenchmarkWorkloadDriver.
//
// Each measurement runs `-workload-reps` times (median reported), so one
// invocation of the harness produces the committed median-of-N trajectory
// without external scripting.

// workloadBenchConfig carries the -bench-workload invocation.
type workloadBenchConfig struct {
	path  string
	draws int64
	reps  int
	seed  uint64
}

// workloadEntry is one measured generator path.
type workloadEntry struct {
	Name    string  `json:"name"`
	Draws   int64   `json:"draws"`
	WallMS  float64 `json:"wall_ms"`
	NsPerOp float64 `json:"ns_per_op"`
}

// workloadComparison relates a legacy/fast entry pair.
type workloadComparison struct {
	Name    string  `json:"name"`
	Speedup float64 `json:"speedup"` // legacy wall / fast wall
}

// sinkGuard defeats dead-code elimination of the measured loops.
var sinkGuard float64

// medianWall runs f reps times and returns the median wall clock — the
// repo's bench discipline on its noisy single-core host, delegated to the
// stats package's shared median.
func medianWall(f func() time.Duration, reps int) time.Duration {
	walls := make([]time.Duration, reps)
	for i := range walls {
		walls[i] = f()
	}
	return stats.MedianDuration(walls)
}

func runWorkloadBench(cfg workloadBenchConfig) error {
	// Measure the distributions the simulator actually draws: the default
	// load's skew and the default cost model's jitter spread.
	zipfS := hermes.DefaultLoadConfig().ZipfS
	jitterSigma := kernel.DefaultConfig().Costs.JitterSigma

	keys := hermes.DefaultLoadConfig().Keys
	zipfExpLegacy := func() time.Duration {
		rng := randv2.New(randv2.NewPCG(cfg.seed, cfg.seed^0x9e3779b97f4a7c15))
		zipf := randv2.NewZipf(rng, zipfS, 1, uint64(keys-1))
		var sinkU uint64
		var sinkF float64
		start := time.Now()
		for i := int64(0); i < cfg.draws; i++ {
			sinkU += zipf.Uint64()
			sinkF += rng.ExpFloat64()
		}
		wall := time.Since(start)
		sinkGuard += float64(sinkU) + sinkF
		return wall
	}
	zipfExpFast := func() time.Duration {
		s := randgen.Split(cfg.seed, 0)
		zipf := randgen.NewZipf(s, zipfS, 1, uint64(keys-1))
		var sinkU uint64
		var sinkF float64
		start := time.Now()
		for i := int64(0); i < cfg.draws; i++ {
			sinkU += zipf.Uint64()
			sinkF += s.ExpFloat64()
		}
		wall := time.Since(start)
		sinkGuard += float64(sinkU) + sinkF
		return wall
	}

	jitterLegacy := func() time.Duration {
		rng := randv2.New(randv2.NewPCG(cfg.seed, cfg.seed^0x9e3779b97f4a7c15))
		var sink float64
		start := time.Now()
		for i := int64(0); i < cfg.draws; i++ {
			sink += math.Exp(rng.NormFloat64() * jitterSigma)
		}
		wall := time.Since(start)
		sinkGuard += sink
		return wall
	}
	jitterFast := func() time.Duration {
		s := randgen.Split(cfg.seed, 0)
		var sink float64
		start := time.Now()
		for i := int64(0); i < cfg.draws; i++ {
			sink += randgen.FastExp(s.NormFloat64() * jitterSigma)
		}
		wall := time.Since(start)
		sinkGuard += sink
		return wall
	}

	pairs := []struct {
		name         string
		legacy, fast func() time.Duration
	}{
		{"zipf+exp", zipfExpLegacy, zipfExpFast},
		{"jitter", jitterLegacy, jitterFast},
	}

	out := struct {
		Generated   string               `json:"generated"`
		GoMaxProcs  int                  `json:"gomaxprocs"`
		GOOS        string               `json:"goos"`
		GOARCH      string               `json:"goarch"`
		Draws       int64                `json:"draws"`
		Reps        int                  `json:"reps"`
		Seed        uint64               `json:"seed"`
		Entries     []workloadEntry      `json:"entries"`
		Comparisons []workloadComparison `json:"comparisons"`
	}{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Draws:      cfg.draws,
		Reps:       cfg.reps,
		Seed:       cfg.seed,
	}

	fmt.Printf("bench-workload: %d draws per measurement, median of %d\n", cfg.draws, cfg.reps)
	for _, p := range pairs {
		measure := func(variant string, f func() time.Duration) workloadEntry {
			wall := medianWall(f, cfg.reps)
			e := workloadEntry{
				Name:    p.name + "/" + variant,
				Draws:   cfg.draws,
				WallMS:  ms(wall),
				NsPerOp: float64(wall.Nanoseconds()) / float64(cfg.draws),
			}
			fmt.Printf("  %-16s %9.1f ms  %6.2f ns/op\n", e.Name, e.WallMS, e.NsPerOp)
			return e
		}
		legacy := measure("legacy", p.legacy)
		fast := measure("fast", p.fast)
		cmp := workloadComparison{Name: p.name, Speedup: legacy.WallMS / fast.WallMS}
		fmt.Printf("  %-16s %.2fx\n", p.name+" speedup", cmp.Speedup)
		out.Entries = append(out.Entries, legacy, fast)
		out.Comparisons = append(out.Comparisons, cmp)
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
