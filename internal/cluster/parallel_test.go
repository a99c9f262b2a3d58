package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
)

// reportsEqual compares two Reports field for field, pointing at the first
// difference — DeepEqual alone gives useless failure output.
func reportsEqual(t *testing.T, seq, par Report) {
	t.Helper()
	if seq.Requests != par.Requests || seq.Reads != par.Reads || seq.Writes != par.Writes {
		t.Errorf("request accounting differs: seq %d/%d/%d, par %d/%d/%d",
			seq.Requests, seq.Reads, seq.Writes, par.Requests, par.Reads, par.Writes)
	}
	if seq.Cluster != par.Cluster {
		t.Errorf("cluster digest differs:\nseq %v\npar %v", seq.Cluster, par.Cluster)
	}
	if seq.Wait != par.Wait {
		t.Errorf("wait digest differs:\nseq %v\npar %v", seq.Wait, par.Wait)
	}
	for i := range seq.PerNode {
		if !reflect.DeepEqual(seq.PerNode[i], par.PerNode[i]) {
			t.Errorf("node %d differs:\nseq %+v\npar %+v", i, seq.PerNode[i], par.PerNode[i])
		}
	}
	for i := range seq.PerShard {
		if seq.PerShard[i] != par.PerShard[i] {
			t.Errorf("shard %d differs:\nseq %v\npar %v", i, seq.PerShard[i], par.PerShard[i])
		}
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("reports differ outside the compared fields")
	}
}

// runBoth executes the identical (config, load) pair on two fresh clusters,
// one per engine, and returns both reports.
func runBoth(t *testing.T, cfg Config, load workload.LoadConfig) (seq, par Report) {
	t.Helper()
	cfg.Sequential = true
	cs := New(cfg)
	defer cs.Close()
	seq = cs.Run(load)
	cfg.Sequential = false
	cp := New(cfg)
	defer cp.Close()
	par = cp.Run(load)
	return seq, par
}

func TestParallelMatchesSequentialAcrossAllocatorsAndSeeds(t *testing.T) {
	for _, kind := range AllocatorKinds {
		for _, seed := range []uint64{1, 99} {
			kind, seed := kind, seed
			t.Run(string(kind), func(t *testing.T) {
				cfg := testClusterConfig(kind)
				cfg.Seed = seed
				load := testLoad()
				load.Seed = seed
				seq, par := runBoth(t, cfg, load)
				reportsEqual(t, seq, par)
			})
		}
	}
}

func TestParallelMatchesSequentialHistogramMode(t *testing.T) {
	cfg := testClusterConfig(AllocGlibc)
	cfg.Stats = StatsHistogram
	seq, par := runBoth(t, cfg, testLoad())
	if seq.Stats != StatsHistogram || par.Stats != StatsHistogram {
		t.Fatalf("reports do not echo histogram mode: %q/%q", seq.Stats, par.Stats)
	}
	reportsEqual(t, seq, par)
}

func TestParallelMatchesSequentialUnderPressure(t *testing.T) {
	// Background machinery (pressure generator, kswapd) consumes per-node
	// RNG draws and schedules events; equivalence must survive it.
	cfg := testClusterConfig(AllocHermes)
	p := workload.DefaultPressureConfig(workload.PressureAnon)
	p.FileBytes = 0
	p.FreeBytes = 8 << 20
	cfg.Pressure = &p
	seq, par := runBoth(t, cfg, testLoad())
	reportsEqual(t, seq, par)
}

func TestRunDispatchesOnSequentialFlag(t *testing.T) {
	cfg := testClusterConfig(AllocGlibc)
	cfg.Sequential = true
	c := New(cfg)
	defer c.Close()
	seq := c.Run(testLoad())
	cfg.Sequential = false
	c2 := New(cfg)
	defer c2.Close()
	par := c2.Run(testLoad())
	reportsEqual(t, seq, par)
}

func TestParallelPersistentRecordersAccumulate(t *testing.T) {
	cfg := testClusterConfig(AllocGlibc)
	c := New(cfg)
	defer c.Close()
	load := testLoad()
	load.Requests = 5000
	first := c.Run(load)
	load.Start = c.Nodes()[0].Now()
	second := c.Run(load)
	if first.Requests != 5000 || second.Requests != 5000 {
		t.Fatalf("run reports cover %d/%d requests, want 5000 each", first.Requests, second.Requests)
	}
	var accumulated int
	for id := 0; id < cfg.Shards; id++ {
		accumulated += c.Shard(id).Recorder().Count()
	}
	if accumulated != 10000 {
		t.Fatalf("persistent shard recorders hold %d samples, want 10000", accumulated)
	}
	var nodeAcc int
	for _, n := range c.Nodes() {
		nodeAcc += n.rec.Count()
	}
	if nodeAcc != 10000 {
		t.Fatalf("persistent node recorders hold %d samples, want 10000", nodeAcc)
	}
}

func TestHistogramModeMemoryBounded(t *testing.T) {
	buckets := func(requests int64) int {
		cfg := testClusterConfig(AllocGlibc)
		cfg.Stats = StatsHistogram
		c := New(cfg)
		defer c.Close()
		load := testLoad()
		load.Requests = requests
		c.Run(load)
		total := 0
		for id := 0; id < cfg.Shards; id++ {
			rec := c.Shard(id).Recorder()
			if !rec.Streaming() {
				t.Fatalf("shard %d recorder is not streaming in histogram mode", id)
			}
			if got := rec.Histogram().Buckets(); got > stats.MaxBuckets() {
				t.Fatalf("shard %d grew to %d buckets, ceiling is %d", id, got, stats.MaxBuckets())
			}
			total += rec.Histogram().Buckets()
		}
		return total
	}
	// Digest memory must not scale with the request count: 4× the samples,
	// same bucket footprint (up to the one-off growth to the latency range).
	small, large := buckets(5_000), buckets(20_000)
	if large > small*2 {
		t.Fatalf("bucket footprint grew with samples: %d buckets at 5k vs %d at 20k", small, large)
	}
}

// TestParallelSingleCoreMatchesSequential pins the GOMAXPROCS-adaptive
// dispatch in the scenario engine. At GOMAXPROCS=1 a flat load with no
// timeline skips the chunk pipeline and takes the bare-Request partition;
// every other scenario stays on the pipeline. The rest of the suite runs at
// the host's GOMAXPROCS (≥2 in CI), so this test and TestReportGoldens are
// the coverage the single-core dispatch gets. Both must reproduce the
// sequential report bit for bit, which is exactly what makes the dispatch
// result-neutral.
func TestParallelSingleCoreMatchesSequential(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	t.Run("flat", func(t *testing.T) {
		seq, par := runBoth(t, testClusterConfig(AllocHermes), testLoad())
		reportsEqual(t, seq, par)
	})

	t.Run("scenario", func(t *testing.T) {
		// Multi-phase scenario with a live timeline: the chunk pipeline on
		// one core.
		cfg, scn := eventScenario()
		cfg.Sequential = true
		seq := runScenario(t, cfg, scn)
		cfg.Sequential = false
		par := runScenario(t, cfg, scn)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("single-core parallel scenario diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
		}
	})
}
