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

// TestShardRecorderHoldsLastRun pins the Recorder contract: after two runs
// on one cluster, each shard's Recorder is the second run's shard digest —
// not a history of both — on either engine.
func TestShardRecorderHoldsLastRun(t *testing.T) {
	for _, sequential := range []bool{true, false} {
		cfg := testClusterConfig(AllocGlibc)
		cfg.Sequential = sequential
		c := New(cfg)
		load := testLoad()
		load.Requests = 5000
		c.Run(load)
		load.Start = c.Nodes()[0].Now()
		second := c.Run(load)
		for id := 0; id < cfg.Shards; id++ {
			if got := c.Shard(id).Recorder().Summarize(); got != second.PerShard[id] {
				t.Errorf("sequential=%v shard %d: Recorder summary\n%v\nwant the second run's\n%v",
					sequential, id, got, second.PerShard[id])
			}
		}
		c.Close()
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

		// A skewed load sized from the partition's block: the busiest
		// node's sub-stream spans at least three blocks and a node that
		// hosts no shard gets none, so the one-core path crosses block
		// boundaries and skips an empty node.
		load := testLoad()
		load.Requests = 5 * flatBlockReqs
		seq, par = runBoth(t, testClusterConfig(AllocHermes), load)
		busiest, idle := 0, false
		for _, n := range seq.PerNode {
			busiest = max(busiest, n.Latency.Count)
			idle = idle || (n.Shards == 0 && n.Latency.Count == 0)
		}
		if busiest <= 2*flatBlockReqs {
			t.Fatalf("busiest node served %d requests, want more than two %d-request blocks", busiest, flatBlockReqs)
		}
		if !idle {
			t.Fatal("every node hosts a shard: the skewed load no longer leaves a node empty")
		}
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

// TestFlatPartitionedHeapPerRequest: the one-core engine sizes its memory to
// the stream. Between flat runs of 100k and 400k requests on the default
// fleet, a request costs one 32-byte request and one 8-byte latency; a zero
// wait costs nothing. The request sits in a partition block and, on raw
// stats, the latency in its shard digest, presized to its exact count; the
// node's wait digest counts the zero waits and stores only the queued ones.
// Neither the partition nor a latency digest regrows by copying, so the
// marginal heap stays within 52 B a request on raw stats and 48 B on
// histograms. Short mode, which the race-detector run uses, skips it: a race
// build allocates slices.Grow's temporary instead of eliding it, so every
// presize counts twice.
func TestFlatPartitionedHeapPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: a race build counts every digest presize twice")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	heap := func(mode StatsMode, requests int64) int64 {
		cfg := DefaultConfig()
		cfg.Stats = mode
		c := New(cfg)
		defer c.Close()
		load := workload.DefaultLoadConfig()
		load.Requests = requests
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := c.Run(load)
		runtime.ReadMemStats(&after)
		if rep.Requests != requests {
			t.Fatalf("%s: served %d requests, want %d", mode, rep.Requests, requests)
		}
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, tc := range []struct {
		mode StatsMode
		max  float64
	}{
		{StatsRaw, 52},
		{StatsHistogram, 48},
	} {
		small, large := heap(tc.mode, 100_000), heap(tc.mode, 400_000)
		per := float64(large-small) / 300_000
		t.Logf("%s: %.1f B of Go heap per request (%d B at 100k, %d B at 400k)", tc.mode, per, small, large)
		if per > tc.max {
			t.Errorf("%s: %.1f B of Go heap per request, want at most %.0f", tc.mode, per, tc.max)
		}
	}
}
