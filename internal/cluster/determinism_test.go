package cluster

import (
	"reflect"
	"testing"

	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// churnScenario builds a cluster run whose deterministic path exercises the
// two spots fixed for ISSUE 3: RocksDB memtable flushes / SST teardown
// (compaction-order state) and process exit (batch jobs completing and
// churning), both under enough allocation traffic to touch the LRU lists.
func churnScenario() (Config, workload.LoadConfig) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Shards = 4
	cfg.ServiceKind = ServiceRocksdb
	cfg.Kernel.TotalMemory = 1 << 30
	cfg.Kernel.SwapBytes = 1 << 30
	b := batch.DefaultConfig()
	b.TargetBytes = 800 << 20
	b.InputBytes = 64 << 20
	// Short jobs so several complete — and their containers exit — inside
	// the run horizon.
	b.WorkDuration = 100 * simtime.Millisecond
	b.RampTicks = 5
	b.TickPeriod = 20 * simtime.Millisecond
	cfg.Batch = &b

	load := workload.DefaultLoadConfig()
	load.Requests = 30_000
	if testing.Short() {
		// The race-detector CI job runs -short: half the stream still
		// overflows memtables, churns batch exits AND reclaims (the
		// test's pressure floor — 10k requests stay under it), at a wall
		// clock the ~10x race overhead can afford.
		load.Requests = 15_000
	}
	load.RatePerSec = 100_000
	load.Keys = 2_000
	// 64 KB values overflow the 64 MB memtables after ~1k writes per
	// shard, forcing several flushes per shard.
	load.ValueBytes = 64 << 10
	return cfg, load
}

func runChurn(t *testing.T, cfg Config, load workload.LoadConfig) Report {
	t.Helper()
	c := New(cfg)
	defer c.Close()
	rep := c.Run(load)
	for _, n := range c.Nodes() {
		n.Kernel().CheckInvariants()
	}
	return rep
}

// TestSeedReplayExitAndCompaction replays the churn scenario: two
// independent runs of the identical (config, load) pair must produce
// bit-identical Reports — including per-node kernel stats, which expose any
// map-iteration-order dependence in process exit, memtable flush or SST
// teardown.
func TestSeedReplayExitAndCompaction(t *testing.T) {
	cfg, load := churnScenario()
	first := runChurn(t, cfg, load)
	again := runChurn(t, cfg, load)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("seed replay diverged:\nfirst: %+v\nagain: %+v", first, again)
	}
	// The scenario must actually exercise the churn paths.
	var reclaims int64
	for _, n := range first.PerNode {
		reclaims += n.Kernel.PagesReclaimed
	}
	if reclaims == 0 {
		t.Fatal("scenario never reclaimed: pressure too low to exercise ordering")
	}
}

// TestSeedReplayParallelMatchesSequential re-checks engine equivalence on
// the churn scenario specifically: partitioned per-node execution must not
// change a single bit of the Report even with batch exits and memtable
// flushes in flight.
func TestSeedReplayParallelMatchesSequential(t *testing.T) {
	cfg, load := churnScenario()
	cfg.Sequential = true
	seq := runChurn(t, cfg, load)
	cfg.Sequential = false
	par := runChurn(t, cfg, load)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel engine diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestNodeStreamIndependence pins the randgen splittability contract at
// cluster level: a node's draw sequence is a pure function of (cluster
// seed, node index). Consuming other nodes' streams first — in any order —
// must not change it. This is the property the parallel engine's
// bit-identity to the sequential engine rests on.
func TestNodeStreamIndependence(t *testing.T) {
	cfg, _ := churnScenario()
	cfg.Batch = nil // no background machinery; we only probe the streams
	const draws = 16

	drawNode := func(c *Cluster, idx int) []float64 {
		out := make([]float64, draws)
		for i := range out {
			out[i] = c.Nodes()[idx].Kernel().RNG().Float64()
		}
		return out
	}

	// Reference: each node drained on a fresh cluster before any sibling.
	want := make([][]float64, cfg.Nodes)
	for idx := 0; idx < cfg.Nodes; idx++ {
		c := New(cfg)
		want[idx] = drawNode(c, idx)
		c.Close()
	}
	// Reordered: drain nodes highest-index first on one cluster.
	c := New(cfg)
	defer c.Close()
	for idx := cfg.Nodes - 1; idx >= 0; idx-- {
		got := drawNode(c, idx)
		for i := range got {
			if got[i] != want[idx][i] {
				t.Fatalf("node %d draw %d = %v after reordering node execution, want %v",
					idx, i, got[i], want[idx][i])
			}
		}
	}
	// Distinct nodes must not share a stream.
	if want[0][0] == want[1][0] && want[0][1] == want[1][1] {
		t.Fatal("nodes 0 and 1 draw the identical sequence")
	}
}

// TestSeedReplayScenarioTimeline extends the seed-replay bar to the
// scenario layer: a multi-phase, multi-class scenario with timeline events
// (per-node squeeze, mid-run pressure storm) must replay bit-identically —
// phase and class digests included — and the partitioned parallel engine
// must match the sequential one bit for bit.
func TestSeedReplayScenarioTimeline(t *testing.T) {
	cfg, scn := eventScenario()
	first := runScenario(t, cfg, scn)
	again := runScenario(t, cfg, scn)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("scenario seed replay diverged:\nfirst: %+v\nagain: %+v", first, again)
	}

	cfg.Sequential = true
	seq := runScenario(t, cfg, scn)
	cfg.Sequential = false
	if !reflect.DeepEqual(first, seq) {
		t.Fatalf("scenario parallel engine diverged from sequential:\npar: %+v\nseq: %+v", first, seq)
	}

	// A different seed must not reproduce the run (guards against the
	// scenario layer pinning its own constants).
	other := scn
	other.Seed = scn.Seed + 1
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	if diverged := runScenario(t, cfg2, other); reflect.DeepEqual(first.Cluster, diverged.Cluster) {
		t.Fatal("different seed reproduced the identical cluster digest")
	}
}
