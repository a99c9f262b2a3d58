package cluster

import (
	"math"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

func testClusterConfig(kind AllocatorKind) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Shards = 8
	cfg.Allocator = kind
	cfg.Kernel.TotalMemory = 2 << 30
	cfg.Kernel.SwapBytes = 2 << 30
	return cfg
}

func testLoad() workload.LoadConfig {
	load := workload.DefaultLoadConfig()
	load.Requests = 20_000
	load.Keys = 10_000
	return load
}

func runOnce(t *testing.T, kind AllocatorKind) Report {
	t.Helper()
	c := New(testClusterConfig(kind))
	defer c.Close()
	return c.Run(testLoad())
}

// TestConfigValidateKernel: a node kernel New cannot build (no memory,
// negative memory, a size that is not whole pages) fails Config.Validate
// by field rather than panicking in New, and a scenario file's mem_gb
// whose byte count would overflow is rejected by name, not wrapped.
func TestConfigValidateKernel(t *testing.T) {
	for _, total := range []int64{0, -1 << 30, 1<<30 + 1} {
		cfg := DefaultConfig()
		cfg.Kernel.TotalMemory = total
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "cluster: Kernel: kernel: bad memory geometry") {
			t.Errorf("TotalMemory %d: got %v", total, err)
		}
	}
	o := &SpecOverrides{MemGB: math.MaxInt64>>30 + 1}
	if _, err := o.Apply(DefaultConfig()); err == nil || !strings.Contains(err.Error(), "mem_gb") {
		t.Errorf("overflowing mem_gb: got %v", err)
	}
	o.MemGB = math.MaxInt64 >> 30
	if cfg, err := o.Apply(DefaultConfig()); err != nil || cfg.Kernel.TotalMemory != o.MemGB<<30 {
		t.Errorf("largest mem_gb: got %v, TotalMemory %d", err, cfg.Kernel.TotalMemory)
	}
}

func TestClusterRunDeterministic(t *testing.T) {
	a := runOnce(t, AllocGlibc)
	b := runOnce(t, AllocGlibc)
	if a.Cluster != b.Cluster {
		t.Errorf("cluster digests differ across identical runs:\n%v\n%v", a.Cluster, b.Cluster)
	}
	if a.Wait != b.Wait {
		t.Errorf("wait digests differ across identical runs:\n%v\n%v", a.Wait, b.Wait)
	}
	for i := range a.PerShard {
		if a.PerShard[i] != b.PerShard[i] {
			t.Errorf("shard %d digests differ:\n%v\n%v", i, a.PerShard[i], b.PerShard[i])
		}
	}
}

func TestClusterSeedChangesDigest(t *testing.T) {
	a := runOnce(t, AllocGlibc)
	cfg := testClusterConfig(AllocGlibc)
	cfg.Seed = 99
	c := New(cfg)
	defer c.Close()
	b := c.Run(testLoad())
	if a.Cluster == b.Cluster {
		t.Error("different cluster seeds produced the identical digest")
	}
}

func TestClusterAccounting(t *testing.T) {
	rep := runOnce(t, AllocHermes)
	load := testLoad()
	if rep.Requests != load.Requests {
		t.Fatalf("served %d requests, want %d", rep.Requests, load.Requests)
	}
	if rep.Reads+rep.Writes != rep.Requests {
		t.Fatalf("reads %d + writes %d != requests %d", rep.Reads, rep.Writes, rep.Requests)
	}
	var perShard, perNode int
	for _, s := range rep.PerShard {
		perShard += s.Count
	}
	for _, n := range rep.PerNode {
		perNode += n.Latency.Count
	}
	if int64(perShard) != rep.Requests || int64(perNode) != rep.Requests {
		t.Fatalf("per-shard sum %d / per-node sum %d, want %d", perShard, perNode, rep.Requests)
	}
	if rep.Cluster.Count != perShard {
		t.Fatalf("cluster digest holds %d samples, shards hold %d", rep.Cluster.Count, perShard)
	}
}

func TestClusterRepeatedRunsReportPerRun(t *testing.T) {
	c := New(testClusterConfig(AllocGlibc))
	defer c.Close()
	load := testLoad()
	load.Requests = 5000
	first := c.Run(load)
	load.Start = c.Nodes()[0].Now() // second stream starts after the first
	second := c.Run(load)
	for _, rep := range []Report{first, second} {
		if rep.Requests != load.Requests || rep.Cluster.Count != int(load.Requests) {
			t.Fatalf("report covers %d requests / %d samples, want %d",
				rep.Requests, rep.Cluster.Count, load.Requests)
		}
		var perNode, perShard int
		for _, n := range rep.PerNode {
			perNode += n.Latency.Count
		}
		for _, s := range rep.PerShard {
			perShard += s.Count
		}
		if perNode != rep.Cluster.Count || perShard != rep.Cluster.Count {
			t.Fatalf("per-node sum %d / per-shard sum %d don't decompose the run's %d samples",
				perNode, perShard, rep.Cluster.Count)
		}
	}
	// The persistent shard recorders do accumulate across runs.
	var accumulated int
	for id := 0; id < testClusterConfig(AllocGlibc).Shards; id++ {
		accumulated += c.Shard(id).Recorder().Count()
	}
	if want := int(load.Requests) * 2; accumulated != want {
		t.Fatalf("accumulated shard recorders hold %d samples, want %d", accumulated, want)
	}
}

func TestClusterPlacementMatchesRouter(t *testing.T) {
	cfg := testClusterConfig(AllocGlibc)
	c := New(cfg)
	defer c.Close()
	for id := 0; id < cfg.Shards; id++ {
		want := c.Router().NodeForShard(id)
		if got := c.Shard(id).Node().Index; got != want {
			t.Errorf("shard %d lives on node %d, router says %d", id, got, want)
		}
	}
}

func TestClusterWithBatchCoTenantsDeterministic(t *testing.T) {
	run := func() Report {
		cfg := testClusterConfig(AllocHermes)
		b := batch.DefaultConfig()
		b.TargetBytes = cfg.Kernel.TotalMemory
		b.InputBytes = cfg.Kernel.TotalMemory / 16
		b.WorkDuration = 20 * simtime.Second
		b.RampTicks = 10
		cfg.Batch = &b
		d := monitor.DefaultConfig()
		cfg.Daemon = &d
		c := New(cfg)
		defer c.Close()
		// Let the batch ramp overrun the 2 GB nodes before measuring.
		c.Advance(5 * simtime.Second)
		load := testLoad()
		load.Start = simtime.Time(5 * simtime.Second)
		return c.Run(load)
	}
	a, b := run(), run()
	if a.Cluster != b.Cluster {
		t.Errorf("batch-pressured cluster digests differ:\n%v\n%v", a.Cluster, b.Cluster)
	}
	reclaimed := false
	for _, n := range a.PerNode {
		if n.Kernel.PagesReclaimed > 0 {
			reclaimed = true
		}
	}
	if !reclaimed {
		t.Error("no node reclaimed under 100% batch pressure")
	}
}

func TestClusterUnderPressureStillDeterministic(t *testing.T) {
	run := func() Report {
		cfg := testClusterConfig(AllocHermes)
		p := workload.DefaultPressureConfig(workload.PressureAnon)
		p.FileBytes = 0
		// Leave only a sliver free so the shards' own growth breaches the
		// watermarks and wakes reclaim on the 2 GB test nodes.
		p.FreeBytes = 8 << 20
		cfg.Pressure = &p
		c := New(cfg)
		defer c.Close()
		return c.Run(testLoad())
	}
	a, b := run(), run()
	if a.Cluster != b.Cluster {
		t.Errorf("pressured cluster digests differ:\n%v\n%v", a.Cluster, b.Cluster)
	}
	// Pressure must actually have bitten: some node reclaimed or swapped.
	active := false
	for _, n := range a.PerNode {
		if n.Kernel.PagesReclaimed > 0 || n.Kernel.PagesSwapOut > 0 {
			active = true
		}
	}
	if !active {
		t.Error("no node shows reclaim activity under anon pressure")
	}
}
