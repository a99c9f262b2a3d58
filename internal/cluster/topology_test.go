package cluster

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/services"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// Topology-dynamics chaos harness: kill/restore events, replica failover
// and live shard migration must replay bit-identically, conserve the
// dataset against a sequential oracle, and visibly change the run.

const (
	drillKillAt    = 80 * simtime.Millisecond
	drillRestoreAt = 180 * simtime.Millisecond
)

// drillConfig is the chaos fleet: 4 nodes, 8 shards, 2-way shard replicas.
func drillConfig(svc ServiceKind, kind AllocatorKind) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Shards = 8
	cfg.ShardReplicas = 2
	cfg.ServiceKind = svc
	cfg.Allocator = kind
	cfg.Kernel.TotalMemory = 1 << 30
	cfg.Kernel.SwapBytes = 1 << 30
	cfg.Seed = 17
	return cfg
}

// primaryHeavyNode picks the node owning the most shard primaries — the
// kill target that diverts the most traffic.
func primaryHeavyNode(cfg Config) int {
	c := New(cfg)
	defer c.Close()
	counts := make([]int, cfg.Nodes)
	for _, chain := range c.chains {
		counts[chain[0]]++
	}
	best := 0
	for i, n := range counts {
		if n > counts[best] {
			best = i
		}
	}
	return best
}

// drillScenario is a three-phase mixed workload whose timeline kills the
// given node mid-run and restores it before the recovery phase ends.
func drillScenario(killNode int, policy workload.KillPolicy) workload.Scenario {
	classes := []workload.TrafficClass{
		{Name: "point", Rate: 60_000, Keys: 6_000, ZipfS: 1.1, ReadFraction: 0.6, ValueBytes: 4 << 10},
		{Name: "ingest", Rate: 10_000, Keys: 1_500, ReadFraction: 0.1, ValueBytes: 32 << 10},
	}
	return workload.Scenario{
		Name: "drill",
		Seed: 17,
		Phases: []workload.Phase{
			{Name: "steady", Duration: drillKillAt, Classes: classes},
			{Name: "outage", Duration: drillRestoreAt - drillKillAt, Classes: classes},
			{Name: "recovered", Duration: 80 * simtime.Millisecond, Classes: classes},
		},
		Events: []workload.Event{
			{At: drillKillAt, Node: killNode, Kind: workload.EventKillNode, Policy: policy},
			{At: drillRestoreAt, Node: killNode, Kind: workload.EventRestoreNode},
		},
	}
}

// TestTopologyChaosSeedReplay is the chaos regression matrix: the drill
// scenario must replay bit-identically and the partitioned parallel engine
// must match the sequential one bit for bit — across both services and
// both headline allocators, with the failover and migration paths
// demonstrably exercised in every cell.
func TestTopologyChaosSeedReplay(t *testing.T) {
	for _, svc := range []ServiceKind{ServiceRedis, ServiceRocksdb} {
		for _, kind := range []AllocatorKind{AllocGlibc, AllocHermes} {
			svc, kind := svc, kind
			t.Run(string(svc)+"/"+string(kind), func(t *testing.T) {
				cfg := drillConfig(svc, kind)
				scn := drillScenario(primaryHeavyNode(cfg), workload.KillDrain)
				if testing.Short() {
					scn = scn.Scaled(0.3)
				}
				first := runScenario(t, cfg, scn)
				again := runScenario(t, cfg, scn)
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("chaos seed replay diverged:\nfirst: %+v\nagain: %+v", first, again)
				}
				cfg.Sequential = true
				seq := runScenario(t, cfg, scn)
				if !reflect.DeepEqual(first, seq) {
					t.Fatalf("parallel engine diverged from sequential under chaos:\npar: %+v\nseq: %+v", first, seq)
				}
				if first.Failovers == 0 {
					t.Error("kill diverted no requests: the chaos never bit")
				}
				if first.MigratedBytes == 0 {
					t.Error("restore migrated nothing: the manifest never filled")
				}
			})
		}
	}
}

// TestTopologyConservationOracle replays the generated stream through an
// independent sequential oracle — plain maps plus the declared outage
// interval — and requires every shard instance's exported records to match
// it exactly after kill → failover → migrate → restore: same keys, same
// sizes, keys owned by the right shard. Drain policy, so the oracle needs
// no node clocks (queue-drop verdicts depend on them).
func TestTopologyConservationOracle(t *testing.T) {
	for _, svc := range []ServiceKind{ServiceRedis, ServiceRocksdb} {
		svc := svc
		t.Run(string(svc), func(t *testing.T) {
			cfg := drillConfig(svc, AllocGlibc)
			kill := primaryHeavyNode(cfg)
			scn := drillScenario(kill, workload.KillDrain)

			c := New(cfg)
			defer c.Close()
			rep, err := c.RunScenario(scn)
			if err != nil {
				t.Fatal(err)
			}
			if rep.MigratedBytes == 0 {
				t.Fatal("no migration: the oracle would prove nothing")
			}

			// The oracle: writes land on the first up chain node at their
			// arrival; writes diverted past the down primary join its
			// manifest, applied to the primary at the restore instant.
			killAt := scn.Start.Add(drillKillAt)
			restoreAt := scn.Start.Add(drillRestoreAt)
			type entry struct{ shard, key, size int64 }
			stores := make([]map[int64]int64, 0, len(c.shards)*2)
			oracle := func(shard, inst int) map[int64]int64 {
				i := shard*2 + inst
				for len(stores) <= i {
					stores = append(stores, map[int64]int64{})
				}
				return stores[i]
			}
			var manifest []entry
			applyManifest := func() {
				for _, e := range manifest {
					oracle(int(e.shard), 0)[e.key] = e.size
				}
				manifest = nil
			}
			d := workload.NewScenarioDriver(scn)
			applied := false
			for {
				req, ok := d.Next()
				if !ok {
					break
				}
				if !applied && !req.At.Before(restoreAt) {
					applyManifest()
					applied = true
				}
				if req.Op != workload.OpWrite {
					continue
				}
				shard := c.router.ShardForKey(req.Key)
				down := c.chains[shard][0] == kill &&
					!req.At.Before(killAt) && req.At.Before(restoreAt)
				if down {
					oracle(shard, 1)[req.Key] = req.ValueBytes
					manifest = append(manifest, entry{int64(shard), req.Key, req.ValueBytes})
				} else {
					oracle(shard, 0)[req.Key] = req.ValueBytes
				}
			}
			if !applied {
				applyManifest()
			}

			for id, sh := range c.shards {
				for inst := range sh.instances {
					want := oracle(id, inst)
					got := sh.instances[inst].svc.ExportRecords(nil)
					if len(got) != len(want) {
						t.Fatalf("%s shard %d instance %d: %d surviving keys, oracle has %d",
							svc, id, inst, len(got), len(want))
					}
					for _, rec := range got {
						if c.router.ShardForKey(rec.Key) != id {
							t.Fatalf("shard %d instance %d holds key %d owned by shard %d",
								id, inst, rec.Key, c.router.ShardForKey(rec.Key))
						}
						size, ok := want[rec.Key]
						if !ok {
							t.Fatalf("shard %d instance %d holds key %d the oracle never wrote", id, inst, rec.Key)
						}
						if size != rec.Size {
							t.Fatalf("shard %d instance %d key %d: %d bytes, oracle says %d",
								id, inst, rec.Key, rec.Size, size)
						}
					}
				}
			}
		})
	}
}

// TestTopologyFailoverAndMigrationBite pins the report surface: failover
// reroutes land on surviving nodes, the restore re-fills a positive byte
// count, the killed node's downtime equals its scheduled outage, and with
// replicas nothing is dropped — the run serves exactly what an event-free
// copy serves.
func TestTopologyFailoverAndMigrationBite(t *testing.T) {
	cfg := drillConfig(ServiceRedis, AllocGlibc)
	kill := primaryHeavyNode(cfg)
	scn := drillScenario(kill, workload.KillDrain)
	rep := runScenario(t, cfg, scn)

	calm := scn
	calm.Events = nil
	calmRep := runScenario(t, cfg, calm)

	if rep.Failovers == 0 {
		t.Fatal("no failovers recorded")
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped %d requests despite a full replica chain", rep.Dropped)
	}
	if rep.Requests != calmRep.Requests {
		t.Fatalf("served %d requests, the event-free run served %d — failover lost traffic",
			rep.Requests, calmRep.Requests)
	}
	if rep.MigratedBytes == 0 {
		t.Fatal("restore migrated nothing")
	}
	var failovers, migrated int64
	for ni, nr := range rep.PerNode {
		failovers += nr.Failovers
		migrated += nr.MigratedBytes
		switch ni {
		case kill:
			if nr.Downtime != drillRestoreAt-drillKillAt {
				t.Errorf("killed node downtime %v, want %v", nr.Downtime, drillRestoreAt-drillKillAt)
			}
			if nr.Failovers != 0 {
				t.Errorf("killed node served %d failovers for itself", nr.Failovers)
			}
			if nr.MigratedBytes == 0 {
				t.Error("killed node shows no migrated bytes")
			}
		default:
			if nr.Downtime != 0 {
				t.Errorf("node %d downtime %v without a kill", ni, nr.Downtime)
			}
			if nr.MigratedBytes != 0 {
				t.Errorf("node %d shows %d migrated bytes without a restore", ni, nr.MigratedBytes)
			}
		}
	}
	if failovers != rep.Failovers || migrated != rep.MigratedBytes {
		t.Errorf("per-node topology columns (%d failovers, %d bytes) don't sum to the cluster totals (%d, %d)",
			failovers, migrated, rep.Failovers, rep.MigratedBytes)
	}
	if rep.Render() == "" || !strings.Contains(rep.Render(), "topology:") {
		t.Error("report renders no topology summary")
	}
}

// TestTopologyKillWithoutReplicasDrops: on an unreplicated fleet a kill
// leaves the node's shards unreachable — every request bound for them is
// dropped at routing, charged to the primary, and excluded from Requests;
// nothing migrates back at the restore because nothing was diverted.
func TestTopologyKillWithoutReplicasDrops(t *testing.T) {
	cfg := drillConfig(ServiceRedis, AllocGlibc)
	cfg.ShardReplicas = 0
	kill := primaryHeavyNode(cfg)
	scn := drillScenario(kill, workload.KillDrain)
	rep := runScenario(t, cfg, scn)

	calm := scn
	calm.Events = nil
	calmRep := runScenario(t, cfg, calm)

	if rep.Dropped == 0 {
		t.Fatal("kill on an unreplicated fleet dropped nothing")
	}
	if rep.Failovers != 0 {
		t.Fatalf("%d failovers without replicas", rep.Failovers)
	}
	if rep.MigratedBytes != 0 {
		t.Fatalf("%d bytes migrated without replicas to divert to", rep.MigratedBytes)
	}
	if rep.Requests+rep.Dropped != calmRep.Requests {
		t.Fatalf("served %d + dropped %d != %d generated", rep.Requests, rep.Dropped, calmRep.Requests)
	}
	for ni, nr := range rep.PerNode {
		if ni == kill {
			if nr.Dropped != rep.Dropped {
				t.Errorf("killed node charged %d drops, cluster counted %d", nr.Dropped, rep.Dropped)
			}
		} else if nr.Dropped != 0 {
			t.Errorf("node %d charged %d drops for another node's outage", ni, nr.Dropped)
		}
	}
}

// TestTopologyErroredDivertedWritesDoNotMigrate lays a rate-1 fault window
// over the outage: every request diverted past the down primary fails
// fast, so no replica stores a write and the restore has nothing to
// re-fill. Without class policies an errored attempt ends its request;
// with a retry policy its retries error too. Both engines.
func TestTopologyErroredDivertedWritesDoNotMigrate(t *testing.T) {
	cfg := drillConfig(ServiceRedis, AllocGlibc)
	kill := primaryHeavyNode(cfg)
	for _, policy := range []bool{false, true} {
		scn := drillScenario(kill, workload.KillDrain)
		scn.Events = append(scn.Events, workload.Event{At: drillKillAt, Node: -1,
			Kind: workload.EventFaultWindow, ErrorRate: 1, Duration: drillRestoreAt - drillKillAt})
		if policy {
			for pi := range scn.Phases {
				for ci := range scn.Phases[pi].Classes {
					scn.Phases[pi].Classes[ci].Resilience = &workload.Resilience{Retries: 1, Backoff: simtime.Millisecond}
				}
			}
		}
		for _, sequential := range []bool{true, false} {
			cfg.Sequential = sequential
			rep := runScenario(t, cfg, scn)
			if rep.Errors == 0 {
				t.Fatalf("policy=%v sequential=%v: the fault window errored nothing", policy, sequential)
			}
			if rep.Failovers != 0 || rep.MigratedBytes != 0 {
				t.Errorf("policy=%v sequential=%v: %d failovers and %d bytes migrated, want 0 — every diverted write errored",
					policy, sequential, rep.Failovers, rep.MigratedBytes)
			}
		}
	}
}

// TestTopologyDropPolicySeversBacklog overloads a two-node fleet so the
// kill instant finds a deep queue, then compares policies: drop must
// discard backlogged requests that drain serves, and both runs must still
// replay deterministically on both engines.
func TestTopologyDropPolicySeversBacklog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Shards = 4
	cfg.ShardReplicas = 2
	cfg.Kernel.TotalMemory = 1 << 30
	cfg.Kernel.SwapBytes = 1 << 30
	cfg.Seed = 5
	classes := []workload.TrafficClass{
		// ~10µs arrival spacing per node against ~30µs per 64KB write:
		// the backlog at the kill instant is hundreds deep.
		{Name: "flood", Rate: 200_000, Keys: 2_000, ReadFraction: 0, ValueBytes: 64 << 10},
	}
	scn := workload.Scenario{
		Name: "sever",
		Seed: 5,
		Phases: []workload.Phase{
			{Name: "flood", Duration: 40 * simtime.Millisecond, Classes: classes},
		},
		Events: []workload.Event{
			{At: 30 * simtime.Millisecond, Node: 0, Kind: workload.EventKillNode, Policy: workload.KillDrop},
		},
	}

	drop := runScenario(t, cfg, scn)
	scn.Events[0].Policy = workload.KillDrain
	drain := runScenario(t, cfg, scn)
	scn.Events[0].Policy = workload.KillDrop
	cfg.Sequential = true
	dropSeq := runScenario(t, cfg, scn)

	if !reflect.DeepEqual(drop, dropSeq) {
		t.Fatal("drop-policy run diverged between engines")
	}
	if drop.Dropped == 0 {
		t.Fatal("drop policy severed nothing: no backlog at the kill")
	}
	if drain.Dropped != 0 {
		t.Fatalf("drain policy dropped %d queued requests", drain.Dropped)
	}
	if drop.Requests >= drain.Requests {
		t.Fatalf("drop served %d requests, drain served %d — the severed backlog never left the digests",
			drop.Requests, drain.Requests)
	}
	if drop.Requests+drop.Dropped != drain.Requests+drain.Dropped {
		t.Fatalf("policies disagree on the generated stream: %d+%d vs %d+%d",
			drop.Requests, drop.Dropped, drain.Requests, drain.Dropped)
	}
}

// TestTopologyValidation: malformed topology — unknown nodes, restores of
// live nodes, double kills, oversized replica factors — comes back as a
// field-named error before the run starts, never a panic.
func TestTopologyValidation(t *testing.T) {
	cfg := drillConfig(ServiceRedis, AllocGlibc)
	c := New(cfg)
	defer c.Close()
	base := drillScenario(1, workload.KillDrain)

	mut := func(events ...workload.Event) workload.Scenario {
		s := base
		s.Events = events
		return s
	}
	cases := []struct {
		name string
		scn  workload.Scenario
		want string
	}{
		{"kill unknown node", mut(workload.Event{At: 0, Node: 9, Kind: workload.EventKillNode}),
			"cluster has 4 nodes"},
		{"kill all nodes", mut(workload.Event{At: 0, Node: -1, Kind: workload.EventKillNode}),
			"explicit Node index"},
		{"restore live node", mut(workload.Event{At: 0, Node: 1, Kind: workload.EventRestoreNode}),
			"not down"},
		{"double kill", mut(
			workload.Event{At: 0, Node: 1, Kind: workload.EventKillNode},
			workload.Event{At: 10 * simtime.Millisecond, Node: 1, Kind: workload.EventKillNode}),
			"already down"},
		{"bad policy", mut(workload.Event{At: 0, Node: 1, Kind: workload.EventKillNode, Policy: "explode"}),
			"Policy must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.RunScenario(tc.scn)
			if err == nil {
				t.Fatal("malformed topology accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}

	bad := cfg
	bad.ShardReplicas = bad.Nodes + 1
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "ShardReplicas") {
		t.Errorf("oversized ShardReplicas: got %v", err)
	}
	bad.ShardReplicas = -1
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "ShardReplicas") {
		t.Errorf("negative ShardReplicas: got %v", err)
	}
}

// TestFailoverDrillPreset runs the committed failover-drill preset on both
// engines at a smoke scale: the reports must be bit-identical and the
// drill must actually fail over and migrate.
func TestFailoverDrillPreset(t *testing.T) {
	data, err := os.ReadFile("../../examples/scenarios/failover-drill.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseScenarioSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Overrides == nil || spec.Overrides.ShardReplicas < 2 {
		t.Fatal("failover-drill preset must pin shard replicas >= 2")
	}
	if got := spec.Scenario.Events[0].KillPolicyKind(); got != workload.KillDrain {
		t.Fatalf("preset kill policy %q did not parse as drain", got)
	}
	cfg, err := spec.Overrides.Apply(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = spec.Scenario.Seed
	scn := spec.Scenario.Scaled(0.02)

	par := runScenario(t, cfg, scn)
	cfg.Sequential = true
	seq := runScenario(t, cfg, scn)
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("failover-drill preset diverged between engines:\npar: %+v\nseq: %+v", par, seq)
	}
	if par.Failovers == 0 || par.MigratedBytes == 0 {
		t.Fatalf("preset drill did not bite: failovers=%d migrated=%d", par.Failovers, par.MigratedBytes)
	}
	if par.Dropped != 0 {
		t.Fatalf("preset drill dropped %d requests despite replicas", par.Dropped)
	}
	// The preset's kill target must own shard primaries, or the drill
	// demonstrates nothing — guard against ring drift re-shuffling it.
	c := New(cfg)
	defer c.Close()
	kill := spec.Scenario.Events[0].Node
	owns := 0
	for _, chain := range c.chains {
		if chain[0] == kill {
			owns++
		}
	}
	if owns == 0 {
		t.Fatalf("preset kills node %d, which owns no shard primaries", kill)
	}
}

// TestReplicaChainDistinct pins the router contract the failover path
// rests on: every chain starts at the shard's primary, holds n distinct
// in-range nodes, and is stable across router rebuilds.
func TestReplicaChainDistinct(t *testing.T) {
	names := []string{"node-00", "node-01", "node-02", "node-03", "node-04"}
	r := NewShardRouter(names, 16, 64)
	r2 := NewShardRouter(names, 16, 64)
	for s := 0; s < 16; s++ {
		chain := r.ReplicaChain(s, len(names))
		if len(chain) != len(names) {
			t.Fatalf("shard %d chain %v: want %d distinct nodes", s, chain, len(names))
		}
		if chain[0] != r.NodeForShard(s) {
			t.Fatalf("shard %d chain %v does not start at its primary %d", s, chain, r.NodeForShard(s))
		}
		seen := map[int]bool{}
		for _, n := range chain {
			if n < 0 || n >= len(names) || seen[n] {
				t.Fatalf("shard %d chain %v has an out-of-range or repeated node", s, chain)
			}
			seen[n] = true
		}
		if !reflect.DeepEqual(chain, r2.ReplicaChain(s, len(names))) {
			t.Fatalf("shard %d chain differs across identical routers", s)
		}
	}
}

// TestImportExportRoundTrip pins the migration transport at service level:
// exported records re-imported into a fresh store must export back
// identically (ascending keys, exact sizes), with overwrites collapsed.
func TestImportExportRoundTrip(t *testing.T) {
	for _, svc := range []ServiceKind{ServiceRedis, ServiceRocksdb} {
		svc := svc
		t.Run(string(svc), func(t *testing.T) {
			cfg := drillConfig(svc, AllocGlibc)
			cfg.Nodes = 2
			cfg.Shards = 2
			cfg.ShardReplicas = 0
			c := New(cfg)
			defer c.Close()

			src := c.shards[0].svc
			for i := int64(0); i < 500; i++ {
				src.Insert(i*7%250, 4096+i) // overwrites: 250 survivors
			}
			exported := src.ExportRecords(nil)
			if len(exported) != 250 {
				t.Fatalf("exported %d records, want 250 after overwrites", len(exported))
			}
			for i := 1; i < len(exported); i++ {
				if exported[i-1].Key >= exported[i].Key {
					t.Fatal("export is not in ascending key order")
				}
			}

			dst := c.shards[1].svc
			if cost := dst.ImportRecords(append([]services.ImportEntry(nil), exported...)); cost <= 0 {
				t.Fatal("import cost no virtual time")
			}
			back := dst.ExportRecords(nil)
			if !reflect.DeepEqual(exported, back) {
				t.Fatalf("round trip diverged: %d records out, %d back", len(exported), len(back))
			}
		})
	}
}
