package cluster

import (
	"cmp"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// Resilience chaos harness: soft-fault injection (degrade/heal, fault
// windows), client retry/timeout/hedging and SLO-driven shedding must
// replay bit-identically on both engines, conserve the attempt stream
// against exact chain-accounting identities, and visibly change the run.

const (
	brownDegradeAt = 40 * simtime.Millisecond
	brownHealAt    = 120 * simtime.Millisecond
	brownFaultAt   = 50 * simtime.Millisecond
	brownFaultLen  = 40 * simtime.Millisecond
)

// brownoutScenario is the resilience drill: a resilient point-lookup class
// and a policy-less ingest class, a mid-run degrade + error burst on the
// primary-heavy node, a shard-scoped error window, and an SLO with a shed
// policy riding on top.
func brownoutScenario(target int) workload.Scenario {
	shard := 1
	classes := []workload.TrafficClass{
		{Name: "point", Rate: 60_000, Keys: 6_000, ZipfS: 1.1, ReadFraction: 0.6, ValueBytes: 4 << 10,
			Resilience: &workload.Resilience{
				Timeout: 60 * simtime.Microsecond,
				Retries: 2,
				Backoff: 30 * simtime.Microsecond,
				Jitter:  0.2,
				Hedge:   40 * simtime.Microsecond,
			}},
		{Name: "ingest", Rate: 10_000, Keys: 1_500, ReadFraction: 0.1, ValueBytes: 32 << 10},
	}
	return workload.Scenario{
		Name: "brownout-drill",
		Seed: 17,
		Phases: []workload.Phase{
			{Name: "steady", Duration: brownDegradeAt, Classes: classes},
			{Name: "brownout", Duration: brownHealAt - brownDegradeAt, Classes: classes},
			{Name: "recovered", Duration: 40 * simtime.Millisecond, Classes: classes},
		},
		Events: []workload.Event{
			{At: brownDegradeAt, Node: target, Kind: workload.EventDegradeNode, Factor: 8},
			{At: brownHealAt, Node: target, Kind: workload.EventHealNode},
			{At: brownFaultAt, Node: target, Kind: workload.EventFaultWindow, ErrorRate: 0.3, Duration: brownFaultLen},
			{At: brownFaultAt, Node: -1, Kind: workload.EventFaultWindow, ErrorRate: 0.1, Duration: 20 * simtime.Millisecond, Shard: &shard},
		},
		SLO:      &workload.SLO{P99: 80 * simtime.Microsecond, Window: 5 * simtime.Millisecond},
		Policies: &workload.Policies{Shed: &workload.ShedPolicy{Step: 0.2, Max: 0.8}},
	}
}

// TestResilienceChaosSeedReplay is the resilience regression matrix: the
// brownout drill must replay bit-identically and the partitioned parallel
// engine must match the sequential one bit for bit — across both services
// and both headline allocators, with the error, retry and hedge paths
// demonstrably exercised in every cell.
func TestResilienceChaosSeedReplay(t *testing.T) {
	for _, svc := range []ServiceKind{ServiceRedis, ServiceRocksdb} {
		for _, kind := range []AllocatorKind{AllocGlibc, AllocHermes} {
			svc, kind := svc, kind
			t.Run(string(svc)+"/"+string(kind), func(t *testing.T) {
				cfg := drillConfig(svc, kind)
				scn := brownoutScenario(primaryHeavyNode(cfg))
				if testing.Short() {
					scn = scn.Scaled(0.3)
				}
				first := runScenario(t, cfg, scn)
				again := runScenario(t, cfg, scn)
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("resilience seed replay diverged:\nfirst: %+v\nagain: %+v", first, again)
				}
				cfg.Sequential = true
				seq := runScenario(t, cfg, scn)
				if !reflect.DeepEqual(first, seq) {
					t.Fatalf("parallel engine diverged from sequential under resilience chaos:\npar: %+v\nseq: %+v", first, seq)
				}
				if first.Errors == 0 {
					t.Error("fault windows produced no errors: the burst never bit")
				}
				if first.Retries == 0 {
					t.Error("no retries fired despite errors and a retry budget")
				}
				if first.Hedges == 0 {
					t.Error("no hedges sent despite a hedging read class")
				}
			})
		}
	}
}

// TestHedgesServeOnReplica pins the hedge routing contract: a hedge is a
// speculative duplicate to a DIFFERENT live replica, pinned to that chain
// position at spawn time. On a two-node, one-shard, two-replica fleet
// every hedge must therefore be served (and counted) on the replica node,
// never re-routed back onto the primary it hedges against.
func TestHedgesServeOnReplica(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Shards = 1
	cfg.ShardReplicas = 2
	cfg.Seed = 29
	c := New(cfg)
	primary, replica := c.chains[0][0], c.chains[0][1]
	c.Close()

	classes := []workload.TrafficClass{
		{Name: "point", Rate: 40_000, Keys: 4_000, ReadFraction: 1, ValueBytes: 4 << 10,
			Resilience: &workload.Resilience{Hedge: 20 * simtime.Microsecond}},
	}
	scn := workload.Scenario{
		Name:   "hedge-pin",
		Seed:   29,
		Phases: []workload.Phase{{Name: "steady", Duration: 40 * simtime.Millisecond, Classes: classes}},
	}
	rep := runScenario(t, cfg, scn)
	if rep.Hedges == 0 {
		t.Fatal("hedging read class sent no hedges")
	}
	if got := rep.PerNode[primary].Hedges; got != 0 {
		t.Errorf("primary node %d served %d hedges — hedges must go to the replica", primary, got)
	}
	if got := rep.PerNode[replica].Hedges; got != rep.Hedges {
		t.Errorf("replica node %d served %d of %d hedges", replica, got, rep.Hedges)
	}
	cfg.Sequential = true
	seq := runScenario(t, cfg, scn)
	if !reflect.DeepEqual(rep, seq) {
		t.Fatal("hedge-pinned run diverged between engines")
	}
}

// TestResilienceConservationOracle pins the chain-accounting identities on
// an all-write run (no hedges by construction) with fault windows, a tight
// timeout and a retry budget but no shedding and no topology events — the
// regime where nothing is discarded, so the identities are exact:
//
//	Served   == clients + Retries - Errors   (no attempt lost or served twice)
//	Served   -  Timeouts == clients - Failed (each chain succeeds at most once)
//	Retries  == Errors + Timeouts - Failed   (each retry has exactly one cause)
func TestResilienceConservationOracle(t *testing.T) {
	cfg := drillConfig(ServiceRedis, AllocGlibc)
	target := primaryHeavyNode(cfg)
	classes := []workload.TrafficClass{
		{Name: "ingest", Rate: 50_000, Keys: 4_000, ReadFraction: 0, ValueBytes: 8 << 10,
			Resilience: &workload.Resilience{
				Timeout: 50 * simtime.Microsecond,
				Retries: 3,
				Backoff: 20 * simtime.Microsecond,
				Jitter:  0.3,
			}},
	}
	scn := workload.Scenario{
		Name: "conserve",
		Seed: 23,
		Phases: []workload.Phase{
			{Name: "burn", Duration: 120 * simtime.Millisecond, Classes: classes},
		},
		Events: []workload.Event{
			{At: 30 * simtime.Millisecond, Node: target, Kind: workload.EventDegradeNode, Factor: 10},
			{At: 90 * simtime.Millisecond, Node: target, Kind: workload.EventHealNode},
			{At: 40 * simtime.Millisecond, Node: target, Kind: workload.EventFaultWindow, ErrorRate: 0.25, Duration: 30 * simtime.Millisecond},
		},
	}
	rep := runScenario(t, cfg, scn)

	calm := scn
	calm.Events = nil
	calm.Phases = []workload.Phase{{Name: "burn", Duration: 120 * simtime.Millisecond,
		Classes: []workload.TrafficClass{{Name: "ingest", Rate: 50_000, Keys: 4_000, ReadFraction: 0, ValueBytes: 8 << 10}}}}
	clients := runScenario(t, cfg, calm).Requests

	if rep.Errors == 0 || rep.Timeouts == 0 || rep.Retries == 0 {
		t.Fatalf("oracle run did not exercise all paths: errors=%d timeouts=%d retries=%d",
			rep.Errors, rep.Timeouts, rep.Retries)
	}
	if rep.Hedges != 0 {
		t.Fatalf("all-write run sent %d hedges", rep.Hedges)
	}
	if got, want := rep.Requests, clients+rep.Retries-rep.Errors; got != want {
		t.Errorf("served %d attempts, want clients(%d) + retries(%d) - errors(%d) = %d — an attempt was lost or double-counted",
			got, clients, rep.Retries, rep.Errors, want)
	}
	if got, want := rep.Requests-rep.Timeouts, clients-rep.Failed; got != want {
		t.Errorf("successful serves %d, want clients(%d) - failed(%d) = %d — a chain succeeded twice or a success went missing",
			got, clients, rep.Failed, want)
	}
	if got, want := rep.Retries, rep.Errors+rep.Timeouts-rep.Failed; got != want {
		t.Errorf("retries %d, want errors(%d) + timeouts(%d) - failed(%d) = %d — a retry fired without a cause",
			rep.Retries, rep.Errors, rep.Timeouts, rep.Failed, want)
	}
	var retries, timeouts, errors, failed int64
	for _, nr := range rep.PerNode {
		retries += nr.Retries
		timeouts += nr.Timeouts
		errors += nr.Errors
		failed += nr.Failed
	}
	if retries != rep.Retries || timeouts != rep.Timeouts || errors != rep.Errors || failed != rep.Failed {
		t.Errorf("per-node resilience columns (%d/%d/%d/%d) don't sum to the cluster totals (%d/%d/%d/%d)",
			retries, timeouts, errors, failed, rep.Retries, rep.Timeouts, rep.Errors, rep.Failed)
	}
}

// TestResilienceQuiescent: a resilience policy that never triggers (huge
// timeout, no events, no hedge) must leave every counter at zero and serve
// exactly what the policy-free run serves — the layer is pay-for-what-fires.
func TestResilienceQuiescent(t *testing.T) {
	cfg := drillConfig(ServiceRedis, AllocGlibc)
	classes := []workload.TrafficClass{
		{Name: "point", Rate: 40_000, Keys: 4_000, ReadFraction: 0.5, ValueBytes: 4 << 10,
			Resilience: &workload.Resilience{
				Timeout: simtime.Second,
				Retries: 2,
				Backoff: 20 * simtime.Microsecond,
			}},
	}
	scn := workload.Scenario{
		Name:   "quiet",
		Seed:   11,
		Phases: []workload.Phase{{Name: "steady", Duration: 60 * simtime.Millisecond, Classes: classes}},
	}
	rep := runScenario(t, cfg, scn)

	calm := scn
	calm.Phases = []workload.Phase{{Name: "steady", Duration: 60 * simtime.Millisecond,
		Classes: []workload.TrafficClass{{Name: "point", Rate: 40_000, Keys: 4_000, ReadFraction: 0.5, ValueBytes: 4 << 10}}}}
	calmRep := runScenario(t, cfg, calm)

	if rep.Retries != 0 || rep.Timeouts != 0 || rep.Errors != 0 || rep.Hedges != 0 || rep.Shed != 0 || rep.Failed != 0 {
		t.Fatalf("quiescent policy fired: %+v", rep.Report)
	}
	if rep.Requests != calmRep.Requests {
		t.Fatalf("quiescent resilient run served %d requests, the policy-free run %d",
			rep.Requests, calmRep.Requests)
	}
	cfg.Sequential = true
	seq := runScenario(t, cfg, scn)
	if !reflect.DeepEqual(rep, seq) {
		t.Fatal("quiescent resilient run diverged between engines")
	}
}

// TestDegradeBites pins the degrade/heal semantics: the degraded node's
// latency rises during its window and only there, the heal releases it, and
// no traffic is lost — degrade slows, it never drops.
func TestDegradeBites(t *testing.T) {
	cfg := drillConfig(ServiceRedis, AllocGlibc)
	target := primaryHeavyNode(cfg)
	classes := []workload.TrafficClass{
		{Name: "point", Rate: 40_000, Keys: 4_000, ReadFraction: 0.5, ValueBytes: 4 << 10},
	}
	scn := workload.Scenario{
		Name: "degrade",
		Seed: 7,
		Phases: []workload.Phase{
			{Name: "steady", Duration: 40 * simtime.Millisecond, Classes: classes},
			{Name: "slow", Duration: 40 * simtime.Millisecond, Classes: classes},
			{Name: "healed", Duration: 40 * simtime.Millisecond, Classes: classes},
		},
		Events: []workload.Event{
			{At: 40 * simtime.Millisecond, Node: target, Kind: workload.EventDegradeNode, Factor: 6},
			{At: 80 * simtime.Millisecond, Node: target, Kind: workload.EventHealNode},
		},
	}
	rep := runScenario(t, cfg, scn)

	calm := scn
	calm.Events = nil
	calmRep := runScenario(t, cfg, calm)

	if rep.Requests != calmRep.Requests {
		t.Fatalf("degrade lost traffic: %d served vs %d calm", rep.Requests, calmRep.Requests)
	}
	slow, calmSlow := rep.Phases[1].Latency, calmRep.Phases[1].Latency
	if slow.P99 <= calmSlow.P99 || slow.Mean <= calmSlow.Mean {
		t.Fatalf("degrade did not bite: slow phase p99 %v (calm %v), mean %v (calm %v)",
			slow.P99, calmSlow.P99, slow.Mean, calmSlow.Mean)
	}
	healed, calmHealed := rep.Phases[2].Latency, calmRep.Phases[2].Latency
	if healed.P99 > calmHealed.P99*2 {
		t.Fatalf("heal did not release the node: healed phase p99 %v vs calm %v", healed.P99, calmHealed.P99)
	}
}

// TestShedControllerBites is the brownout acceptance check at unit scale:
// under a sustained degrade that breaches the SLO, the controller must shed
// (Shed > 0 only on the degraded node), and the run with the shed policy
// must deliver a lower served-traffic p99 and no worse SLO compliance than
// the same run without it.
func TestShedControllerBites(t *testing.T) {
	cfg := drillConfig(ServiceRedis, AllocGlibc)
	target := primaryHeavyNode(cfg)
	classes := []workload.TrafficClass{
		{Name: "point", Rate: 120_000, Keys: 6_000, ReadFraction: 0.5, ValueBytes: 4 << 10},
	}
	scn := workload.Scenario{
		Name: "shed",
		Seed: 13,
		Phases: []workload.Phase{
			{Name: "steady", Duration: 30 * simtime.Millisecond, Classes: classes},
			{Name: "brownout", Duration: 90 * simtime.Millisecond, Classes: classes},
		},
		Events: []workload.Event{
			{At: 30 * simtime.Millisecond, Node: target, Kind: workload.EventDegradeNode, Factor: 12},
		},
		SLO:      &workload.SLO{P99: 100 * simtime.Microsecond, Window: 5 * simtime.Millisecond},
		Policies: &workload.Policies{Shed: &workload.ShedPolicy{Step: 0.25, Max: 0.9}},
	}
	shedRep := runScenario(t, cfg, scn)

	static := scn
	static.Policies = nil
	staticRep := runScenario(t, cfg, static)

	if shedRep.Shed == 0 {
		t.Fatal("SLO controller never shed under a sustained breach")
	}
	for ni, nr := range shedRep.PerNode {
		if ni != target && nr.Shed != 0 {
			t.Errorf("healthy node %d shed %d requests", ni, nr.Shed)
		}
	}
	if staticRep.Shed != 0 {
		t.Fatalf("run without a shed policy shed %d requests", staticRep.Shed)
	}
	if shedRep.Cluster.P99 >= staticRep.Cluster.P99 {
		t.Fatalf("shedding did not lower served p99: %v with policy, %v without",
			shedRep.Cluster.P99, staticRep.Cluster.P99)
	}
	if shedRep.SLOCompliance < staticRep.SLOCompliance {
		t.Fatalf("shedding lowered SLO compliance: %.4f with policy, %.4f without",
			shedRep.SLOCompliance, staticRep.SLOCompliance)
	}
	if shedRep.SLOTarget != scn.SLO.P99 {
		t.Fatalf("report SLO target %v, want %v", shedRep.SLOTarget, scn.SLO.P99)
	}
	if out := shedRep.Render(); !strings.Contains(out, "resilience:") || !strings.Contains(out, "slo:") {
		t.Error("report renders no resilience/slo summary")
	}

	cfg.Sequential = true
	seq := runScenario(t, cfg, scn)
	if !reflect.DeepEqual(shedRep, seq) {
		t.Fatal("shed-policy run diverged between engines")
	}
}

// TestResilienceWithTopologyChaos composes the resilience layer with
// kill/restore topology dynamics — the regime where conditional retries
// can be suppressed at spawn (their landing would be unobservable) or
// dropped at routing — and requires both engines to still agree bit for
// bit, with the retry accounting staying within its causal bound.
func TestResilienceWithTopologyChaos(t *testing.T) {
	cfg := drillConfig(ServiceRedis, AllocGlibc)
	target := primaryHeavyNode(cfg)
	scn := brownoutScenario(target)
	scn.Events = append(scn.Events,
		workload.Event{At: 60 * simtime.Millisecond, Node: target, Kind: workload.EventKillNode, Policy: workload.KillDrain},
		workload.Event{At: 100 * simtime.Millisecond, Node: target, Kind: workload.EventRestoreNode},
	)
	par := runScenario(t, cfg, scn)
	cfg.Sequential = true
	seq := runScenario(t, cfg, scn)
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("resilience+topology run diverged between engines:\npar: %+v\nseq: %+v", par, seq)
	}
	if par.Failovers == 0 {
		t.Error("kill diverted no requests under the composed drill")
	}
	if par.Errors == 0 || par.Retries == 0 {
		t.Errorf("composed drill did not exercise the fault paths: errors=%d retries=%d", par.Errors, par.Retries)
	}
	// Suppressed conditionals and route-dropped retries mean some causes
	// never produce a fired retry: the exact identity relaxes to an upper
	// bound.
	if par.Retries > par.Errors+par.Timeouts {
		t.Errorf("retries %d exceed their causes (errors %d + timeouts %d)", par.Retries, par.Errors, par.Timeouts)
	}
}

// TestBrownoutPreset runs the committed brownout preset on both engines at
// a smoke scale: the reports must be bit-identical, the fault burst and the
// retry/hedge paths must bite, the SLO controller must shed on the degraded
// node, and the SLO-adaptive run must beat the same run with the shed
// policy stripped (static degradation) on served p99 without losing
// compliance.
func TestBrownoutPreset(t *testing.T) {
	data, err := os.ReadFile("../../examples/scenarios/brownout.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseScenarioSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Overrides == nil || spec.Overrides.ShardReplicas < 2 {
		t.Fatal("brownout preset must pin shard replicas >= 2 (hedges need a live replica)")
	}
	if spec.Scenario.SLO == nil || spec.Scenario.Policies == nil || spec.Scenario.Policies.Shed == nil {
		t.Fatal("brownout preset must declare an SLO and a shed policy")
	}
	cfg, err := spec.Overrides.Apply(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = spec.Scenario.Seed
	scn := spec.Scenario.Scaled(0.05)

	par := runScenario(t, cfg, scn)
	cfg.Sequential = true
	seq := runScenario(t, cfg, scn)
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("brownout preset diverged between engines:\npar: %+v\nseq: %+v", par, seq)
	}
	if par.Errors == 0 || par.Retries == 0 || par.Hedges == 0 {
		t.Fatalf("preset brownout did not bite: errors=%d retries=%d hedges=%d",
			par.Errors, par.Retries, par.Hedges)
	}
	if par.Shed == 0 {
		t.Fatal("preset SLO controller never shed during the breach")
	}

	// The degrade target must own shard primaries, or the brownout
	// demonstrates nothing — guard against ring drift re-shuffling it.
	cfg.Sequential = false
	c := New(cfg)
	defer c.Close()
	target := spec.Scenario.Events[0].Node
	owns := 0
	for _, chain := range c.chains {
		if chain[0] == target {
			owns++
		}
	}
	if owns == 0 {
		t.Fatalf("preset degrades node %d, which owns no shard primaries", target)
	}

	// Adaptive vs static: strip the shed policy and replay the identical
	// brownout. The SLO-adaptive run must deliver a lower served p99 and no
	// worse compliance.
	static := scn
	static.Policies = nil
	staticRep := runScenario(t, cfg, static)
	if staticRep.Shed != 0 {
		t.Fatalf("static run shed %d requests without a policy", staticRep.Shed)
	}
	if par.Cluster.P99 >= staticRep.Cluster.P99 {
		t.Fatalf("adaptive shedding did not lower served p99: %v adaptive, %v static",
			par.Cluster.P99, staticRep.Cluster.P99)
	}
	if par.SLOCompliance < staticRep.SLOCompliance {
		t.Fatalf("adaptive shedding lowered SLO compliance: %.4f adaptive, %.4f static",
			par.SLOCompliance, staticRep.SLOCompliance)
	}
}

// TestResilienceValidation: malformed soft-fault timelines — heals without
// a degrade, fault windows on unknown shards — come back as field-named
// errors before the run starts, never a panic.
func TestResilienceValidation(t *testing.T) {
	cfg := drillConfig(ServiceRedis, AllocGlibc)
	c := New(cfg)
	defer c.Close()
	base := brownoutScenario(1)

	mut := func(events ...workload.Event) workload.Scenario {
		s := base
		s.SLO, s.Policies = nil, nil
		s.Events = events
		return s
	}
	badShard := 99
	cases := []struct {
		name string
		scn  workload.Scenario
		want string
	}{
		{"heal without degrade", mut(workload.Event{At: 0, Node: 1, Kind: workload.EventHealNode}),
			"not degraded"},
		{"fault window on unknown shard", mut(workload.Event{At: 0, Node: -1, Kind: workload.EventFaultWindow,
			ErrorRate: 0.5, Duration: simtime.Millisecond, Shard: &badShard}),
			"cluster has 8 shards"},
		{"degrade without factor", mut(workload.Event{At: 0, Node: 1, Kind: workload.EventDegradeNode}),
			"Factor"},
		{"fault window without duration", mut(workload.Event{At: 0, Node: 1, Kind: workload.EventFaultWindow,
			ErrorRate: 0.5}),
			"Duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.RunScenario(tc.scn)
			if err == nil {
				t.Fatal("malformed resilience timeline accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestRetryQueueOrder checks the retry queue against a sorted oracle over
// random pushes and pops crowded onto eight instants: every pop returns the
// attempt the oracle puts first in (at, seq) order, arrival instant then
// insertion order, and the slab never holds more slots than the most
// attempts queued at once.
func TestRetryQueueOrder(t *testing.T) {
	type key struct {
		at  simtime.Time
		seq int64
	}
	byAtSeq := func(a, b key) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	}
	rng := rand.New(rand.NewPCG(20, 1))
	var (
		q      retryQueue
		oracle []key
		seq    int64
		peak   int
		got    pendingAttempt
	)
	pop := func() {
		slices.SortFunc(oracle, byAtSeq)
		want := oracle[0]
		oracle = oracle[1:]
		q.pop(&got)
		if got.id != want.seq || got.req.At != want.at {
			t.Fatalf("popped attempt %d at %v, want %d at %v", got.id, got.req.At, want.seq, want.at)
		}
	}
	for step := 0; step < 20_000; step++ {
		// Blocks of 500 steps alternate between growing and draining the
		// queue, so slots are freed and reused at many depths.
		pushOdds := 3
		if step/500%2 == 1 {
			pushOdds = 7
		}
		if len(oracle) == 0 || rng.IntN(10) < pushOdds {
			seq++
			a := pendingAttempt{id: seq}
			a.req.At = simtime.Time(rng.IntN(8))
			q.push(&a)
			oracle = append(oracle, key{a.req.At, seq})
			peak = max(peak, len(oracle))
		} else {
			pop()
		}
		if q.len() != len(oracle) {
			t.Fatalf("step %d: queue holds %d attempts, want %d", step, q.len(), len(oracle))
		}
		if len(q.slab) > peak {
			t.Fatalf("step %d: slab has %d slots, but at most %d attempts were ever queued", step, len(q.slab), peak)
		}
	}
	for len(oracle) > 0 {
		pop()
	}
	if q.len() != 0 || len(q.free) != len(q.slab) {
		t.Fatalf("drained queue holds %d keys with %d of %d slots free", q.len(), len(q.free), len(q.slab))
	}
}

// BenchmarkGenerateAttempts times the attempt expander alone over the
// committed brownout preset: generateAttempts into a sink that only counts,
// with the cluster, resilience layer and run record built outside the
// timer. It reports ns per emitted attempt.
func BenchmarkGenerateAttempts(b *testing.B) {
	data, err := os.ReadFile("../../examples/scenarios/brownout.json")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := ParseScenarioSpec(data)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := spec.Overrides.Apply(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seed = spec.Scenario.Seed
	scn := spec.Scenario
	c := New(cfg)
	defer c.Close()
	attempts := 0
	sink := func(workload.Request, int32, int32, int32, resAttempt) { attempts++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo, err := c.newTopology(scn)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.newResilience(scn)
		if err != nil {
			b.Fatal(err)
		}
		sr := c.newScenarioRun(scn, topo, res)
		b.StartTimer()
		c.generateAttempts(scn, sr, sink)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
}
