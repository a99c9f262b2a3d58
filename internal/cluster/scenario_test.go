package cluster

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// eventScenario is the acceptance scenario: three phases, two traffic
// classes, and a timeline that raises a mid-run pressure storm plus a
// per-node memory squeeze — enough machinery to expose any
// order-of-execution dependence between engines.
func eventScenario() (Config, workload.Scenario) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.Shards = 6
	cfg.Kernel.TotalMemory = 1 << 30
	cfg.Kernel.SwapBytes = 1 << 30
	cfg.Seed = 11

	classes := []workload.TrafficClass{
		{Name: "point", Rate: 60_000, Keys: 4_000, ZipfS: 1.1, ReadFraction: 0.5, ValueBytes: 16 << 10},
		{Name: "bulk", Rate: 15_000, Keys: 500, ReadFraction: 0.2, ValueBytes: 64 << 10},
	}
	scn := workload.Scenario{
		Name: "storm",
		Seed: 11,
		Phases: []workload.Phase{
			{Name: "warm", Duration: 120 * simtime.Millisecond, Classes: classes},
			{
				Name: "storm", Duration: 160 * simtime.Millisecond,
				Shape:   workload.RateShape{Kind: workload.ShapeSpike, Factor: 3, At: 40 * simtime.Millisecond, Width: 80 * simtime.Millisecond},
				Classes: classes,
			},
			{Name: "recover", Requests: 6_000, Classes: classes[:1]},
		},
		Events: []workload.Event{
			{At: 130 * simtime.Millisecond, Node: -1, Kind: workload.EventSqueezeStart, Bytes: 200 << 20},
			{At: 140 * simtime.Millisecond, Node: -1, Kind: workload.EventBatchStart,
				Batch: &batch.Config{Jobs: 3, ContainersPerJob: 4, TargetBytes: 900 << 20,
					InputBytes: 32 << 20, WorkDuration: 50 * simtime.Millisecond,
					RampTicks: 3, TickPeriod: 10 * simtime.Millisecond}},
			{At: 160 * simtime.Millisecond, Node: 1, Kind: workload.EventPressureStart,
				Pressure: &workload.PressureConfig{Kind: workload.PressureAnon, FreeBytes: 16 << 20, Period: 2 * simtime.Millisecond}},
			{At: 240 * simtime.Millisecond, Node: 1, Kind: workload.EventPressureStop},
			{At: 250 * simtime.Millisecond, Node: -1, Kind: workload.EventBatchStop},
			{At: 260 * simtime.Millisecond, Node: -1, Kind: workload.EventSqueezeStop},
		},
	}
	return cfg, scn
}

func runScenario(t *testing.T, cfg Config, scn workload.Scenario) ScenarioReport {
	t.Helper()
	c := New(cfg)
	defer c.Close()
	rep, err := c.RunScenario(scn)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		n.Kernel().CheckInvariants()
	}
	return rep
}

// TestScenarioEventsBite verifies the timeline actually changes the
// simulation: the squeeze plus pressure storm must force reclaim activity
// that an event-free copy of the scenario never sees, and every phase ×
// class cell of the report must account its requests.
func TestScenarioEventsBite(t *testing.T) {
	cfg, scn := eventScenario()
	stormy := runScenario(t, cfg, scn)

	calm := scn
	calm.Events = nil
	quiet := runScenario(t, cfg, calm)

	var stormReclaims, quietReclaims int64
	for i := range stormy.PerNode {
		stormReclaims += stormy.PerNode[i].Kernel.PagesReclaimed
		quietReclaims += quiet.PerNode[i].Kernel.PagesReclaimed
	}
	if stormReclaims <= quietReclaims {
		t.Errorf("events did not bite: %d pages reclaimed with the storm, %d without", stormReclaims, quietReclaims)
	}

	if len(stormy.Phases) != 3 {
		t.Fatalf("got %d phase reports, want 3", len(stormy.Phases))
	}
	var total int64
	for pi, p := range stormy.Phases {
		if p.Requests == 0 {
			t.Errorf("phase %d (%s) served no requests", pi, p.Name)
		}
		var phaseSum int64
		for _, tc := range p.Classes {
			if tc.Requests != tc.Reads+tc.Writes {
				t.Errorf("phase %d class %s: requests %d != reads %d + writes %d", pi, tc.Name, tc.Requests, tc.Reads, tc.Writes)
			}
			phaseSum += tc.Requests
		}
		if phaseSum != p.Requests {
			t.Errorf("phase %d: class sum %d != phase requests %d", pi, phaseSum, p.Requests)
		}
		total += p.Requests
	}
	if total != stormy.Requests {
		t.Errorf("phase sum %d != report requests %d", total, stormy.Requests)
	}
	if stormy.Phases[2].Requests != 6_000 {
		t.Errorf("request-bounded phase served %d, want 6000", stormy.Phases[2].Requests)
	}
}

// TestScenarioValidationUpFront: malformed scenarios and events targeting
// machinery the fleet doesn't have come back as errors before the run
// starts — not as panics deep in the loop.
func TestScenarioValidationUpFront(t *testing.T) {
	cfg, scn := eventScenario()
	c := New(cfg)
	defer c.Close()

	bad := scn
	bad.Events = []workload.Event{{At: 0, Node: 7, Kind: workload.EventSqueezeStart, Bytes: 1 << 20}}
	if _, err := c.RunScenario(bad); err == nil || !strings.Contains(err.Error(), "cluster has 3 nodes") {
		t.Errorf("out-of-range event node: got %v", err)
	}

	bad = scn
	bad.Events = []workload.Event{{At: 0, Node: -1, Kind: workload.EventDaemonStart}}
	if _, err := c.RunScenario(bad); err == nil || !strings.Contains(err.Error(), "hermes allocator") {
		t.Errorf("daemon event on glibc cluster: got %v", err)
	}

	bad = scn
	bad.Phases = nil
	if _, err := c.RunScenario(bad); err == nil || !strings.Contains(err.Error(), "at least one phase") {
		t.Errorf("empty scenario: got %v", err)
	}
}

// TestScenarioDaemonEvents: daemon enable/disable mid-run on a Hermes
// cluster — the daemon must come up (and do work) only between its events.
func TestScenarioDaemonEvents(t *testing.T) {
	cfg, scn := eventScenario()
	cfg.Allocator = AllocHermes
	scn.Events = append(scn.Events,
		workload.Event{At: 140 * simtime.Millisecond, Node: -1, Kind: workload.EventDaemonStart},
		workload.Event{At: 250 * simtime.Millisecond, Node: -1, Kind: workload.EventDaemonStop},
	)
	first := runScenario(t, cfg, scn)
	again := runScenario(t, cfg, scn)
	if !reflect.DeepEqual(first, again) {
		t.Fatal("daemon-event scenario replay diverged")
	}
}
