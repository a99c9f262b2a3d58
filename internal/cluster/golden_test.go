package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// presetGoldenScale shrinks every committed preset onto a test budget.
const presetGoldenScale = 0.05

// goldenDispatches are the engine routes every report golden must reproduce
// byte for byte: the sequential oracle, the parallel engine pinned to one
// core (the GOMAXPROCS=1 dispatch), and the parallel engine at the runtime
// default (the chunk pipeline on a multi-core host).
var goldenDispatches = []struct {
	name       string
	sequential bool
	procs      int // 0 keeps the runtime default
}{
	{"sequential", true, 0},
	{"parallel-1core", false, 1},
	{"parallel", false, 0},
}

// reportGolden is one committed report: the cluster it runs on, the run
// itself, and the file holding the expected bytes.
type reportGolden struct {
	path string
	cfg  Config
	run  func(c *Cluster) (any, error)
	// text pins the report's Render() table instead of its JSON.
	text bool
}

// render runs the golden on a fresh cluster and serializes the report the
// way the CLIs print it: as -json output, minus the wall time, or as the
// text table.
func (g reportGolden) render(t *testing.T, cfg Config) []byte {
	t.Helper()
	c := New(cfg)
	defer c.Close()
	rep, err := g.run(c)
	if err != nil {
		t.Fatal(err)
	}
	if g.text {
		return []byte(rep.(interface{ Render() string }).Render())
	}
	var buf bytes.Buffer
	if err := WriteReportJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withProcs runs f at GOMAXPROCS=n (n=0 leaves the setting alone).
func withProcs(n int, f func()) {
	if n > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	f()
}

// firstDiff names the first line where got departs from want.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, strings.TrimSpace(g[i]), strings.TrimSpace(w[i]))
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// check compares the golden's bytes under every dispatch, or rewrites the
// file from the sequential oracle when HERMES_UPDATE_GOLDEN is set.
func (g reportGolden) check(t *testing.T) {
	t.Helper()
	if os.Getenv("HERMES_UPDATE_GOLDEN") != "" {
		cfg := g.cfg
		cfg.Sequential = true
		out := g.render(t, cfg)
		if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(g.path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", g.path, len(out))
		return
	}
	want, err := os.ReadFile(g.path)
	if err != nil {
		t.Fatalf("%v (regenerate with HERMES_UPDATE_GOLDEN=1)", err)
	}
	for _, d := range goldenDispatches {
		cfg := g.cfg
		cfg.Sequential = d.sequential
		var got []byte
		withProcs(d.procs, func() { got = g.render(t, cfg) })
		if !bytes.Equal(got, want) {
			t.Errorf("%s dispatch diverged from %s at %s", d.name, g.path, firstDiff(got, want))
		}
	}
}

// flatGolden is one Cluster.Run golden's inputs.
type flatGolden struct {
	name string
	cfg  Config
	load workload.LoadConfig
}

// golden is the flat load's report golden.
func (f flatGolden) golden() reportGolden {
	return reportGolden{
		path: filepath.Join("testdata", "flat", f.name+".json"),
		cfg:  f.cfg,
		run:  func(c *Cluster) (any, error) { return c.Run(f.load), nil },
	}
}

// flatGoldens are the Cluster.Run goldens: two allocators × two seeds on a
// small fleet, plus the churn config (RocksDB flushes, batch exits,
// reclaim) on streaming histograms.
func flatGoldens() []flatGolden {
	var out []flatGolden
	for _, kind := range []AllocatorKind{AllocGlibc, AllocHermes} {
		for _, seed := range []uint64{1, 99} {
			cfg := DefaultConfig()
			cfg.Nodes = 3
			cfg.Shards = 6
			cfg.Allocator = kind
			cfg.Kernel.TotalMemory = 1 << 30
			cfg.Kernel.SwapBytes = 1 << 30
			cfg.Seed = seed
			load := workload.DefaultLoadConfig()
			load.Requests = 20_000
			load.Keys = 5_000
			load.Seed = seed
			out = append(out, flatGolden{fmt.Sprintf("%s-seed%d", kind, seed), cfg, load})
		}
	}
	cfg, load := churnScenario()
	cfg.Stats = StatsHistogram
	load.Requests = 15_000 // pinned: churnScenario sizes its stream by -short
	return append(out, flatGolden{"churn-histogram", cfg, load})
}

// chaosGoldenScenario is drillScenario's kill/restore timeline plus a
// degrade/heal on another node, a fleet-wide fault window inside the
// outage (it errors writes diverted to replicas) and a shard fault window
// across the restore, all on classes without resilience policies.
func chaosGoldenScenario(kill int) workload.Scenario {
	scn := drillScenario(kill, workload.KillDrain)
	scn.Name = "chaos"
	other, shard := (kill+1)%4, 3
	scn.Events = append(scn.Events,
		workload.Event{At: 40 * simtime.Millisecond, Node: other, Kind: workload.EventDegradeNode, Factor: 4},
		workload.Event{At: 140 * simtime.Millisecond, Node: other, Kind: workload.EventHealNode},
		workload.Event{At: 100 * simtime.Millisecond, Node: -1, Kind: workload.EventFaultWindow,
			ErrorRate: 0.1, Duration: 30 * simtime.Millisecond},
		workload.Event{At: 150 * simtime.Millisecond, Node: -1, Kind: workload.EventFaultWindow,
			ErrorRate: 0.2, Duration: 60 * simtime.Millisecond, Shard: &shard},
	)
	return scn
}

// boundedGoldenScenario is three request-bounded single-class phases, the
// middle one with a retry-and-hedge policy, under a drop-policy kill and
// restore and a node fault window. A degrade ahead of the kill builds the
// backlog the kill drops.
func boundedGoldenScenario(kill int) workload.Scenario {
	point := workload.TrafficClass{Name: "point", Rate: 60_000, Keys: 6_000, ZipfS: 1.1, ReadFraction: 0.6, ValueBytes: 4 << 10}
	retrying := point
	retrying.Name = "retrying"
	retrying.Resilience = &workload.Resilience{
		Timeout: 60 * simtime.Microsecond,
		Retries: 2,
		Backoff: 30 * simtime.Microsecond,
		Jitter:  0.2,
		Hedge:   40 * simtime.Microsecond,
	}
	ingest := workload.TrafficClass{Name: "ingest", Rate: 10_000, Keys: 1_500, ReadFraction: 0.1, ValueBytes: 32 << 10}
	return workload.Scenario{
		Name: "bounded",
		Seed: 17,
		Phases: []workload.Phase{
			{Name: "warm", Requests: 4_000, Classes: []workload.TrafficClass{point}},
			{Name: "chaos", Requests: 8_000, Classes: []workload.TrafficClass{retrying}},
			{Name: "tail", Requests: 3_000, Classes: []workload.TrafficClass{ingest}},
		},
		Events: []workload.Event{
			{At: 90 * simtime.Millisecond, Node: kill, Kind: workload.EventKillNode, Policy: workload.KillDrop},
			{At: 170 * simtime.Millisecond, Node: kill, Kind: workload.EventRestoreNode},
			{At: 80 * simtime.Millisecond, Node: kill, Kind: workload.EventDegradeNode, Factor: 8},
			{At: 170 * simtime.Millisecond, Node: kill, Kind: workload.EventHealNode},
			{At: 110 * simtime.Millisecond, Node: (kill + 1) % 4, Kind: workload.EventFaultWindow,
				ErrorRate: 0.3, Duration: 40 * simtime.Millisecond},
		},
	}
}

// presetGolden is the committed preset's report golden, at
// presetGoldenScale on the preset's pinned allocator or glibc.
func presetGolden(t *testing.T, name string) reportGolden {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseScenarioSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Overrides.Apply(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scn := spec.Scenario.Scaled(presetGoldenScale)
	cfg.Seed = scn.Seed
	return reportGolden{
		path: filepath.Join("testdata", "presets", name+".json"),
		cfg:  cfg,
		run:  func(c *Cluster) (any, error) { return c.RunScenario(scn) },
	}
}

// TestReportGoldens pins the exact report bytes of every committed preset
// (at presetGoldenScale, on the preset's pinned allocator or glibc), of
// hand-built scenarios covering shapes no preset has, and of a set of flat
// Cluster.Run loads. Each golden must come out identical from the
// sequential oracle and from the parallel engine at one core and at the
// runtime default, so an engine change that moves a single byte of any
// report fails here. Regenerate with HERMES_UPDATE_GOLDEN=1 go test -run
// TestReportGoldens ./internal/cluster/ after an intentional engine or
// cost-model change.
func TestReportGoldens(t *testing.T) {
	for _, f := range flatGoldens() {
		t.Run("flat/"+f.name, f.golden().check)
	}

	drill := drillConfig(ServiceRedis, AllocGlibc)
	kill := primaryHeavyNode(drill)
	chaosSLO := chaosGoldenScenario(kill)
	chaosSLO.Name = "chaos-slo"
	chaosSLO.SLO = &workload.SLO{P99: 80 * simtime.Microsecond, Window: 5 * simtime.Millisecond}
	for _, scn := range []workload.Scenario{chaosGoldenScenario(kill), chaosSLO, boundedGoldenScenario(kill)} {
		t.Run("scenario/"+scn.Name, reportGolden{
			path: filepath.Join("testdata", "scenarios", scn.Name+".json"),
			cfg:  drill,
			run:  func(c *Cluster) (any, error) { return c.RunScenario(scn) },
		}.check)
	}

	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed presets found")
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".json")
		t.Run("preset/"+name, func(t *testing.T) { presetGolden(t, name).check(t) })
	}
}

// TestRenderGoldens pins the Render() tables byte for byte, under every
// dispatch like TestReportGoldens: one flat report, and the two presets
// whose tables carry the topology, resilience, SLO and controller lines.
// Regenerate with HERMES_UPDATE_GOLDEN=1, as for the report goldens.
func TestRenderGoldens(t *testing.T) {
	asText := func(g reportGolden, name string) reportGolden {
		g.path = filepath.Join("testdata", "text", name+".txt")
		g.text = true
		return g
	}
	for _, f := range flatGoldens() {
		if f.name == "glibc-seed1" {
			t.Run("flat/"+f.name, asText(f.golden(), "flat-"+f.name).check)
		}
	}
	for _, name := range []string{"brownout", "failover-drill"} {
		t.Run("preset/"+name, func(t *testing.T) { asText(presetGolden(t, name), "preset-"+name).check(t) })
	}
}
