package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

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
}

// render runs the golden on a fresh cluster and serializes the report the
// way the CLIs' -json output does, minus the wall time.
func (g reportGolden) render(t *testing.T, cfg Config) []byte {
	t.Helper()
	c := New(cfg)
	defer c.Close()
	rep, err := g.run(c)
	if err != nil {
		t.Fatal(err)
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

// TestReportGoldens pins the exact report bytes of every committed preset
// (at presetGoldenScale, on the preset's pinned allocator or glibc) and of
// a set of flat Cluster.Run loads. Each golden must come out identical from
// the sequential oracle and from the parallel engine at one core and at the
// runtime default, so an engine change that moves a single byte of any
// report fails here. Regenerate with HERMES_UPDATE_GOLDEN=1 go test -run
// TestReportGoldens ./internal/cluster/ after an intentional engine or
// cost-model change.
func TestReportGoldens(t *testing.T) {
	for _, f := range flatGoldens() {
		g := reportGolden{
			path: filepath.Join("testdata", "flat", f.name+".json"),
			cfg:  f.cfg,
			run:  func(c *Cluster) (any, error) { return c.Run(f.load), nil },
		}
		t.Run("flat/"+f.name, g.check)
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
		t.Run("preset/"+name, func(t *testing.T) {
			data, err := os.ReadFile(file)
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
			reportGolden{
				path: filepath.Join("testdata", "presets", name+".json"),
				cfg:  cfg,
				run:  func(c *Cluster) (any, error) { return c.RunScenario(scn) },
			}.check(t)
		})
	}
}
