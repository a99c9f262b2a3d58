package campaign

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/cluster"
	"github.com/hermes-sim/hermes/internal/simtime"
)

func simDur(ns int64) simtime.Duration { return simtime.Duration(ns) }

// miniSpec is a deliberately small but fully featured campaign: an inline
// scenario with an SLO and a policies block, swept over skew × policy with
// two seed replicas — 8 cells, 4 groups, metrics on.
const miniSpec = `{
  "name": "mini-sweep",
  "metrics_period": "20ms",
  "scenario": {
    "cluster": {"nodes": 2, "shards": 4, "service": "redis", "allocator": "hermes", "mem_gb": 2},
    "scenario": {
      "name": "mini",
      "seed": 7,
      "phases": [{"name": "p", "duration": "80ms", "classes": [
        {"name": "pt", "rate": 30000, "keys": 2000, "zipf": 1.1, "reads": 0.7, "value_bytes": 1024}
      ]}],
      "slo": {"p99": "100us", "window": "20ms"},
      "policies": {"shed": {"step": 0.25, "max": 0.9}}
    }
  },
  "axes": {
    "zipf": [1.05, 1.3],
    "policies": ["adaptive", "static"],
    "seeds": [1, 2]
  }
}`

func loadMini(t *testing.T) *Campaign {
	t.Helper()
	c, err := parse([]byte(miniSpec), ".")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGridExpansion(t *testing.T) {
	c := loadMini(t)
	cells := c.Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Fixed axis order: zipf outer, policy inner, seed innermost.
	wantFirst := "zipf=1.05/policy=adaptive/seed=1"
	if cells[0].ID != wantFirst {
		t.Errorf("cells[0].ID = %q, want %q", cells[0].ID, wantFirst)
	}
	wantLast := "zipf=1.3/policy=static/seed=2"
	if cells[7].ID != wantLast {
		t.Errorf("cells[7].ID = %q, want %q", cells[7].ID, wantLast)
	}
	groups := map[string]int{}
	for i, cell := range cells {
		if cell.Index != i {
			t.Errorf("cells[%d].Index = %d", i, cell.Index)
		}
		groups[cell.Group]++
	}
	if len(groups) != 4 {
		t.Errorf("got %d groups, want 4: %v", len(groups), groups)
	}
	for g, n := range groups {
		if n != 2 {
			t.Errorf("group %s has %d seed replicas, want 2", g, n)
		}
	}
}

func TestGridNoAxes(t *testing.T) {
	spec := strings.Replace(miniSpec,
		`"zipf": [1.05, 1.3],
    "policies": ["adaptive", "static"],
    "seeds": [1, 2]`, "", 1)
	c, err := parse([]byte(spec), ".")
	if err != nil {
		t.Fatal(err)
	}
	cells := c.Cells()
	if len(cells) != 1 {
		t.Fatalf("axis-free campaign expanded to %d cells, want 1", len(cells))
	}
	if cells[0].Group != "base" {
		t.Errorf("group = %q, want base", cells[0].Group)
	}
	if cells[0].Seed != 7 {
		t.Errorf("seed = %d, want the scenario's own 7", cells[0].Seed)
	}
}

// stripWall zeroes the only field allowed to differ between two runs of
// the same campaign: host wall clock.
func stripWall(r *Report) {
	for i := range r.Cells {
		r.Cells[i].WallMS = 0
	}
}

// TestParallelMatchesSequential is the campaign half of the determinism
// contract: the full report (every cell's scenario report, every metrics
// window, every aggregate) is bit-identical whether cells run on one
// worker or race across four.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := loadMini(t).Run(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := loadMini(t).Run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	stripWall(seq)
	stripWall(par)
	if !reflect.DeepEqual(seq, par) {
		for i := range seq.Cells {
			if !reflect.DeepEqual(seq.Cells[i], par.Cells[i]) {
				t.Fatalf("cell %s differs between 1-worker and 4-worker runs", seq.Cells[i].ID)
			}
		}
		t.Fatal("aggregates differ between 1-worker and 4-worker runs")
	}
}

// TestCellMatchesStandalone is the other half: a cell's report is exactly
// what a standalone cluster produces from the (config, scenario) pair
// BuildCell returns — the harness adds orchestration, never perturbation.
func TestCellMatchesStandalone(t *testing.T) {
	c := loadMini(t)
	rep, err := c.Run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cells := c.Cells()
	// Spot-check the first and last cells: one adaptive, one static.
	for _, idx := range []int{0, len(cells) - 1} {
		cfg, scn, err := c.BuildCell(cells[idx])
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster.New(cfg)
		want, err := cl.RunScenario(scn)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Cells[idx].Report, want) {
			t.Errorf("cell %s: campaign report differs from standalone RunScenario", cells[idx].ID)
		}
	}
}

// TestCellIsolation: cells mutate their scenario copy (zipf, rate), so the
// campaign's base scenario must stay pristine across builds.
func TestCellIsolation(t *testing.T) {
	c := loadMini(t)
	cells := c.Cells()
	_, scn1, err := c.BuildCell(cells[0]) // zipf=1.05
	if err != nil {
		t.Fatal(err)
	}
	_, scn2, err := c.BuildCell(cells[len(cells)-1]) // zipf=1.3
	if err != nil {
		t.Fatal(err)
	}
	if got := scn1.Phases[0].Classes[0].ZipfS; got != 1.05 {
		t.Errorf("first cell's zipf mutated to %v after a later build, want 1.05", got)
	}
	if got := scn2.Phases[0].Classes[0].ZipfS; got != 1.3 {
		t.Errorf("last cell's zipf = %v, want 1.3", got)
	}
	if got := c.base.Scenario.Phases[0].Classes[0].ZipfS; got != 1.1 {
		t.Errorf("base scenario's zipf mutated to %v, want the original 1.1", got)
	}
	if scn2.Policies != nil {
		t.Error("static cell kept its policies block")
	}
	if scn1.Policies == nil {
		t.Error("adaptive cell lost its policies block")
	}
}

func TestLoadRejects(t *testing.T) {
	cases := []struct {
		name string
		edit func(string) string
		want string
	}{
		{"no name", func(s string) string { return strings.Replace(s, `"name": "mini-sweep",`, "", 1) }, "needs a name"},
		{"bad policy", func(s string) string { return strings.Replace(s, `"static"`, `"frozen"`, 1) }, "unknown policy"},
		{"bad period", func(s string) string { return strings.Replace(s, `"20ms"`, `"-20ms"`, 1) }, "metrics_period"},
		{"bad scale", func(s string) string {
			return strings.Replace(s, `"metrics_period": "20ms",`, `"scale": -1, "metrics_period": "20ms",`, 1)
		}, "scale must be a positive, finite number (got -1)"},
		// Every spec layer decodes strictly: an unknown or retired key fails
		// by name instead of silently running the default.
		{"class generator", func(s string) string {
			return strings.Replace(s, `"value_bytes": 1024}`, `"value_bytes": 1024, "generator": "legacy"}`, 1)
		}, `unknown field "generator"`},
		{"scenario typo", func(s string) string { return strings.Replace(s, `"seed": 7,`, `"sede": 7,`, 1) }, `unknown field "sede"`},
		{"cluster typo", func(s string) string { return strings.Replace(s, `"mem_gb": 2`, `"memgb": 2`, 1) }, `unknown field "memgb"`},
		{"campaign typo", func(s string) string {
			return strings.Replace(s, `"metrics_period": "20ms",`, `"metric_period": "20ms",`, 1)
		}, `unknown field "metric_period"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse([]byte(tc.edit(miniSpec)), ".")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestScaleByRejects: a CLI scale multiplier that is not positive and
// finite, or one that overflows the spec's scale, fails by name and leaves
// the campaign's scale untouched.
func TestScaleByRejects(t *testing.T) {
	c := loadMini(t)
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := c.ScaleBy(f); err == nil || !strings.Contains(err.Error(), "scale multiplier must be a positive, finite number") {
			t.Errorf("ScaleBy(%v) = %v", f, err)
		}
	}
	c.Scale = 1e300
	if err := c.ScaleBy(1e300); err == nil || !strings.Contains(err.Error(), "must be a positive, finite number (got +Inf)") {
		t.Errorf("overflowing ScaleBy = %v", err)
	}
	if c.Scale != 1e300 {
		t.Errorf("rejected ScaleBy changed the scale to %v", c.Scale)
	}
	if err := c.ScaleBy(0.5); err != nil || c.Scale != 5e299 {
		t.Errorf("ScaleBy(0.5) = %v, scale %v, want nil, 5e299", err, c.Scale)
	}
}

// TestCommittedCampaignsLoad pins the committed campaign specs: they must
// load (scenario_file resolution included) and expand to their documented
// grids — adaptive-sweep to its 24 cells / 8 groups, ci-smoke to 4 cells.
func TestCommittedCampaignsLoad(t *testing.T) {
	cases := []struct {
		file         string
		cells, seeds int
	}{
		{"adaptive-sweep.json", 24, 3},
		{"ci-smoke.json", 4, 1},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			c, err := Load(filepath.Join("..", "..", "examples", "campaigns", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			cells := c.Cells()
			if len(cells) != tc.cells {
				t.Fatalf("expanded to %d cells, want %d", len(cells), tc.cells)
			}
			perGroup := map[string]int{}
			for _, cell := range cells {
				perGroup[cell.Group]++
			}
			for g, n := range perGroup {
				if n != tc.seeds {
					t.Errorf("group %s has %d seed replicas, want %d", g, n, tc.seeds)
				}
			}
		})
	}
}

func TestDiff(t *testing.T) {
	base := func() *Report {
		return &Report{Name: "base", Groups: []GroupResult{{
			ID:         "zipf=1.1",
			P99:        Estimate{Median: 100e3, Lo: 95e3, Hi: 105e3},
			Compliance: Estimate{Median: 0.99, Lo: 0.985, Hi: 0.995},
		}}}
	}

	t.Run("identical reports pass", func(t *testing.T) {
		out, bad := Diff(base(), base(), 5)
		if bad {
			t.Fatalf("identical reports flagged as regression:\n%s", out)
		}
	})

	t.Run("p99 regression flagged", func(t *testing.T) {
		nr := base()
		nr.Groups[0].P99 = Estimate{Median: 130e3, Lo: 125e3, Hi: 135e3}
		out, bad := Diff(base(), nr, 5)
		if !bad {
			t.Fatalf("+30%% p99 above the old CI not flagged:\n%s", out)
		}
		if !strings.Contains(out, "p99 REGRESSED") {
			t.Errorf("diff text missing p99 flag:\n%s", out)
		}
	})

	t.Run("noise inside gate passes", func(t *testing.T) {
		nr := base()
		// +2% and inside the old CI: both bars must be crossed to flag.
		nr.Groups[0].P99 = Estimate{Median: 102e3, Lo: 98e3, Hi: 106e3}
		out, bad := Diff(base(), nr, 5)
		if bad {
			t.Fatalf("+2%% p99 inside the gate flagged:\n%s", out)
		}
	})

	t.Run("compliance regression flagged", func(t *testing.T) {
		nr := base()
		nr.Groups[0].Compliance = Estimate{Median: 0.90, Lo: 0.89, Hi: 0.91}
		out, bad := Diff(base(), nr, 5)
		if !bad {
			t.Fatalf("9-point compliance drop not flagged:\n%s", out)
		}
		if !strings.Contains(out, "compliance REGRESSED") {
			t.Errorf("diff text missing compliance flag:\n%s", out)
		}
	})

	t.Run("missing group flagged", func(t *testing.T) {
		nr := base()
		nr.Groups[0].ID = "zipf=2.0"
		out, bad := Diff(base(), nr, 5)
		if !bad {
			t.Fatal("vanished baseline group not flagged")
		}
		if !strings.Contains(out, "MISSING") || !strings.Contains(out, "new group") {
			t.Errorf("diff text missing group-set lines:\n%s", out)
		}
	})
}

func TestAggregateDeterministic(t *testing.T) {
	cells := []CellResult{
		{Group: "g", Seed: 1, Report: cluster.ScenarioReport{}},
		{Group: "g", Seed: 2, Report: cluster.ScenarioReport{}},
		{Group: "g", Seed: 3, Report: cluster.ScenarioReport{}},
	}
	for i, lat := range []int64{100, 120, 110} {
		cells[i].Report.Cluster.P99 = simDur(lat)
		cells[i].Report.SLOCompliance = 0.9 + float64(i)*0.01
	}
	a := aggregate(cells)
	b := aggregate(cells)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("aggregate is not deterministic across calls")
	}
	if len(a) != 1 || len(a[0].Seeds) != 3 {
		t.Fatalf("got %+v, want one group of three seeds", a)
	}
	if a[0].P99.Median != 110 {
		t.Errorf("P99 median = %v, want 110", a[0].P99.Median)
	}
	if a[0].P99.Lo > a[0].P99.Median || a[0].P99.Hi < a[0].P99.Median {
		t.Errorf("CI [%v, %v] does not bracket the median %v", a[0].P99.Lo, a[0].P99.Hi, a[0].P99.Median)
	}
}
