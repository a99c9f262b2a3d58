// Package campaign is the experiment harness's sweep runner: a declarative
// campaign spec — one base scenario plus a grid of axes (allocator, key
// skew, rate scaling, node count, adaptive-vs-static policies, seed
// replicas) — expanded into cells, executed in parallel across cores, and
// aggregated into per-group medians with bootstrap confidence intervals.
//
// The determinism contract: a cell's report is bit-identical to a
// standalone Cluster.RunScenario of the exact (Config, Scenario) pair that
// Build returns for the cell, regardless of worker count or completion
// order. Each cell runs on its own Cluster (its own virtual timeline and
// randgen streams), workers write only their own cell's result slot, and
// aggregation runs single-threaded in grid order after the pool drains —
// so parallel and sequential campaign runs produce the identical report.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/hermes-sim/hermes/internal/cluster"
	"github.com/hermes-sim/hermes/internal/metrics"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// Axes is the sweep grid: every non-empty axis multiplies the cell count;
// an empty axis keeps the base scenario's value. Seeds are replicas —
// cells differing only in seed aggregate into one group.
type Axes struct {
	// Allocators sweeps ClusterConfig.Allocator.
	Allocators []cluster.AllocatorKind `json:"allocators,omitempty"`
	// Zipf overrides every traffic class's key-skew exponent (0 = uniform).
	Zipf []float64 `json:"zipf,omitempty"`
	// RateScale multiplies every traffic class's arrival rate.
	RateScale []float64 `json:"rate_scale,omitempty"`
	// Nodes sweeps the fleet size.
	Nodes []int `json:"nodes,omitempty"`
	// Policies toggles the control plane: "adaptive" keeps the scenario's
	// policies block, "static" strips it (the brownout baseline).
	Policies []string `json:"policies,omitempty"`
	// Seeds are the per-group replicas; empty means the scenario's own seed.
	Seeds []uint64 `json:"seeds,omitempty"`
}

// Spec is a campaign file:
//
//	{
//	  "name": "adaptive-sweep",
//	  "scenario_file": "../scenarios/adaptive-brownout.json",
//	  "scale": 0.2,
//	  "metrics_period": "100ms",
//	  "axes": { "zipf": [1.05, 1.3], "rate_scale": [1, 1.25],
//	            "policies": ["adaptive", "static"], "seeds": [1, 2, 3] }
//	}
//
// scenario_file is resolved relative to the campaign file; an inline
// "scenario" object (a full scenario spec document) may replace it.
type Spec struct {
	Name         string          `json:"name"`
	ScenarioFile string          `json:"scenario_file,omitempty"`
	Scenario     json.RawMessage `json:"scenario,omitempty"`
	// Scale multiplies the base scenario's durations and request budgets
	// (Scenario.Scaled); 0 means 1.
	Scale float64 `json:"scale,omitempty"`
	// MetricsPeriod, when set (a Go duration string), collects the
	// per-window time series for every cell at that window width.
	MetricsPeriod string `json:"metrics_period,omitempty"`
	Axes          Axes   `json:"axes"`
}

// Campaign is a loaded, validated campaign ready to expand and run.
type Campaign struct {
	Spec Spec
	// Scale is the effective scenario scale: the spec's, times any CLI
	// multiplier layered on with ScaleBy.
	Scale float64

	base   cluster.ScenarioSpec
	period simtime.Duration // 0 = no metrics
}

// Params identifies a grid group: the applied value of every active axis
// (inactive axes stay at their zero value and are omitted from JSON).
type Params struct {
	Allocator string   `json:"allocator,omitempty"`
	Zipf      *float64 `json:"zipf,omitempty"`
	RateScale *float64 `json:"rate_scale,omitempty"`
	Nodes     int      `json:"nodes,omitempty"`
	Policy    string   `json:"policy,omitempty"`
}

// Cell is one grid point: a group's parameters plus one seed replica.
type Cell struct {
	// Index is the cell's position in grid order — stable across runs.
	Index int
	// Group identifies the cell's aggregation group (all active axes,
	// no seed); ID appends the seed.
	Group  string
	ID     string
	Params Params
	Seed   uint64
}

// Load reads and validates a campaign file, resolving scenario_file
// relative to the campaign file's directory.
func Load(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(data, filepath.Dir(path))
}

func parse(data []byte, baseDir string) (*Campaign, error) {
	var spec Spec
	if err := workload.UnmarshalStrict(data, &spec); err != nil {
		return nil, fmt.Errorf("campaign: spec JSON: %w", err)
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("campaign: spec needs a name")
	}
	if (spec.ScenarioFile == "") == (spec.Scenario == nil) {
		return nil, fmt.Errorf("campaign %q: exactly one of scenario_file or scenario is required", spec.Name)
	}
	sdata := []byte(spec.Scenario)
	if spec.ScenarioFile != "" {
		p := spec.ScenarioFile
		if !filepath.IsAbs(p) {
			p = filepath.Join(baseDir, p)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("campaign %q: %w", spec.Name, err)
		}
		sdata = b
	}
	return build(spec, sdata)
}

func build(spec Spec, sdata []byte) (*Campaign, error) {
	base, err := cluster.ParseScenarioSpec(sdata)
	if err != nil {
		return nil, fmt.Errorf("campaign %q: %w", spec.Name, err)
	}
	c := &Campaign{Spec: spec, Scale: spec.Scale, base: base}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if err := workload.CheckScale("scale", c.Scale); err != nil {
		return nil, fmt.Errorf("campaign %q: %w", spec.Name, err)
	}
	if spec.MetricsPeriod != "" {
		d, err := time.ParseDuration(spec.MetricsPeriod)
		if err != nil {
			return nil, fmt.Errorf("campaign %q: metrics_period: %w", spec.Name, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("campaign %q: metrics_period must be > 0 (got %v)", spec.Name, d)
		}
		c.period = d
	}
	for _, p := range spec.Axes.Policies {
		if p != PolicyAdaptive && p != PolicyStatic {
			return nil, fmt.Errorf("campaign %q: unknown policy axis value %q (want %q or %q)",
				spec.Name, p, PolicyAdaptive, PolicyStatic)
		}
		if p == PolicyAdaptive && base.Scenario.Policies == nil {
			return nil, fmt.Errorf("campaign %q: policy axis asks for %q but the scenario declares no policies block",
				spec.Name, PolicyAdaptive)
		}
	}
	for _, k := range spec.Axes.Allocators {
		probe := cluster.DefaultConfig()
		probe.Allocator = k
		if err := probe.Validate(); err != nil {
			return nil, fmt.Errorf("campaign %q: allocator axis: %w", spec.Name, err)
		}
	}
	// Expand once so a malformed grid (or an unbuildable cell) fails at
	// load time, not mid-run on worker 7.
	for _, cell := range c.Cells() {
		if _, _, err := c.BuildCell(cell); err != nil {
			return nil, fmt.Errorf("campaign %q: cell %s: %w", spec.Name, cell.ID, err)
		}
	}
	return c, nil
}

// Policy axis values.
const (
	PolicyAdaptive = "adaptive"
	PolicyStatic   = "static"
)

// ScaleBy layers a CLI scale multiplier onto the spec's scale — the way a
// committed campaign shrinks onto a CI budget.
func (c *Campaign) ScaleBy(f float64) error {
	if err := workload.CheckScale("campaign: scale multiplier", f); err != nil {
		return err
	}
	if err := workload.CheckScale(fmt.Sprintf("campaign: scale %v × multiplier %v", c.Scale, f), c.Scale*f); err != nil {
		return err
	}
	c.Scale *= f
	return nil
}

// Cells expands the grid in fixed axis order (allocator, zipf, rate,
// nodes, policy, seed) — the cell order, IDs and indices are a pure
// function of the spec.
func (c *Campaign) Cells() []Cell {
	allocs := c.Spec.Axes.Allocators
	zipfs := floatAxis(c.Spec.Axes.Zipf)
	rates := floatAxis(c.Spec.Axes.RateScale)
	nodes := c.Spec.Axes.Nodes
	pols := c.Spec.Axes.Policies
	seeds := c.Spec.Axes.Seeds
	if len(allocs) == 0 {
		allocs = []cluster.AllocatorKind{""}
	}
	if len(nodes) == 0 {
		nodes = []int{0}
	}
	if len(pols) == 0 {
		pols = []string{""}
	}
	if len(seeds) == 0 {
		seeds = []uint64{c.base.Scenario.Seed}
	}
	var cells []Cell
	for _, a := range allocs {
		for _, z := range zipfs {
			for _, r := range rates {
				for _, n := range nodes {
					for _, p := range pols {
						params := Params{Allocator: string(a), Zipf: z, RateScale: r, Nodes: n, Policy: p}
						gid := groupID(params)
						for _, s := range seeds {
							cells = append(cells, Cell{
								Index:  len(cells),
								Group:  gid,
								ID:     fmt.Sprintf("%s/seed=%d", gid, s),
								Params: params,
								Seed:   s,
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// floatAxis wraps an optional float axis: empty becomes the single
// inactive (nil) option.
func floatAxis(vals []float64) []*float64 {
	if len(vals) == 0 {
		return []*float64{nil}
	}
	out := make([]*float64, len(vals))
	for i := range vals {
		v := vals[i]
		out[i] = &v
	}
	return out
}

// groupID renders the active axes as a stable slash-joined key; "base"
// when no axis is active.
func groupID(p Params) string {
	var parts []string
	if p.Allocator != "" {
		parts = append(parts, "alloc="+p.Allocator)
	}
	if p.Zipf != nil {
		parts = append(parts, fmt.Sprintf("zipf=%g", *p.Zipf))
	}
	if p.RateScale != nil {
		parts = append(parts, fmt.Sprintf("rate=%g", *p.RateScale))
	}
	if p.Nodes > 0 {
		parts = append(parts, fmt.Sprintf("nodes=%d", p.Nodes))
	}
	if p.Policy != "" {
		parts = append(parts, "policy="+p.Policy)
	}
	if len(parts) == 0 {
		return "base"
	}
	out := parts[0]
	for _, s := range parts[1:] {
		out += "/" + s
	}
	return out
}

// BuildCell constructs the cell's exact (cluster config, scenario) pair —
// the pair the determinism contract is stated over: running it standalone
// through Cluster.RunScenario reproduces the cell's report bit for bit.
func (c *Campaign) BuildCell(cell Cell) (cluster.Config, workload.Scenario, error) {
	cfg, err := c.base.Overrides.Apply(cluster.DefaultConfig())
	if err != nil {
		return cluster.Config{}, workload.Scenario{}, err
	}
	if cell.Params.Allocator != "" {
		cfg.Allocator = cluster.AllocatorKind(cell.Params.Allocator)
	}
	if cell.Params.Nodes > 0 {
		cfg.Nodes = cell.Params.Nodes
	}
	scn := cloneScenario(c.base.Scenario)
	if c.Scale != 1 {
		scn = scn.Scaled(c.Scale)
	}
	for pi := range scn.Phases {
		for ci := range scn.Phases[pi].Classes {
			tc := &scn.Phases[pi].Classes[ci]
			if cell.Params.Zipf != nil {
				tc.ZipfS = *cell.Params.Zipf
			}
			if cell.Params.RateScale != nil {
				tc.Rate *= *cell.Params.RateScale
			}
		}
	}
	if cell.Params.Policy == PolicyStatic {
		scn.Policies = nil
	}
	scn.Seed = cell.Seed
	cfg.Seed = cell.Seed
	if c.period > 0 {
		cfg.Metrics = &metrics.Config{Period: c.period}
	}
	if err := cfg.Validate(); err != nil {
		return cluster.Config{}, workload.Scenario{}, err
	}
	if err := scn.Validate(); err != nil {
		return cluster.Config{}, workload.Scenario{}, err
	}
	return cfg, scn, nil
}

// cloneScenario deep-copies the slices a cell override mutates (phases and
// their class lists), so parallel cells never share mutable state with the
// base scenario or each other.
func cloneScenario(s workload.Scenario) workload.Scenario {
	out := s
	out.Phases = append([]workload.Phase(nil), s.Phases...)
	for i := range out.Phases {
		out.Phases[i].Classes = append([]workload.TrafficClass(nil), s.Phases[i].Classes...)
	}
	return out
}
