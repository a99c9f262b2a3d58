package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/hermes-sim/hermes/internal/metrics"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// metricsScenario is the event scenario with the time-series collector on:
// the configuration under which the engine-identity and golden tests pin
// the metrics stream.
func metricsScenario() (Config, workload.Scenario) {
	cfg, scn := eventScenario()
	cfg.Metrics = &metrics.Config{Period: 20 * simtime.Millisecond}
	return cfg, scn
}

// TestScenarioMetricsWindowCap: validation rejects a metrics period that
// cuts the declared horizon into more node-windows than
// metrics.MaxNodeWindows, naming the period, the count and the cap, and
// passes a period of the size the CLI smoke steps use. It goes through
// validateScenario alone and never runs: at 1 ns the ramp preset's 160 ms
// horizon on 4 nodes asks for 6.4×10^8 window records.
func TestScenarioMetricsWindowCap(t *testing.T) {
	data, err := os.ReadFile("../../examples/scenarios/ramp.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseScenarioSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	base, err := spec.Overrides.Apply(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	scn := spec.Scenario.Scaled(0.02)
	for _, tc := range []struct {
		period simtime.Duration
		want   string
	}{
		{simtime.Nanosecond, `cluster: scenario "ramp-to-saturation": metrics: period 1ns cuts the 160ms horizon into 160000000 windows on each of 4 nodes, over the cap of 1048576 node-windows`},
		{20 * simtime.Millisecond, "<nil>"},
	} {
		cfg := base
		cfg.Metrics = &metrics.Config{Period: tc.period}
		c := New(cfg)
		err := c.validateScenario(scn)
		c.Close()
		if got := fmt.Sprint(err); got != tc.want {
			t.Errorf("period %v: got %q, want %q", tc.period, got, tc.want)
		}
	}
}

// TestScenarioMetricsEngineIdentity extends the parallel-vs-sequential
// bit-identity bar to the metrics stream: the per-window series is part of
// the scenario report, so the chunk-pipelined engine must reproduce the
// sequential engine's windows sample for sample.
func TestScenarioMetricsEngineIdentity(t *testing.T) {
	cfg, scn := metricsScenario()
	par := runScenario(t, cfg, scn)
	cfg.Sequential = true
	seq := runScenario(t, cfg, scn)
	if len(par.Metrics) == 0 {
		t.Fatal("metrics-enabled scenario produced no samples")
	}
	if !reflect.DeepEqual(par.Metrics, seq.Metrics) {
		t.Fatalf("parallel engine's metrics series diverged from sequential:\npar: %+v\nseq: %+v",
			par.Metrics, seq.Metrics)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Fatal("parallel scenario report diverged from sequential with metrics enabled")
	}
}

// TestScenarioMetricsAccounting ties the stream to the report: every
// served request lands in exactly one window, windows tile the run, and
// the final RSS gauge is live.
func TestScenarioMetricsAccounting(t *testing.T) {
	cfg, scn := metricsScenario()
	rep := runScenario(t, cfg, scn)
	var served int64
	for i, s := range rep.Metrics {
		served += s.Requests
		if i > 0 && s.Start != rep.Metrics[i-1].End {
			t.Errorf("window %d starts at %v, previous ended at %v", i, s.Start, rep.Metrics[i-1].End)
		}
		if s.Window != int64(i) {
			t.Errorf("window %d indexed as %d", i, s.Window)
		}
	}
	if served != rep.Requests {
		t.Errorf("windows account %d requests, report served %d", served, rep.Requests)
	}
	last := rep.Metrics[len(rep.Metrics)-1]
	if last.RSSBytes <= 0 {
		t.Errorf("final window's RSS gauge = %d, want > 0", last.RSSBytes)
	}
	var actions int64
	for _, s := range rep.Metrics {
		actions += s.Actions
	}
	if actions != int64(len(rep.Actions)) {
		t.Errorf("windows account %d controller actions, report has %d", actions, len(rep.Actions))
	}
}

// TestScenarioMetricsSeedReplayGolden pins the metrics stream's exact
// bytes: the committed JSONL is what this scenario and seed must always
// produce. Regenerate with HERMES_UPDATE_GOLDEN=1 go test -run
// TestScenarioMetricsSeedReplayGolden ./internal/cluster/ after an
// intentional engine or cost-model change.
func TestScenarioMetricsSeedReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the event scenario")
	}
	cfg, scn := metricsScenario()
	rep := runScenario(t, cfg, scn)
	var buf bytes.Buffer
	if err := metrics.WriteJSONL(&buf, rep.Metrics); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics-golden.jsonl")
	if os.Getenv("HERMES_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d windows)", golden, len(rep.Metrics))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with HERMES_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("metrics stream diverged from %s: got %d bytes, want %d (regenerate with HERMES_UPDATE_GOLDEN=1 if the change is intentional)",
			golden, buf.Len(), len(want))
	}
}
