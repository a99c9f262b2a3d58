package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/hermes-sim/hermes/internal/cluster"
	"github.com/hermes-sim/hermes/internal/stats"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent starts children with childEnv set, so the child path under test
// is the real one, through a process boundary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func testParent(t *testing.T) *parent {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &parent{self: self, seed: 3, size: 0.002, root: root}
}

// TestWorkloadsTiny runs every workload at a tiny size through the child
// path: two timed reps plus the sequential oracle must agree, and the
// trace's replay must be bit-identical to the engine.
func TestWorkloadsTiny(t *testing.T) {
	p := testParent(t)
	for _, w := range specs {
		t.Run(w.name, func(t *testing.T) {
			tm := p.timeSet(context.Background(), []*spec{w}, 2, 0)[0]
			digest, runs, errs := tm.verdict()
			if len(errs) > 0 {
				t.Fatalf("timed runs failed: %v", errs)
			}
			if digest == "" || len(tm.reps) != 2 || (w.input != nil) != (runs == 3) {
				t.Fatalf("digest %q from %d runs (%d reps)", digest, runs, len(tm.reps))
			}
			for _, m := range tm.metrics() {
				if m.N != 2 || !(m.Median > 0) {
					t.Errorf("metric %s: median %v over %d reps", m.Name, m.Median, m.N)
				}
			}

			tr := p.traceOne(context.Background(), w, 0, true)
			if _, errs := tr.verdict(); len(errs) > 0 {
				t.Fatalf("trace failed: %v", errs)
			}
			if tr.tr.res.Trace.Digest != digest {
				t.Fatalf("replay digest %.12s differs from the timed runs' %.12s", tr.tr.res.Trace.Digest, digest)
			}
			if len(tr.tr.res.Trace.Layers) == 0 || len(tr.tr.res.Trace.Spans) == 0 {
				t.Fatalf("trace recorded %d layers and %d spans", len(tr.tr.res.Trace.Layers), len(tr.tr.res.Trace.Spans))
			}
			values := perLayerValues(tr)
			for _, d := range perLayerDefs {
				if _, ok := values[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		xs            []float64
		med, p25, p75 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 3, 2, 4},
		{[]float64{4, 1, 3, 2}, 2.5, 1.75, 3.25},
		{[]float64{7}, 7, 7, 7},
	} {
		got := summarize("x", "s", tc.xs)
		if got.Median != tc.med || got.P25 != tc.p25 || got.P75 != tc.p75 || got.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want median %v p25 %v p75 %v", tc.xs, got, tc.med, tc.p25, tc.p75)
		}
	}
}

func TestDigestCanonical(t *testing.T) {
	rec := stats.NewRecorder("cluster")
	for _, d := range []time.Duration{3, 1, 2} {
		rec.Record(d * time.Microsecond)
	}
	rep := cluster.Report{Allocator: cluster.AllocGlibc, Requests: 3, Cluster: rec.Summarize()}
	a, err := digestJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := digestJSON(rep); a != b {
		t.Fatal("equal reports digest differently")
	}
	rep.Requests++
	if b, _ := digestJSON(rep); a == b {
		t.Fatal("a changed report digests the same")
	}
	// Map keys are encoded sorted, so insertion order cannot leak in.
	m1, m2 := map[string]int{}, map[string]int{}
	for i, k := range []string{"a", "b", "c", "d", "e"} {
		m1[k] = i
	}
	for i := 4; i >= 0; i-- {
		m2[string(rune('a'+i))] = i
	}
	if d1, _ := digestJSON(m1); d1 != mustDigest(t, m2) {
		t.Fatal("map digest depends on insertion order")
	}
}

func mustDigest(t *testing.T, v any) string {
	t.Helper()
	d, err := digestJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCheckConservation(t *testing.T) {
	const clients = 100
	// 10 errors and 6 timeouts, 4 of them final: 12 retries. 5 sheds, 3
	// hedges: 100 + 12 + 3 - 5 - 10 = 100 served.
	ok := cluster.Report{Requests: 100, Retries: 12, Errors: 10, Timeouts: 6, Failed: 4, Shed: 5, Hedges: 3}
	ok.PerNode = []cluster.NodeReport{{Retries: 12, Errors: 10, Timeouts: 6, Failed: 4, Shed: 5, Hedges: 3}}
	if err := checkConservation(ok, clients); err != nil {
		t.Fatalf("consistent report rejected: %v", err)
	}
	lost := ok
	lost.Requests--
	if err := checkConservation(lost, clients); err == nil {
		t.Error("a lost attempt passed")
	}
	causeless := ok
	causeless.Retries, causeless.Requests = 30, 118
	causeless.PerNode = []cluster.NodeReport{{Retries: 30, Errors: 10, Timeouts: 6, Failed: 4, Shed: 5, Hedges: 3}}
	if err := checkConservation(causeless, clients); err == nil {
		t.Error("retries without a cause passed")
	}
	split := ok
	split.PerNode = []cluster.NodeReport{{Retries: 11, Errors: 10, Timeouts: 6, Failed: 4, Shed: 5, Hedges: 3}}
	if err := checkConservation(split, clients); err == nil {
		t.Error("per-node columns that do not sum passed")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code that produces its
// metrics in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, specs[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(doc.EndToEnd), len(endToEndDefs))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(doc.PerLayer), len(perLayerDefs))
	}
	for i, m := range doc.PerLayer {
		if d := perLayerDefs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if !strings.Contains(strings.Join(doc.Command, " "), doc.Paths[0]+"/") {
		t.Errorf("command %v runs nothing under paths %v", doc.Command, doc.Paths)
	}
}
