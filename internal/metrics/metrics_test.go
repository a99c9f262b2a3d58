package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/simtime"
)

// fixedSnap returns a snap function backed by mutable per-node counters the
// test can advance between observations.
func fixedSnap(state []Counters) func(int) Counters {
	return func(node int) Counters { return state[node] }
}

func TestCollectorWindows(t *testing.T) {
	state := make([]Counters, 2)
	c := NewCollector(0, 10*simtime.Millisecond, 2, fixedSnap(state))

	// Node 0: two samples in window 0, one in window 2 (window 1 empty).
	c.Tick(0, 1*simtime.Time(simtime.Millisecond))
	c.Observe(0, 100*simtime.Microsecond)
	c.Tick(0, 2*simtime.Time(simtime.Millisecond))
	c.Observe(0, 300*simtime.Microsecond)
	state[0] = Counters{Reclaims: 5, RSSBytes: 1000}
	c.Tick(0, 25*simtime.Time(simtime.Millisecond)) // closes windows 0 and 1
	c.Observe(0, 50*simtime.Microsecond)
	state[0] = Counters{Reclaims: 9, RSSBytes: 800}

	// Node 1: one sample in window 1.
	c.Tick(1, 12*simtime.Time(simtime.Millisecond)) // closes window 0
	c.Observe(1, 200*simtime.Microsecond)
	state[1] = Counters{Shed: 3, RSSBytes: 500}

	c.Finish(simtime.Time(27 * simtime.Millisecond))
	samples := c.Series([]simtime.Time{
		simtime.Time(11 * simtime.Millisecond),
		simtime.Time(26 * simtime.Millisecond),
		simtime.Time(999 * simtime.Millisecond), // past the horizon: clamps to last
	})

	if len(samples) != 3 {
		t.Fatalf("want 3 windows, got %d", len(samples))
	}
	w0, w1, w2 := samples[0], samples[1], samples[2]

	if w0.Requests != 2 || w0.Mean != 200*simtime.Microsecond {
		t.Errorf("w0 = %+v, want 2 requests mean 200µs", w0)
	}
	if w0.Start != 0 || w0.End != simtime.Time(10*simtime.Millisecond) {
		t.Errorf("w0 bounds [%v, %v]", w0.Start, w0.End)
	}
	// Snapshots are lazy, like the control plane's windows: node 0's windows
	// 0 and 1 both closed at the 25ms tick, after Reclaims reached 5, so the
	// whole delta lands in window 0 and window 1's node-0 delta is zero.
	if w0.Reclaims != 5 || w1.Reclaims != 0 {
		t.Errorf("reclaim deltas = %d/%d, want 5/0", w0.Reclaims, w1.Reclaims)
	}

	if w1.Requests != 1 || w1.P50 != 200*simtime.Microsecond {
		t.Errorf("w1 = %+v, want node 1's single 200µs sample", w1)
	}
	// Deltas telescope: per-window sums reconstruct the final totals.
	if w0.Reclaims+w1.Reclaims+w2.Reclaims != 9 {
		t.Errorf("reclaim deltas don't telescope to the final total: %d/%d/%d",
			w0.Reclaims, w1.Reclaims, w2.Reclaims)
	}
	if w0.Shed+w1.Shed+w2.Shed != 3 {
		t.Errorf("shed deltas = %d/%d/%d, want total 3", w0.Shed, w1.Shed, w2.Shed)
	}

	// Final (partial) window: bounds end at the horizon, gauge reads the
	// final snapshots.
	if w2.End != simtime.Time(27*simtime.Millisecond) {
		t.Errorf("partial window end = %v, want 27ms", w2.End)
	}
	if w2.RSSBytes != 800+500 {
		t.Errorf("final RSS gauge = %d, want 1300", w2.RSSBytes)
	}
	if w2.Requests != 1 || w2.Max != 50*simtime.Microsecond {
		t.Errorf("w2 = %+v, want node 0's 50µs sample", w2)
	}

	// Action attribution: 11ms → w1, 26ms → w2, 999ms clamps to w2.
	if w0.Actions != 0 || w1.Actions != 1 || w2.Actions != 2 {
		t.Errorf("actions = %d/%d/%d, want 0/1/2", w0.Actions, w1.Actions, w2.Actions)
	}
}

func TestCollectorEmptyRun(t *testing.T) {
	c := NewCollector(0, simtime.Second, 1, func(int) Counters { return Counters{} })
	c.Finish(0)
	samples := c.Series(nil)
	if len(samples) != 1 {
		t.Fatalf("empty run: want 1 (empty) window, got %d", len(samples))
	}
	if samples[0].Requests != 0 || samples[0].End != 0 {
		t.Errorf("empty window = %+v", samples[0])
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Sample{
		{Window: 0, Start: 0, End: 10, Requests: 5, P50: 100, P99: 900, Max: 1000,
			Mean: 300, Reclaims: 2, RSSBytes: 4096, Shed: 1, Actions: 3},
		{Window: 1, Start: 10, End: 20, Requests: 0},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
	if _, err := ParseJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestPrometheusExport(t *testing.T) {
	samples := []Sample{
		{Window: 0, Start: 0, End: simtime.Time(simtime.Second), Requests: 10,
			P99: 90 * simtime.Microsecond, Reclaims: 4, RSSBytes: 1 << 20, Shed: 2},
		{Window: 1, Start: simtime.Time(simtime.Second), End: simtime.Time(2 * simtime.Second),
			Requests: 20, P99: 110 * simtime.Microsecond, Reclaims: 1, RSSBytes: 1 << 21},
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, samples); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// The format gate accepts its own output and counts every sample line.
	n, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParsePrometheus rejected own output: %v", err)
	}
	if want := len(promMetrics) * len(samples); n != want {
		t.Errorf("sample lines = %d, want %d", n, want)
	}

	// Counters are cumulative: requests_total reads 10 then 30.
	if !strings.Contains(text, "hermes_requests_total 10 1000") ||
		!strings.Contains(text, "hermes_requests_total 30 2000") {
		t.Errorf("cumulative counter lines missing:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE hermes_rss_bytes gauge") {
		t.Errorf("gauge TYPE header missing")
	}

	// The gate rejects decreasing counters and undeclared series.
	bad := "# HELP x x\n# TYPE x counter\nx 5 1\nx 3 2\n"
	if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
		t.Error("decreasing counter accepted")
	}
	if _, err := ParsePrometheus(strings.NewReader("y 1 1\n")); err == nil {
		t.Error("undeclared series accepted")
	}
}

// TestCollectorMirrorsTracker pins the window-roll rule against the control
// plane's: a boundary closes at the first arrival at-or-after it, never
// before, so metrics windows and controller windows stay aligned.
func TestCollectorWindowRollRule(t *testing.T) {
	c := NewCollector(0, 10, 1, func(int) Counters { return Counters{} })
	c.Tick(0, 9) // same window: no close
	c.Observe(0, 1)
	if got := c.nodes[0].widx; got != 0 {
		t.Fatalf("closed early: widx = %d", got)
	}
	c.Tick(0, 10) // boundary instant belongs to the next window
	if got := c.nodes[0].widx; got != 1 {
		t.Fatalf("boundary arrival did not close window: widx = %d", got)
	}
	c.Tick(0, 35) // skips two empty windows
	if got := c.nodes[0].widx; got != 3 {
		t.Fatalf("widx = %d, want 3", got)
	}
}

// TestCheckHorizon: a horizon passes while its windows, counted as Finish
// counts them (a trailing partial window included), fit MaxNodeWindows
// summed over the nodes, and fails one window past it.
func TestCheckHorizon(t *testing.T) {
	c := Config{Period: simtime.Millisecond}
	const perNode = MaxNodeWindows / 4
	for _, tc := range []struct {
		span  simtime.Duration
		nodes int
		ok    bool
	}{
		{0, 4, true},
		{perNode * simtime.Millisecond, 4, true},
		{perNode*simtime.Millisecond - 1, 4, true},
		{perNode*simtime.Millisecond + 1, 4, false},
		{(perNode + 1) * simtime.Millisecond, 4, false},
		{MaxNodeWindows * simtime.Millisecond, 1, true},
		{MaxNodeWindows * simtime.Millisecond, 2, false},
		{1 << 62, 1, false},
	} {
		err := c.CheckHorizon(tc.span, tc.nodes)
		if (err == nil) != tc.ok {
			t.Errorf("span %v on %d nodes: got %v, want ok=%v", tc.span, tc.nodes, err, tc.ok)
		}
	}
}

// TestIsPrometheusPath: the one extension rule both CLIs use, so a file
// hermes-cluster -metrics-out writes as Prometheus is the file hermes-sweep
// -validate-metrics parses as Prometheus, a bare ".prom" included.
func TestIsPrometheusPath(t *testing.T) {
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"run.prom", true},
		{"run.txt", true},
		{".prom", true},
		{".txt", true},
		{"out/run-hermes.prom", true},
		{"run.jsonl.prom", true},
		{"run.jsonl", false},
		{"run.json", false},
		{"run", false},
		{"", false},
		{"run.prom.jsonl", false},
		{"run.PROM", false},
		{"prom", false},
		{"run-prom", false},
		{"dir.prom/run", false},
	} {
		if got := IsPrometheusPath(tc.path); got != tc.want {
			t.Errorf("IsPrometheusPath(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}
