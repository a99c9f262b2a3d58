package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/simtime"
)

func scenarioTestLoad() LoadConfig {
	cfg := DefaultLoadConfig()
	cfg.Requests = 5_000
	cfg.Keys = 10_000
	return cfg
}

// TestScenarioSinglePhaseMatchesLoadDriver pins the adapter property
// Cluster.Run rests on: a single-phase, single-class scenario lifted from a
// LoadConfig emits the bit-identical request sequence to a plain
// LoadDriver. The subtest keeps the name of the generator it runs on, the
// fast one, from when there were two.
func TestScenarioSinglePhaseMatchesLoadDriver(t *testing.T) {
	t.Run("fast", checkScenarioSinglePhaseMatchesLoadDriver)
}

func checkScenarioSinglePhaseMatchesLoadDriver(t *testing.T) {
	cfg := scenarioTestLoad()
	ld := NewLoadDriver(cfg)
	sd := NewScenarioDriver(ScenarioFromLoad(cfg))
	for i := 0; ; i++ {
		want, wok := ld.Next()
		got, gok := sd.Next()
		if wok != gok {
			t.Fatalf("request %d: driver ok=%v scenario ok=%v", i, wok, gok)
		}
		if !wok {
			break
		}
		if got.Request != want {
			t.Fatalf("request %d diverged:\nload:     %+v\nscenario: %+v", i, want, got.Request)
		}
		if got.Phase != 0 || got.Class != 0 {
			t.Fatalf("request %d annotated (phase=%d class=%d), want (0,0)", i, got.Phase, got.Class)
		}
	}
	if sd.Emitted() != cfg.Requests {
		t.Fatalf("scenario emitted %d, want %d", sd.Emitted(), cfg.Requests)
	}
}

func multiClassScenario() Scenario {
	return Scenario{
		Name: "multi",
		Seed: 7,
		Phases: []Phase{
			{
				Name:     "warm",
				Duration: 200 * simtime.Millisecond,
				Classes: []TrafficClass{
					{Name: "kv", Rate: 20_000, Keys: 10_000, ZipfS: 1.1, ReadFraction: 0.5, ValueBytes: 512},
					{Name: "scan", Rate: 5_000, Keys: 2_000, ReadFraction: 0.9, ValueBytes: 4096},
				},
			},
			{
				Name:     "peak",
				Duration: 300 * simtime.Millisecond,
				Shape:    RateShape{Kind: ShapeRamp, From: 1, To: 4},
				Classes: []TrafficClass{
					{Name: "kv", Rate: 20_000, Keys: 10_000, ZipfS: 1.1, ReadFraction: 0.5, ValueBytes: 512},
					{Name: "scan", Rate: 5_000, Keys: 2_000, ReadFraction: 0.9, ValueBytes: 4096},
				},
			},
			{
				Name:     "drain",
				Requests: 2_000,
				Classes: []TrafficClass{
					{Name: "kv", Rate: 10_000, Keys: 10_000, ReadFraction: 1, ValueBytes: 512},
				},
			},
		},
	}
}

// TestScenarioPhaseSequencing checks the merged stream's invariants:
// arrivals are non-decreasing, every request lands inside its phase's
// bounds, duration-bounded phases end at their declared boundary, and
// request-bounded phases emit exactly their budget.
func TestScenarioPhaseSequencing(t *testing.T) {
	d := NewScenarioDriver(multiClassScenario())
	var last simtime.Time
	counts := map[int]int64{}
	classes := map[[2]int]int64{}
	for {
		req, ok := d.Next()
		if !ok {
			break
		}
		if req.At.Before(last) && counts[req.Phase] > 0 {
			// Arrivals within a phase are merged in time order; a new
			// phase may restart at its boundary, never earlier.
			t.Fatalf("arrival %v before predecessor %v in phase %d", req.At, last, req.Phase)
		}
		last = req.At
		counts[req.Phase]++
		classes[[2]int{req.Phase, req.Class}]++
	}
	bounds := d.Bounds()
	if len(bounds) != 3 {
		t.Fatalf("got %d phase bounds, want 3", len(bounds))
	}
	if bounds[0].Start != 0 || bounds[0].End != simtime.Time(200*simtime.Millisecond) {
		t.Errorf("phase 0 bounds [%v, %v], want [0, 200ms]", bounds[0].Start, bounds[0].End)
	}
	if bounds[1].Start != bounds[0].End {
		t.Errorf("phase 1 starts at %v, want the phase 0 boundary %v", bounds[1].Start, bounds[0].End)
	}
	if counts[2] != 2_000 {
		t.Errorf("request-bounded phase emitted %d, want 2000", counts[2])
	}
	if bounds[2].Requests != 2_000 {
		t.Errorf("phase 2 bound records %d requests, want 2000", bounds[2].Requests)
	}
	for pi := 0; pi < 2; pi++ {
		for ci := 0; ci < 2; ci++ {
			if classes[[2]int{pi, ci}] == 0 {
				t.Errorf("phase %d class %d emitted nothing", pi, ci)
			}
		}
	}
}

// TestScenarioBudgetClosesDurationPhase: when a phase has both bounds and
// the request budget wins, the sealed End is the last arrival — not the
// declared duration — so bounds never overlap the next phase.
func TestScenarioBudgetClosesDurationPhase(t *testing.T) {
	s := Scenario{
		Name: "both", Seed: 2,
		Phases: []Phase{
			{
				Name: "capped", Duration: 10 * simtime.Second, Requests: 50,
				Classes: []TrafficClass{{Name: "c", Rate: 10_000, Keys: 100, ReadFraction: 0.5, ValueBytes: 64}},
			},
			{
				Name: "next", Requests: 10,
				Classes: []TrafficClass{{Name: "c", Rate: 10_000, Keys: 100, ReadFraction: 0.5, ValueBytes: 64}},
			},
		},
	}
	d := NewScenarioDriver(s)
	var last simtime.Time
	for {
		req, ok := d.Next()
		if !ok {
			break
		}
		if req.Phase == 0 {
			last = req.At
		}
	}
	bounds := d.Bounds()
	if bounds[0].Requests != 50 {
		t.Fatalf("capped phase emitted %d, want 50", bounds[0].Requests)
	}
	if bounds[0].End != last {
		t.Errorf("capped phase End %v, want last arrival %v", bounds[0].End, last)
	}
	if bounds[0].End >= simtime.Time(10*simtime.Second) {
		t.Errorf("capped phase End %v reports the unused declared duration", bounds[0].End)
	}
	if bounds[1].Start != bounds[0].End {
		t.Errorf("next phase starts at %v, want the capped phase's End %v", bounds[1].Start, bounds[0].End)
	}
}

// TestScenarioReplay pins determinism at the driver level: two drivers over
// the identical scenario emit the identical stream.
func TestScenarioReplay(t *testing.T) {
	a := NewScenarioDriver(multiClassScenario())
	b := NewScenarioDriver(multiClassScenario())
	for i := 0; ; i++ {
		ra, oka := a.Next()
		rb, okb := b.Next()
		if oka != okb || ra != rb {
			t.Fatalf("replay diverged at request %d: %+v vs %+v", i, ra, rb)
		}
		if !oka {
			break
		}
	}
	if !reflect.DeepEqual(a.Bounds(), b.Bounds()) {
		t.Fatalf("bounds diverged:\n%+v\n%+v", a.Bounds(), b.Bounds())
	}
}

// TestScenarioClassStreamIndependence: coexisting classes draw from
// distinct streams — the key sequences of two same-shaped classes must
// differ, and a class's own sequence must not depend on its siblings.
func TestScenarioClassStreamIndependence(t *testing.T) {
	tc := TrafficClass{Name: "a", Rate: 10_000, Keys: 1 << 30, ReadFraction: 0.5, ValueBytes: 64}
	two := Scenario{
		Name: "two", Seed: 3,
		Phases: []Phase{{Name: "p", Requests: 400, Classes: []TrafficClass{tc, {Name: "b", Rate: 10_000, Keys: 1 << 30, ReadFraction: 0.5, ValueBytes: 64}}}},
	}
	keys := map[int][]int64{}
	d := NewScenarioDriver(two)
	for {
		req, ok := d.Next()
		if !ok {
			break
		}
		keys[req.Class] = append(keys[req.Class], req.Key)
	}
	if len(keys[0]) == 0 || len(keys[1]) == 0 {
		t.Fatal("a class emitted nothing")
	}
	n := len(keys[0])
	if len(keys[1]) < n {
		n = len(keys[1])
	}
	same := true
	for i := 0; i < n; i++ {
		if keys[0][i] != keys[1][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two classes drew the identical key sequence — shared stream")
	}

	// Class a alone must draw the same keys it drew next to class b.
	solo := two
	solo.Phases = []Phase{{Name: "p", Requests: int64(len(keys[0])), Classes: []TrafficClass{tc}}}
	ds := NewScenarioDriver(solo)
	for i := 0; ; i++ {
		req, ok := ds.Next()
		if !ok {
			break
		}
		if req.Key != keys[0][i] {
			t.Fatalf("class a key %d = %d solo but %d next to class b — streams not independent", i, req.Key, keys[0][i])
		}
	}
}

// TestRateShapes sanity-checks the curves by comparing arrival mass across
// phase halves/windows.
func TestRateShapes(t *testing.T) {
	count := func(shape RateShape, from, to simtime.Duration) int {
		s := Scenario{
			Name: "shape", Seed: 5,
			Phases: []Phase{{
				Name: "p", Duration: 1 * simtime.Second, Shape: shape,
				Classes: []TrafficClass{{Name: "c", Rate: 20_000, Keys: 1000, ReadFraction: 0.5, ValueBytes: 64}},
			}},
		}
		d := NewScenarioDriver(s)
		n := 0
		for {
			req, ok := d.Next()
			if !ok {
				break
			}
			if rel := simtime.Duration(req.At); rel >= from && rel < to {
				n++
			}
		}
		return n
	}
	sec := 1 * simtime.Second
	// Ramp 1→9: the second half must carry far more arrivals.
	lo := count(RateShape{Kind: ShapeRamp, From: 1, To: 9}, 0, sec/2)
	hi := count(RateShape{Kind: ShapeRamp, From: 1, To: 9}, sec/2, sec)
	if hi < lo*2 {
		t.Errorf("ramp 1→9: second half has %d arrivals vs first half %d, want >2x", hi, lo)
	}
	// Spike 10x in [400ms, 500ms): that window must beat its neighbour.
	spike := RateShape{Kind: ShapeSpike, Factor: 10, At: 400 * simtime.Millisecond, Width: 100 * simtime.Millisecond}
	in := count(spike, 400*simtime.Millisecond, 500*simtime.Millisecond)
	out := count(spike, 300*simtime.Millisecond, 400*simtime.Millisecond)
	if in < out*4 {
		t.Errorf("spike 10x: window has %d arrivals vs neighbour %d, want >4x", in, out)
	}
	// Diurnal: the rising half-period outweighs the falling one.
	di := RateShape{Kind: ShapeDiurnal, Period: 1 * simtime.Second, Amplitude: 0.8}
	up := count(di, 0, sec/2)
	down := count(di, sec/2, sec)
	if up <= down {
		t.Errorf("diurnal: rising half has %d arrivals vs falling %d, want more", up, down)
	}
}

// TestScenarioValidateMessages: violations locate themselves by phase,
// class and event index.
func TestScenarioValidateMessages(t *testing.T) {
	base := multiClassScenario()
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"no phases", func(s *Scenario) { s.Phases = nil }, "at least one phase"},
		{"unbounded phase", func(s *Scenario) { s.Phases[1].Duration = 0; s.Phases[1].Requests = 0 }, "phase 1"},
		{"bad class rate", func(s *Scenario) { s.Phases[1].Classes[1].Rate = -1 }, "class 1"},
		{"bad shape", func(s *Scenario) { s.Phases[0].Shape = RateShape{Kind: "sawtooth"} }, "unknown shape kind"},
		{"ramp needs duration", func(s *Scenario) {
			s.Phases[2].Shape = RateShape{Kind: ShapeRamp, From: 1, To: 2}
		}, "ramp shape needs a phase Duration"},
		{"bad event", func(s *Scenario) { s.Events = []Event{{At: -1, Kind: EventPressureStop}} }, "event 0"},
		{"bad event kind", func(s *Scenario) { s.Events = []Event{{Kind: "explode"}} }, "unknown event kind"},
		{"squeeze needs bytes", func(s *Scenario) { s.Events = []Event{{Kind: EventSqueezeStart}} }, "Bytes must be > 0"},
		{"kill needs a node", func(s *Scenario) { s.Events = []Event{{Kind: EventKillNode, Node: -1}} }, "kill-node needs an explicit Node index"},
		{"bad kill policy", func(s *Scenario) {
			s.Events = []Event{{Kind: EventKillNode, Node: 0, Policy: "panic"}}
		}, "kill-node Policy must be"},
		{"restore needs a node", func(s *Scenario) { s.Events = []Event{{Kind: EventRestoreNode, Node: -1}} }, "restore-node needs an explicit Node index"},
		{"policy off a kill", func(s *Scenario) {
			s.Events = []Event{{Kind: EventPressureStop, Node: -1, Policy: KillDrop}}
		}, "Policy applies only to kill-node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			s.Phases = append([]Phase(nil), base.Phases...)
			for i := range s.Phases {
				s.Phases[i].Classes = append([]TrafficClass(nil), base.Phases[i].Classes...)
			}
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted a malformed scenario")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base scenario rejected: %v", err)
	}
}

// TestScenarioJSONRoundTrip: marshal → parse reproduces the scenario.
func TestScenarioJSONRoundTrip(t *testing.T) {
	s := multiClassScenario()
	s.Events = []Event{
		{At: 100 * simtime.Millisecond, Node: -1, Kind: EventPressureStart},
		{At: 150 * simtime.Millisecond, Node: 1, Kind: EventSqueezeStart, Bytes: 64 << 20},
		// Not MB-aligned: must survive the MB-grained wire format exactly.
		{At: 200 * simtime.Millisecond, Node: 0, Kind: EventSqueezeStart, Bytes: 512 << 10},
		{At: 400 * simtime.Millisecond, Node: -1, Kind: EventPressureStop},
		// Topology events: the drop policy must ride the wire, and an
		// elided policy must come back as the zero value (KillDrain applies
		// at fire time, not in the document).
		{At: 450 * simtime.Millisecond, Node: 1, Kind: EventKillNode},
		{At: 500 * simtime.Millisecond, Node: 2, Kind: EventKillNode, Policy: KillDrop},
		{At: 600 * simtime.Millisecond, Node: 2, Kind: EventRestoreNode},
	}
	data, err := MarshalScenarioJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseScenario(data)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip diverged:\ngot:  %+v\nwant: %+v", got, s)
	}
}

// TestScenarioScaled: durations and budgets scale, rates don't.
func TestScenarioScaled(t *testing.T) {
	s := multiClassScenario()
	s.Events = []Event{{At: 400 * simtime.Millisecond, Node: -1, Kind: EventPressureStop}}
	half := s.Scaled(0.5)
	if half.Phases[0].Duration != 100*simtime.Millisecond {
		t.Errorf("phase 0 duration %v, want 100ms", half.Phases[0].Duration)
	}
	if half.Phases[2].Requests != 1_000 {
		t.Errorf("phase 2 budget %d, want 1000", half.Phases[2].Requests)
	}
	if half.Events[0].At != 200*simtime.Millisecond {
		t.Errorf("event at %v, want 200ms", half.Events[0].At)
	}
	if half.Phases[0].Classes[0].Rate != s.Phases[0].Classes[0].Rate {
		t.Error("scaling changed a class rate")
	}
	if s.Phases[0].Duration != 200*simtime.Millisecond {
		t.Error("Scaled mutated its receiver")
	}
	// A tiny budget keeps its floor of one request.
	tiny := s.Scaled(0.00001)
	if tiny.Phases[2].Requests != 1 {
		t.Errorf("tiny budget %d, want floor 1", tiny.Phases[2].Requests)
	}
}

// TestCheckScale: the one scale check every surface shares accepts only
// positive, finite factors, names the field it was given, and is the
// guard Scaled panics behind.
func TestCheckScale(t *testing.T) {
	for _, f := range []float64{1e-9, 0.05, 1, 1e9} {
		if err := CheckScale("-scale", f); err != nil {
			t.Errorf("CheckScale(%v) = %v, want nil", f, err)
		}
	}
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := CheckScale("-scale", f)
		if err == nil || !strings.HasPrefix(err.Error(), "-scale must be a positive, finite number") {
			t.Errorf("CheckScale(%v) = %v, want a -scale error", f, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled(%v) did not panic", f)
				}
			}()
			multiClassScenario().Scaled(f)
		}()
	}
}
