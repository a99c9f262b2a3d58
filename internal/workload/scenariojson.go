package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// JSON codec for scenario spec files (examples/scenarios/*.json). The wire
// format is a hand-editable mirror of the Scenario types: durations are Go
// duration strings ("250ms", "2s"), sizes are MB/GB fields, and every
// optional knob defaults to the Go-side default — a preset only says what
// it changes. ParseScenario validates before returning, so a loaded file is
// ready to run.

// jsonDur marshals a virtual duration as a Go duration string and accepts
// either a string or a nanosecond count when parsing.
type jsonDur simtime.Duration

func (d jsonDur) MarshalJSON() ([]byte, error) {
	return json.Marshal(simtime.Duration(d).String())
}

func (d *jsonDur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", s, err)
		}
		*d = jsonDur(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("duration must be a string like \"250ms\" or a nanosecond count: %s", b)
	}
	*d = jsonDur(ns)
	return nil
}

type scenarioJSON struct {
	Name string `json:"name"`
	// Seed is a pointer so an explicit 0 survives the round trip while an
	// absent field still defaults to 1.
	Seed     *uint64       `json:"seed,omitempty"`
	Start    jsonDur       `json:"start,omitempty"`
	Phases   []phaseJSON   `json:"phases"`
	Events   []eventJSON   `json:"events,omitempty"`
	SLO      *sloJSON      `json:"slo,omitempty"`
	Policies *policiesJSON `json:"policies,omitempty"`
}

type sloJSON struct {
	P99        jsonDur `json:"p99"`
	Window     jsonDur `json:"window"`
	MinSamples int     `json:"min_samples,omitempty"`
}

type policiesJSON struct {
	Shed      *shedJSON     `json:"shed,omitempty"`
	Batch     *batchPolJSON `json:"batch,omitempty"`
	Allocator *allocPolJSON `json:"allocator,omitempty"`
	Watermark *wmPolJSON    `json:"watermark,omitempty"`
}

type shedJSON struct {
	Step float64 `json:"step"`
	Max  float64 `json:"max"`
}

type batchPolJSON struct {
	Step float64 `json:"step"`
	Min  float64 `json:"min,omitempty"`
}

type allocPolJSON struct {
	Conservative float64 `json:"conservative"`
}

type wmPolJSON struct {
	Step float64 `json:"step"`
	Max  float64 `json:"max"`
}

type phaseJSON struct {
	Name     string      `json:"name"`
	Duration jsonDur     `json:"duration,omitempty"`
	Requests int64       `json:"requests,omitempty"`
	Shape    *shapeJSON  `json:"shape,omitempty"`
	Classes  []classJSON `json:"classes"`
}

type classJSON struct {
	Name       string          `json:"name"`
	Rate       float64         `json:"rate"`
	Keys       int64           `json:"keys"`
	Zipf       float64         `json:"zipf,omitempty"`
	Reads      float64         `json:"reads"`
	ValueBytes int64           `json:"value_bytes"`
	Resilience *resilienceJSON `json:"resilience,omitempty"`
}

type resilienceJSON struct {
	Timeout jsonDur `json:"timeout,omitempty"`
	Retries int     `json:"retries,omitempty"`
	Backoff jsonDur `json:"backoff,omitempty"`
	Jitter  float64 `json:"jitter,omitempty"`
	Hedge   jsonDur `json:"hedge,omitempty"`
}

type shapeJSON struct {
	Kind      string  `json:"kind"`
	From      float64 `json:"from,omitempty"`
	To        float64 `json:"to,omitempty"`
	Factor    float64 `json:"factor,omitempty"`
	At        jsonDur `json:"at,omitempty"`
	Width     jsonDur `json:"width,omitempty"`
	Period    jsonDur `json:"period,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
}

type eventJSON struct {
	At   jsonDur `json:"at"`
	Node *int    `json:"node,omitempty"` // omitted = every node
	Kind string  `json:"kind"`
	// squeeze-start footprint: MB for hand-written files, Bytes for
	// exact values (Bytes wins when both are set).
	MB    int64 `json:"mb,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	// pressure-start knobs (all optional).
	Pressure *pressureJSON `json:"pressure,omitempty"`
	// batch-start knobs (all optional).
	Batch *batchJSON `json:"batch,omitempty"`
	// kill-node backlog policy ("drain" or "drop"; optional).
	Policy string `json:"policy,omitempty"`
	// degrade-node service-latency multiplier.
	Factor float64 `json:"factor,omitempty"`
	// fault-window knobs: per-request error probability, window length,
	// and an optional shard target (instead of a node).
	ErrorRate float64 `json:"error_rate,omitempty"`
	Duration  jsonDur `json:"duration,omitempty"`
	Shard     *int    `json:"shard,omitempty"`
}

type pressureJSON struct {
	Kind   string `json:"kind"` // "anon" or "file"
	FreeMB int64  `json:"free_mb,omitempty"`
	FileMB int64  `json:"file_mb,omitempty"`
}

type batchJSON struct {
	TargetMB   int64   `json:"target_mb,omitempty"`
	InputMB    int64   `json:"input_mb,omitempty"`
	WorkFor    jsonDur `json:"work_for,omitempty"`
	RampTicks  int     `json:"ramp_ticks,omitempty"`
	TickPeriod jsonDur `json:"tick_period,omitempty"`
}

// UnmarshalStrict decodes one JSON document into v like json.Unmarshal,
// but rejects every key v does not declare, naming it — so a misspelled or
// retired knob fails loudly instead of silently running the default.
func UnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}

// ParseScenario decodes and validates a scenario spec document.
func ParseScenario(data []byte) (Scenario, error) {
	var doc scenarioJSON
	if err := UnmarshalStrict(data, &doc); err != nil {
		return Scenario{}, fmt.Errorf("workload: scenario JSON: %w", err)
	}
	s := Scenario{
		Name:  doc.Name,
		Seed:  1,
		Start: simtime.Time(doc.Start),
	}
	if doc.Seed != nil {
		s.Seed = *doc.Seed
	}
	for _, pj := range doc.Phases {
		p := Phase{
			Name:     pj.Name,
			Duration: simtime.Duration(pj.Duration),
			Requests: pj.Requests,
		}
		if pj.Shape != nil {
			p.Shape = RateShape{
				Kind:      ShapeKind(pj.Shape.Kind),
				From:      pj.Shape.From,
				To:        pj.Shape.To,
				Factor:    pj.Shape.Factor,
				At:        simtime.Duration(pj.Shape.At),
				Width:     simtime.Duration(pj.Shape.Width),
				Period:    simtime.Duration(pj.Shape.Period),
				Amplitude: pj.Shape.Amplitude,
			}
		}
		for _, cj := range pj.Classes {
			tc := TrafficClass{
				Name:         cj.Name,
				Rate:         cj.Rate,
				Keys:         cj.Keys,
				ZipfS:        cj.Zipf,
				ReadFraction: cj.Reads,
				ValueBytes:   cj.ValueBytes,
			}
			if rj := cj.Resilience; rj != nil {
				tc.Resilience = &Resilience{
					Timeout: simtime.Duration(rj.Timeout),
					Retries: rj.Retries,
					Backoff: simtime.Duration(rj.Backoff),
					Jitter:  rj.Jitter,
					Hedge:   simtime.Duration(rj.Hedge),
				}
			}
			p.Classes = append(p.Classes, tc)
		}
		s.Phases = append(s.Phases, p)
	}
	for _, ej := range doc.Events {
		e := Event{
			At:        simtime.Duration(ej.At),
			Node:      -1,
			Kind:      EventKind(ej.Kind),
			Bytes:     ej.MB << 20,
			Policy:    KillPolicy(ej.Policy),
			Factor:    ej.Factor,
			ErrorRate: ej.ErrorRate,
			Duration:  simtime.Duration(ej.Duration),
		}
		if ej.Bytes > 0 {
			e.Bytes = ej.Bytes
		}
		if ej.Node != nil {
			e.Node = *ej.Node
		}
		if ej.Shard != nil {
			shard := *ej.Shard
			e.Shard = &shard
		}
		if ej.Pressure != nil {
			kind := PressureAnon
			if ej.Pressure.Kind == "file" {
				kind = PressureFile
			} else if ej.Pressure.Kind != "" && ej.Pressure.Kind != "anon" {
				return Scenario{}, fmt.Errorf("workload: scenario JSON: pressure kind must be \"anon\" or \"file\" (got %q)", ej.Pressure.Kind)
			}
			cfg := DefaultPressureConfig(kind)
			if ej.Pressure.FreeMB > 0 {
				cfg.FreeBytes = ej.Pressure.FreeMB << 20
			}
			if ej.Pressure.FileMB > 0 {
				cfg.FileBytes = ej.Pressure.FileMB << 20
			}
			e.Pressure = &cfg
		}
		if ej.Batch != nil {
			cfg := batch.DefaultConfig()
			if ej.Batch.TargetMB > 0 {
				cfg.TargetBytes = ej.Batch.TargetMB << 20
			}
			if ej.Batch.InputMB > 0 {
				cfg.InputBytes = ej.Batch.InputMB << 20
			}
			if ej.Batch.WorkFor > 0 {
				cfg.WorkDuration = simtime.Duration(ej.Batch.WorkFor)
			}
			if ej.Batch.RampTicks > 0 {
				cfg.RampTicks = ej.Batch.RampTicks
			}
			if ej.Batch.TickPeriod > 0 {
				cfg.TickPeriod = simtime.Duration(ej.Batch.TickPeriod)
			}
			e.Batch = &cfg
		}
		if e.Kind == EventDaemonStart {
			cfg := monitor.DefaultConfig()
			e.Daemon = &cfg
		}
		s.Events = append(s.Events, e)
	}
	if doc.SLO != nil {
		s.SLO = &SLO{
			P99:        simtime.Duration(doc.SLO.P99),
			Window:     simtime.Duration(doc.SLO.Window),
			MinSamples: doc.SLO.MinSamples,
		}
	}
	if doc.Policies != nil {
		pol := Policies{}
		if doc.Policies.Shed != nil {
			pol.Shed = &ShedPolicy{Step: doc.Policies.Shed.Step, Max: doc.Policies.Shed.Max}
		}
		if doc.Policies.Batch != nil {
			pol.Batch = &BatchPolicy{Step: doc.Policies.Batch.Step, Min: doc.Policies.Batch.Min}
		}
		if doc.Policies.Allocator != nil {
			pol.Allocator = &AllocatorPolicy{Conservative: doc.Policies.Allocator.Conservative}
		}
		if doc.Policies.Watermark != nil {
			pol.Watermark = &WatermarkPolicy{Step: doc.Policies.Watermark.Step, Max: doc.Policies.Watermark.Max}
		}
		s.Policies = &pol
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// MarshalScenarioJSON encodes a scenario into the spec-file wire format.
// The format is MB-grained for pressure/batch sizes and carries no custom
// daemon config (daemon-start re-parses to the default config), so a
// scenario built through the Go API round-trips exactly only within what
// the wire format expresses; squeeze footprints keep exact byte values.
func MarshalScenarioJSON(s Scenario) ([]byte, error) {
	seed := s.Seed
	doc := scenarioJSON{
		Name:  s.Name,
		Seed:  &seed,
		Start: jsonDur(s.Start),
	}
	for _, p := range s.Phases {
		pj := phaseJSON{
			Name:     p.Name,
			Duration: jsonDur(p.Duration),
			Requests: p.Requests,
		}
		if p.Shape.ShapeKind() != ShapeConstant {
			pj.Shape = &shapeJSON{
				Kind:      string(p.Shape.Kind),
				From:      p.Shape.From,
				To:        p.Shape.To,
				Factor:    p.Shape.Factor,
				At:        jsonDur(p.Shape.At),
				Width:     jsonDur(p.Shape.Width),
				Period:    jsonDur(p.Shape.Period),
				Amplitude: p.Shape.Amplitude,
			}
		}
		for _, tc := range p.Classes {
			cj := classJSON{
				Name:       tc.Name,
				Rate:       tc.Rate,
				Keys:       tc.Keys,
				Zipf:       tc.ZipfS,
				Reads:      tc.ReadFraction,
				ValueBytes: tc.ValueBytes,
			}
			if r := tc.Resilience; r != nil {
				cj.Resilience = &resilienceJSON{
					Timeout: jsonDur(r.Timeout),
					Retries: r.Retries,
					Backoff: jsonDur(r.Backoff),
					Jitter:  r.Jitter,
					Hedge:   jsonDur(r.Hedge),
				}
			}
			pj.Classes = append(pj.Classes, cj)
		}
		doc.Phases = append(doc.Phases, pj)
	}
	for _, e := range s.Events {
		ej := eventJSON{
			At:        jsonDur(e.At),
			Kind:      string(e.Kind),
			Policy:    string(e.Policy),
			Factor:    e.Factor,
			ErrorRate: e.ErrorRate,
			Duration:  jsonDur(e.Duration),
		}
		if e.Shard != nil {
			shard := *e.Shard
			ej.Shard = &shard
		}
		if e.Bytes%(1<<20) == 0 {
			ej.MB = e.Bytes >> 20
		} else {
			ej.Bytes = e.Bytes // not MB-aligned: keep the exact value
		}
		if e.Node >= 0 {
			n := e.Node
			ej.Node = &n
		}
		if e.Pressure != nil {
			kind := "anon"
			if e.Pressure.Kind == PressureFile {
				kind = "file"
			}
			ej.Pressure = &pressureJSON{
				Kind:   kind,
				FreeMB: e.Pressure.FreeBytes >> 20,
				FileMB: e.Pressure.FileBytes >> 20,
			}
		}
		if e.Batch != nil {
			ej.Batch = &batchJSON{
				TargetMB:   e.Batch.TargetBytes >> 20,
				InputMB:    e.Batch.InputBytes >> 20,
				WorkFor:    jsonDur(e.Batch.WorkDuration),
				RampTicks:  e.Batch.RampTicks,
				TickPeriod: jsonDur(e.Batch.TickPeriod),
			}
		}
		doc.Events = append(doc.Events, ej)
	}
	if s.SLO != nil {
		doc.SLO = &sloJSON{
			P99:        jsonDur(s.SLO.P99),
			Window:     jsonDur(s.SLO.Window),
			MinSamples: s.SLO.MinSamples,
		}
	}
	if s.Policies != nil {
		pol := policiesJSON{}
		if s.Policies.Shed != nil {
			pol.Shed = &shedJSON{Step: s.Policies.Shed.Step, Max: s.Policies.Shed.Max}
		}
		if s.Policies.Batch != nil {
			pol.Batch = &batchPolJSON{Step: s.Policies.Batch.Step, Min: s.Policies.Batch.Min}
		}
		if s.Policies.Allocator != nil {
			pol.Allocator = &allocPolJSON{Conservative: s.Policies.Allocator.Conservative}
		}
		if s.Policies.Watermark != nil {
			pol.Watermark = &wmPolJSON{Step: s.Policies.Watermark.Step, Max: s.Policies.Watermark.Max}
		}
		doc.Policies = &pol
	}
	return json.MarshalIndent(doc, "", "  ")
}
