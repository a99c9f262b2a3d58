package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
)

// This file holds the wire formats of the time series: JSON-lines (one
// Sample object per line — the campaign runner's and the golden tests'
// format) and Prometheus text exposition (for scraping a finished run into
// standard dashboards). Both are pure functions of the sample slice.

// IsPrometheusPath reports whether a metrics file path selects the
// Prometheus text exposition: a .prom or .txt extension. Every other path
// is JSON-lines.
func IsPrometheusPath(path string) bool {
	ext := filepath.Ext(path)
	return ext == ".prom" || ext == ".txt"
}

// WriteJSONL writes one compact JSON object per sample, one per line.
func WriteJSONL(w io.Writer, samples []Sample) error {
	enc := json.NewEncoder(w)
	for i := range samples {
		if err := enc.Encode(&samples[i]); err != nil {
			return err
		}
	}
	return nil
}

// ParseJSONL reads a JSON-lines stream produced by WriteJSONL. Blank lines
// are ignored; any other malformed line is an error.
func ParseJSONL(r io.Reader) ([]Sample, error) {
	var samples []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var s Sample
		if err := json.Unmarshal([]byte(text), &s); err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", line, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// promMetric describes one exported Prometheus series.
type promMetric struct {
	name  string
	kind  string // "counter" or "gauge"
	help  string
	value func(s Sample, cum *Sample) float64
}

// promMetrics lists the exported series in emission order. Counter series
// are cumulative (the Prometheus convention), rebuilt from the per-window
// deltas; gauges are the window's instantaneous value.
var promMetrics = []promMetric{
	{"hermes_requests_total", "counter", "Requests served.",
		func(s Sample, cum *Sample) float64 { return float64(cum.Requests) }},
	{"hermes_latency_p50_seconds", "gauge", "Median service latency over the window.",
		func(s Sample, cum *Sample) float64 { return s.P50.Seconds() }},
	{"hermes_latency_p99_seconds", "gauge", "99th-percentile service latency over the window.",
		func(s Sample, cum *Sample) float64 { return s.P99.Seconds() }},
	{"hermes_latency_max_seconds", "gauge", "Maximum service latency over the window.",
		func(s Sample, cum *Sample) float64 { return s.Max.Seconds() }},
	{"hermes_reclaims_total", "counter", "Kernel direct reclaim passes.",
		func(s Sample, cum *Sample) float64 { return float64(cum.Reclaims) }},
	{"hermes_swapouts_total", "counter", "Pages swapped out.",
		func(s Sample, cum *Sample) float64 { return float64(cum.Swapouts) }},
	{"hermes_rss_bytes", "gauge", "Fleet resident memory.",
		func(s Sample, cum *Sample) float64 { return float64(s.RSSBytes) }},
	{"hermes_shed_total", "counter", "Requests shed by admission control.",
		func(s Sample, cum *Sample) float64 { return float64(cum.Shed) }},
	{"hermes_retries_total", "counter", "Client retries.",
		func(s Sample, cum *Sample) float64 { return float64(cum.Retries) }},
	{"hermes_errors_total", "counter", "Injected server errors.",
		func(s Sample, cum *Sample) float64 { return float64(cum.Errors) }},
	{"hermes_timeouts_total", "counter", "Client-observed timeouts.",
		func(s Sample, cum *Sample) float64 { return float64(cum.Timeouts) }},
	{"hermes_hedges_total", "counter", "Hedged requests issued.",
		func(s Sample, cum *Sample) float64 { return float64(cum.Hedges) }},
	{"hermes_controller_actions_total", "counter", "Control-plane reconfiguration actions.",
		func(s Sample, cum *Sample) float64 { return float64(cum.Actions) }},
}

// WritePrometheus writes the series in Prometheus text exposition format,
// one sample point per window per metric, timestamped with the window end
// on the virtual timeline (milliseconds, the exposition unit). Counter
// series carry cumulative values as the format requires.
func WritePrometheus(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	var cum Sample
	cums := make([]Sample, len(samples))
	for i, s := range samples {
		cum.Requests += s.Requests
		cum.Reclaims += s.Reclaims
		cum.Swapouts += s.Swapouts
		cum.Shed += s.Shed
		cum.Retries += s.Retries
		cum.Errors += s.Errors
		cum.Timeouts += s.Timeouts
		cum.Hedges += s.Hedges
		cum.Actions += s.Actions
		cums[i] = cum
	}
	for _, m := range promMetrics {
		fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		for i, s := range samples {
			ts := int64(s.End) / 1e6 // virtual ms
			fmt.Fprintf(bw, "%s %s %d\n",
				m.name, strconv.FormatFloat(m.value(s, &cums[i]), 'g', -1, 64), ts)
		}
	}
	return bw.Flush()
}

// ParsePrometheus validates a text-exposition stream: every non-comment
// line must be `name value timestamp`, every series must be declared by
// HELP/TYPE headers first, and counter series must be non-decreasing.
// Returns the number of sample lines. The CI format gate.
func ParsePrometheus(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	typed := map[string]string{} // name -> counter|gauge
	last := map[string]float64{}
	n, line := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return 0, fmt.Errorf("metrics: line %d: malformed comment %q", line, text)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 || (fields[3] != "counter" && fields[3] != "gauge") {
					return 0, fmt.Errorf("metrics: line %d: malformed TYPE %q", line, text)
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return 0, fmt.Errorf("metrics: line %d: want `name value timestamp`, got %q", line, text)
		}
		kind, ok := typed[fields[0]]
		if !ok {
			return 0, fmt.Errorf("metrics: line %d: series %s has no TYPE header", line, fields[0])
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("metrics: line %d: bad value %q: %v", line, fields[1], err)
		}
		if _, err := strconv.ParseInt(fields[2], 10, 64); err != nil {
			return 0, fmt.Errorf("metrics: line %d: bad timestamp %q: %v", line, fields[2], err)
		}
		if kind == "counter" {
			if prev, seen := last[fields[0]]; seen && v < prev {
				return 0, fmt.Errorf("metrics: line %d: counter %s decreased %v -> %v",
					line, fields[0], prev, v)
			}
			last[fields[0]] = v
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return n, nil
}
