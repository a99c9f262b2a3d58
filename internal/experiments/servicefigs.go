package experiments

import (
	"fmt"
	"strings"

	"github.com/hermes-sim/hermes/internal/stats"
)

// This file assembles the per-figure service results: Figure 2 (query
// breakdown), Figures 9/11/13 (Redis) and Figures 10/12/14 (Rocksdb).

// Fig2Result holds the Rocksdb insert/read breakdown of §2.2.
type Fig2Result struct {
	// Small and Large hold, per percentile key, the insert share of the
	// whole query latency (percent).
	Small map[string]float64
	Large map[string]float64
}

// Fig2 reproduces Figure 2: the share of query latency spent in the
// insertion (allocation) path for 1 KB and 200 KB Rocksdb records on a
// dedicated system with Glibc. Paper anchors: small 74.7% of the average
// (54.5% of p99); large 93.5% (97.5%).
func Fig2(scale Scale, seed uint64) Fig2Result {
	res := Fig2Result{
		Small: make(map[string]float64),
		Large: make(map[string]float64),
	}
	for _, recordBytes := range []int64{SmallRecordBytes, LargeRecordBytes} {
		cell := RunServiceCell(ServiceRocksdb, KindGlibc, 0, recordBytes, scale, seed)
		ins, rd := cell.Insert.Summarize(), cell.Read.Summarize()
		out := res.Small
		if recordBytes == LargeRecordBytes {
			out = res.Large
		}
		for _, key := range stats.PercentileKeys {
			total := ins.At(key) + rd.At(key)
			if total > 0 {
				out[key] = 100 * float64(ins.At(key)) / float64(total)
			}
		}
	}
	return res
}

// Render prints the Figure 2 bars.
func (r Fig2Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 2: insert share of Rocksdb query latency (%)\n")
	fmt.Fprintf(&b, "%-8s", "")
	for _, key := range stats.PercentileKeys {
		fmt.Fprintf(&b, " %8s", key)
	}
	b.WriteString("\n")
	for _, row := range []struct {
		name string
		data map[string]float64
	}{{"small", r.Small}, {"large", r.Large}} {
		fmt.Fprintf(&b, "%-8s", row.name)
		for _, key := range stats.PercentileKeys {
			fmt.Fprintf(&b, " %8.1f", row.data[key])
		}
		b.WriteString("\n")
	}
	b.WriteString("paper: small 74.7 (avg) … 54.5 (p99); large 93.5 (avg) … 97.5 (p99)\n")
	return b.String()
}

// ServiceFigures bundles both record sizes for one service.
type ServiceFigures struct {
	Small ServiceSweep
	Large ServiceSweep
}

// Fig9 runs the Redis sweeps behind Figures 9, 11 and 13.
func Fig9(scale Scale, seed uint64) ServiceFigures {
	return ServiceFigures{
		Small: RunServiceSweep(ServiceRedis, SmallRecordBytes, scale, seed),
		Large: RunServiceSweep(ServiceRedis, LargeRecordBytes, scale, seed),
	}
}

// Fig10 runs the Rocksdb sweeps behind Figures 10, 12 and 14.
func Fig10(scale Scale, seed uint64) ServiceFigures {
	return ServiceFigures{
		Small: RunServiceSweep(ServiceRocksdb, SmallRecordBytes, scale, seed),
		Large: RunServiceSweep(ServiceRocksdb, LargeRecordBytes, scale, seed),
	}
}

// RenderLatency prints the Figure 9/10 view.
func (f ServiceFigures) RenderLatency(figure string) string {
	return f.Small.RenderP90(figure+"(a)") + "\n" + f.Large.RenderP90(figure+"(b)")
}

// RenderTail prints the Figure 11/12 view.
func (f ServiceFigures) RenderTail(figure string) string {
	return f.Small.RenderTailCDF(figure+"(a)") + "\n" + f.Large.RenderTailCDF(figure+"(b)")
}

// RenderViolation prints the Figure 13/14 view.
func (f ServiceFigures) RenderViolation(figure string) string {
	return f.Small.RenderViolation(figure+"(a)") + "\n" + f.Large.RenderViolation(figure+"(b)")
}
