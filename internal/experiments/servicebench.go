package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/services"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
)

// This file runs the real-world-service experiments: the query-latency and
// SLO-violation sweeps of Figures 9–14 and the Figure 2 breakdown.

// ServiceKind selects the latency-critical service under test.
type ServiceKind string

// The two services of §5.3.
const (
	ServiceRedis   ServiceKind = "Redis"
	ServiceRocksdb ServiceKind = "Rocksdb"
)

// PressureLevels is the x-axis of Figures 9, 10, 13, 14: batch jobs'
// logical memory as a fraction of node capacity.
var PressureLevels = []float64{0, 0.5, 0.75, 1.0, 1.25, 1.5}

// Record sizes: the paper uses 1 KB ("small") and 200 KB ("large") records.
const (
	SmallRecordBytes = 1 << 10
	LargeRecordBytes = 200 << 10
)

// SizeLabel renders a record size the way the paper does.
func SizeLabel(recordBytes int64) string {
	if recordBytes <= SmallRecordBytes {
		return "small"
	}
	return "large"
}

// ServiceCell is one (allocator, pressure level) run's recorders.
type ServiceCell struct {
	// Total is the whole query latency; Insert and Read are its parts.
	Total  *stats.Recorder
	Insert *stats.Recorder
	Read   *stats.Recorder
}

// newService builds the service under test on the given allocator.
func newService(k *kernel.Kernel, kind ServiceKind, env *allocEnv, scale Scale, tag string) services.Service {
	switch kind {
	case ServiceRedis:
		return services.NewRedis(k, env.a, services.RedisCosts())
	case ServiceRocksdb:
		cfg := services.DefaultRocksdbConfig()
		// Keep the LSM tiers proportional on the scaled node.
		cfg.MemtableBytes = scale.NodeMemory / 128
		cfg.BlockCacheBytes = scale.NodeMemory / 64
		return services.NewRocksdb(k, env.a, services.RocksdbCosts(), cfg, tag)
	default:
		panic(fmt.Sprintf("experiments: unknown service %q", kind))
	}
}

// RunServiceCell co-locates the service with batch jobs at the given
// pressure level and drives insert+read queries until the dataset reaches
// the scale's insert volume.
func RunServiceCell(svcKind ServiceKind, allocKind AllocKind, level float64, recordBytes int64, scale Scale, seed uint64) ServiceCell {
	k, s := serviceNode(scale, seed)

	var runner *batch.Runner
	if level > 0 {
		bcfg := batch.DefaultConfig()
		bcfg.TargetBytes = int64(level * float64(scale.NodeMemory))
		bcfg.InputBytes = scale.NodeMemory / 16
		// Jobs churn a few times within one service run.
		bcfg.WorkDuration = 20 * simtime.Second
		runner = batch.NewRunner(k, bcfg)
	}

	env := newAllocEnv(k, allocKind, string(svcKind), nil, nil)
	defer env.close()
	if env.reg != nil && runner != nil {
		runner.RegisterEvery(env.reg, 500*simtime.Millisecond)
	}

	name := fmt.Sprintf("%s-%s-%s", svcKind, allocKind, SizeLabel(recordBytes))
	svc := newService(k, svcKind, env, scale, name)
	defer svc.Close()

	// Let the batch ramp and the management thread warm up.
	s.Advance(2 * simtime.Second)

	cell := ServiceCell{
		Total:  stats.NewRecorder(fmt.Sprintf("%s@%d%%", allocKind, int(level*100))),
		Insert: stats.NewRecorder("insert"),
		Read:   stats.NewRecorder("read"),
	}
	var key int64
	for svc.StoredBytes() < scale.ServiceInsertBytes {
		key++
		total, ins, rd := svc.Query(key, recordBytes)
		cell.Total.Record(total)
		cell.Insert.Record(ins)
		cell.Read.Record(rd)
	}
	if runner != nil {
		runner.Stop()
	}
	k.CheckInvariants()
	return cell
}

// ServiceSweep holds one service×record-size sweep across allocators and
// pressure levels — the data behind one panel each of Figures 9–14.
type ServiceSweep struct {
	Service     ServiceKind
	RecordBytes int64
	Levels      []float64
	// Cells is indexed [allocator][level index].
	Cells map[AllocKind][]ServiceCell
	// SLO is the Glibc-dedicated p90, the paper's SLO definition.
	SLO time.Duration
}

// RunServiceSweep runs the full allocator × pressure-level grid.
func RunServiceSweep(svcKind ServiceKind, recordBytes int64, scale Scale, seed uint64) ServiceSweep {
	sweep := ServiceSweep{
		Service:     svcKind,
		RecordBytes: recordBytes,
		Levels:      PressureLevels,
		Cells:       make(map[AllocKind][]ServiceCell),
	}
	for _, kind := range AllAllocKinds {
		cells := make([]ServiceCell, 0, len(sweep.Levels))
		for _, level := range sweep.Levels {
			cells = append(cells, RunServiceCell(svcKind, kind, level, recordBytes, scale, seed))
		}
		sweep.Cells[kind] = cells
	}
	sweep.SLO = sweep.Cells[KindGlibc][0].Total.Percentile(90)
	return sweep
}

// P90 returns the p90 latency for the allocator at the level index.
func (sw ServiceSweep) P90(kind AllocKind, levelIdx int) time.Duration {
	return sw.Cells[kind][levelIdx].Total.Percentile(90)
}

// Violation returns the SLO-violation ratio (Figures 13, 14).
func (sw ServiceSweep) Violation(kind AllocKind, levelIdx int) float64 {
	return sw.Cells[kind][levelIdx].Total.ViolationRatio(sw.SLO)
}

// ViolationReduction returns Hermes' best-case SLO-violation reduction vs
// the worst competitor at ≥100% levels — the paper's headline "up to
// 83.6%/84.3%" metric.
func (sw ServiceSweep) ViolationReduction() float64 {
	best := 0.0
	for i, level := range sw.Levels {
		if level < 1.0 {
			continue
		}
		hermes := sw.Violation(KindHermes, i)
		for _, kind := range []AllocKind{KindGlibc, KindJemalloc, KindTCMalloc} {
			other := sw.Violation(kind, i)
			if other <= 0 {
				continue
			}
			if red := (1 - hermes/other) * 100; red > best {
				best = red
			}
		}
	}
	return best
}

// RenderP90 prints the Figure 9/10 panel: p90 latency per pressure level.
func (sw ServiceSweep) RenderP90(figure string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s %s requests — p90 query latency (SLO=%v)\n",
		figure, sw.Service, SizeLabel(sw.RecordBytes), sw.SLO)
	fmt.Fprintf(&b, "%-10s", "level")
	for _, kind := range AllAllocKinds {
		fmt.Fprintf(&b, " %-12s", kind)
	}
	b.WriteString("\n")
	for i, level := range sw.Levels {
		fmt.Fprintf(&b, "%-10s", fmt.Sprintf("%d%%", int(level*100)))
		for _, kind := range AllAllocKinds {
			fmt.Fprintf(&b, " %-12v", sw.P90(kind, i))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderViolation prints the Figure 13/14 panel: SLO-violation ratios.
func (sw ServiceSweep) RenderViolation(figure string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s %s requests — SLO violation (%%), SLO=%v\n",
		figure, sw.Service, SizeLabel(sw.RecordBytes), sw.SLO)
	fmt.Fprintf(&b, "%-10s", "level")
	for _, kind := range AllAllocKinds {
		fmt.Fprintf(&b, " %-12s", kind)
	}
	b.WriteString("\n")
	for i, level := range sw.Levels {
		if level == 0 {
			continue // the paper's violation figures start at 50%
		}
		fmt.Fprintf(&b, "%-10s", fmt.Sprintf("%d%%", int(level*100)))
		for _, kind := range AllAllocKinds {
			fmt.Fprintf(&b, " %-12.1f", sw.Violation(kind, i)*100)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "best Hermes violation reduction at ≥100%%: %.1f%% (paper: up to 83.6%%/84.3%%)\n",
		sw.ViolationReduction())
	return b.String()
}

// RenderTailCDF prints the Figure 11/12 panel: the p90–p99 tail at 100%
// pressure.
func (sw ServiceSweep) RenderTailCDF(figure string) string {
	levelIdx := -1
	for i, level := range sw.Levels {
		if level == 1.0 {
			levelIdx = i
		}
	}
	if levelIdx < 0 {
		return figure + ": no 100% level in sweep\n"
	}
	var b strings.Builder
	series := make(map[string][]stats.CDFPoint)
	var order []string
	for _, kind := range AllAllocKinds {
		name := string(kind)
		order = append(order, name)
		series[name] = sw.Cells[kind][levelIdx].Total.TailCDF(0.90, 40)
	}
	b.WriteString(stats.RenderCDFTable(
		fmt.Sprintf("%s: %s %s requests @100%% pressure — tail latency CDF",
			figure, sw.Service, SizeLabel(sw.RecordBytes)),
		[]float64{0.90, 0.95, 0.99}, series, order))
	return b.String()
}
