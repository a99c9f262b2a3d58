package experiments

import (
	"slices"
	"testing"

	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
)

// The micro stream the heap test and the cell benchmark drive: 16 MiB of
// 1 KiB mallocs.
const (
	microStreamBytes = 16 << 20
	microStreamReq   = 1 << 10
	microStreamOps   = microStreamBytes / microStreamReq
)

// microKinds is every allocator configuration a micro cell can run.
var microKinds = slices.Concat(AllAllocKinds, []AllocKind{KindHermesNoRec})

// TestMicroBenchHeapAllocs: the micro-benchmark's request stream stays off
// the Go heap in every allocator × regime cell. New Blocks come from slabs,
// jitter and touch read the kernel's cost table in place, periodic ticks
// reschedule a bound callback and the digest is presized, so a simulated
// malloc costs at most 1/16 of a Go allocation, background pressure and
// daemons included.
func TestMicroBenchHeapAllocs(t *testing.T) {
	cfg := workload.MicroBenchConfig{RequestSize: microStreamReq, TotalBytes: microStreamBytes}
	for _, scenario := range AllScenarios {
		for _, kind := range microKinds {
			t.Run(seriesName(kind, scenario), func(t *testing.T) {
				k, s, pressure, env := newMicroCell(kind, scenario, microStreamBytes, 1, nil)
				if pressure != nil {
					defer pressure.Stop()
				}
				defer env.close()
				s.Advance(20 * simtime.Millisecond)
				allocs := testing.AllocsPerRun(1, func() {
					workload.RunMicroBench(k, env.a, cfg, stats.NewRecorder("heap"))
				})
				if per := allocs / microStreamOps; per > 1.0/16 {
					t.Fatalf("%.0f Go allocations for %d mallocs (%.3f per malloc), want at most 1/16 per malloc",
						allocs, microStreamOps, per)
				}
			})
		}
	}
}

// microSink keeps BenchmarkMicroCell's result live.
var microSink *stats.Recorder

// BenchmarkMicroCell times one dedicated-regime micro cell per allocator
// kind, node boot included: 16 MiB of 1 KiB mallocs per iteration,
// reported per simulated malloc. -benchmem adds the cell's Go allocations.
func BenchmarkMicroCell(b *testing.B) {
	for _, kind := range microKinds {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microSink, _ = runMicroCell(kind, ScenarioDedicated, microStreamReq, microStreamBytes, 1, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*microStreamOps), "ns/malloc")
		})
	}
}
