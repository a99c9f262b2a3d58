package experiments

import (
	"fmt"
	"strings"

	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
)

// This file reproduces the overhead accounting of §5.5: the management
// thread's CPU share (~0.4%), the reserved-but-unused memory (~6–6.4 MB for
// the micro-benchmark), and the monitor daemon's footprint (~2 MB memory,
// ~2.4% CPU).

// OverheadResult reports the §5.5 metrics.
type OverheadResult struct {
	// MgmtCPUSmall/MgmtCPULarge is the management thread's virtual CPU
	// share during the saturating small/large micro-benchmark; MgmtCPUPaced
	// is the share under a service-like paced allocation rate (the regime
	// of the paper's ~0.4% figure — mapping construction is proportional
	// to the allocation rate, so a saturating benchmark costs more).
	MgmtCPUSmall float64
	MgmtCPULarge float64
	MgmtCPUPaced float64
	// ReservedSmall/ReservedLarge is the peak reserved-but-unused memory.
	ReservedSmall int64
	ReservedLarge int64
	// DaemonCPU is the monitor daemon's virtual CPU share while
	// monitoring a loaded node; DaemonMemBytes is its fixed footprint
	// (process + shared memory, a constant of the design).
	DaemonCPU      float64
	DaemonMemBytes int64
}

// Overhead measures the §5.5 numbers on the micro-benchmark.
func Overhead(scale Scale, seed uint64) OverheadResult {
	res := OverheadResult{DaemonMemBytes: 2 << 20}
	for _, reqSize := range []int64{1024, 256 << 10} {
		c := NewMicroCell(microConfig(seed), KindHermesNoRec, ScenarioDedicated, scale.MicroTotalBytes, nil)
		c.Sched.Advance(10 * simtime.Millisecond)
		rec := stats.NewRecorder("overhead")
		workload.RunMicroBench(c.Kernel, c.env.a, workload.MicroBenchConfig{
			RequestSize: reqSize,
			TotalBytes:  scale.MicroTotalBytes,
		}, rec)
		util := c.env.hermes.MgmtUtilization(c.Sched.Now())
		peak := c.env.a.Stats().ReservePeak
		if reqSize == 1024 {
			res.MgmtCPUSmall, res.ReservedSmall = util, peak
		} else {
			res.MgmtCPULarge, res.ReservedLarge = util, peak
		}
		c.Close()
	}

	// Paced allocation: one 1 KB request every 100 µs (~10 MB/s, a busy
	// service rather than a saturating benchmark).
	{
		c := NewMicroCell(microConfig(seed), KindHermesNoRec, ScenarioDedicated, scale.MicroTotalBytes, nil)
		s := c.Sched
		for i := 0; i < 20000; i++ {
			b, cost := c.env.a.Malloc(s.Now(), 1024)
			c.env.a.Touch(s.Now().Add(cost), b)
			c.env.a.Drop(b)
			s.Advance(100 * simtime.Microsecond)
		}
		res.MgmtCPUPaced = c.env.hermes.MgmtUtilization(s.Now())
		c.Close()
	}

	// Daemon overhead on a Hermes node with batch files to track.
	c := NewMicroCell(microConfig(seed), KindHermes, ScenarioDedicated, scale.MicroTotalBytes, nil)
	defer c.Close()
	k, s := c.Kernel, c.Sched
	batchProc := k.CreateProcess("batch")
	c.env.reg.AddBatch(batchProc.PID)
	for i := 0; i < 8; i++ {
		f := k.CreateFile(fmt.Sprintf("ovh-%d", i), (1<<30)/k.PageSize(), batchProc.PID)
		k.ReadFile(s.Now(), f, f.SizePages())
	}
	s.Advance(10 * simtime.Second)
	res.DaemonCPU = c.env.daemon.Utilization(s.Now())
	return res
}

// Render prints the §5.5 comparison.
func (r OverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("§5.5 overhead (paper: mgmt ~0.4% CPU; reserved 6–6.4 MB; daemon ~2 MB, ~2.4% CPU)\n")
	fmt.Fprintf(&b, "  mgmt CPU: small %.2f%%, large %.2f%% (saturating); %.2f%% paced\n",
		r.MgmtCPUSmall*100, r.MgmtCPULarge*100, r.MgmtCPUPaced*100)
	fmt.Fprintf(&b, "  peak reserved-unused: small %.1f MB, large %.1f MB\n",
		float64(r.ReservedSmall)/(1<<20), float64(r.ReservedLarge)/(1<<20))
	fmt.Fprintf(&b, "  daemon: %.2f%% CPU, %.1f MB memory\n", r.DaemonCPU*100, float64(r.DaemonMemBytes)/(1<<20))
	return b.String()
}
