package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/hermes-sim/hermes/internal/core"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
)

// This file holds the ablations for the design decisions DESIGN.md §5
// calls out: gradual vs at-once reservation (the paper's Fig 6 argument),
// and mlock- vs touch-based mapping construction (§4's "at least 40%
// faster" claim).

// Fig6AblationResult compares gradual reservation against single-step
// reservation under a bursty small-request load.
type Fig6AblationResult struct {
	Gradual stats.Summary
	AtOnce  stats.Summary
	// MaxLockHold is the longest single break-lock hold in each mode —
	// the quantity Fig 6 is about; the Waited totals are the time process
	// mallocs spent blocked on the break lock.
	GradualMaxHold time.Duration
	AtOnceMaxHold  time.Duration
	GradualWaited  time.Duration
	AtOnceWaited   time.Duration
}

// Fig6Ablation reproduces the §3.2.1 argument: with gradual reservation a
// malloc racing the management thread waits at most one small chunk's
// mapping construction; reserving the whole target at once blocks it for
// the full expansion.
func Fig6Ablation(scale Scale, seed uint64) Fig6AblationResult {
	res := Fig6AblationResult{}
	res.Gradual, res.GradualMaxHold, res.GradualWaited = runFig6Cell(scale, seed, false)
	res.AtOnce, res.AtOnceMaxHold, res.AtOnceWaited = runFig6Cell(scale, seed, true)
	return res
}

func runFig6Cell(scale Scale, seed uint64, atOnce bool) (stats.Summary, time.Duration, time.Duration) {
	cfg := core.DefaultConfig()
	if atOnce {
		cfg.GradualChunkCeil = 0
	}
	// A modest target with a late RSV_THR means reservation starts when
	// the top chunk is nearly empty, so a burst can exhaust it while the
	// expansion is mid-flight — the race of Fig 6.
	cfg.MinReserve = 1 << 20
	cfg.RsvThrFraction = 0.1
	k, s, _, env := newMicroCell(KindHermes, ScenarioDedicated, scale.MicroTotalBytes, seed, &cfg)
	defer env.close()
	s.Advance(10 * simtime.Millisecond)
	rec := stats.NewRecorder("ablation")
	rng := k.RNG()
	var requested int64
	burst := int64(512) // 2 MB per burst: exceeds the reserve target
	for requested < scale.MicroTotalBytes {
		for i := int64(0); i < burst; i++ {
			b, c1 := env.a.Malloc(s.Now(), 4096)
			c2 := env.a.Touch(s.Now().Add(c1), b)
			env.a.Drop(b)
			rec.Record(c1 + c2)
			s.Advance(c1 + c2)
			requested += 4096
		}
		s.Advance(simtime.Duration(float64(4*simtime.Millisecond) * rng.Float64()))
	}
	_, waited := env.hermes.Glibc().BreakLock().Contention()
	return rec.Summarize(), time.Duration(env.hermes.MgmtStats().MaxLockHold), time.Duration(waited)
}

// Render prints the comparison.
func (r Fig6AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 6 ablation: gradual vs at-once reservation (bursty 4KB requests)\n")
	fmt.Fprintf(&b, "  gradual: p99=%-12v max=%-12v longest hold=%-12v total blocked=%v\n",
		r.Gradual.P99, r.Gradual.Max, r.GradualMaxHold, r.GradualWaited)
	fmt.Fprintf(&b, "  at-once: p99=%-12v max=%-12v longest hold=%-12v total blocked=%v\n",
		r.AtOnce.P99, r.AtOnce.Max, r.AtOnceMaxHold, r.AtOnceWaited)
	return b.String()
}

// MlockAblationResult compares mlock-based mapping construction against
// the touch-by-iteration alternative (§4).
type MlockAblationResult struct {
	// MgmtBusyMlock / MgmtBusyTouch is the management thread's virtual
	// CPU consumption in each mode over the same workload.
	MgmtBusyMlock time.Duration
	MgmtBusyTouch time.Duration
}

// MlockAblation measures the §4 claim by re-pricing PopulateLocked at the
// plain fault cost (the touch-loop implementation) and comparing the
// management thread's construction time over an identical run.
func MlockAblation(scale Scale, seed uint64) MlockAblationResult {
	return MlockAblationResult{
		MgmtBusyMlock: mlockRun(scale, seed, false),
		MgmtBusyTouch: mlockRun(scale, seed, true),
	}
}

// mlockRun runs the small-request micro-benchmark on Hermes and returns the
// management thread's total busy time, with mapping construction priced
// either as mlock (the design) or as a touch loop (the ablation).
func mlockRun(scale Scale, seed uint64, touchPricing bool) time.Duration {
	s := simtime.NewScheduler()
	kcfg := kernel.DefaultConfig()
	kcfg.Seed = seed
	if touchPricing {
		kcfg.Costs.MlockPerPage = kcfg.Costs.HeapFaultPerPage
		kcfg.Costs.MlockBase = 0
	}
	k := kernel.New(s, kcfg)
	env := newAllocEnv(k, KindHermes, "mlock-ablation", nil, nil)
	defer env.close()
	s.Advance(10 * simtime.Millisecond)
	rec := stats.NewRecorder("x")
	workload.RunMicroBench(k, env.a, workload.MicroBenchConfig{
		RequestSize: 1024,
		TotalBytes:  scale.MicroTotalBytes / 4,
	}, rec)
	return time.Duration(env.hermes.MgmtBusy())
}

// Render prints the comparison and the headline ratio.
func (r MlockAblationResult) Render() string {
	ratio := 0.0
	if r.MgmtBusyTouch > 0 {
		ratio = (1 - float64(r.MgmtBusyMlock)/float64(r.MgmtBusyTouch)) * 100
	}
	return fmt.Sprintf(
		"mlock ablation: construction via mlock %v vs touch-loop %v — %.1f%% faster (paper: ≥40%%)\n",
		r.MgmtBusyMlock, r.MgmtBusyTouch, ratio)
}
