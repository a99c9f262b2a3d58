package experiments

import (
	"testing"

	"github.com/hermes-sim/hermes/internal/stats"
)

// The experiment tests assert the paper's qualitative claims — orderings,
// signs, crossovers — at the CI scale. Absolute calibration against the
// paper's numbers is recorded by the full-scale bench run (EXPERIMENTS.md).

func TestFig2InsertDominatesQuery(t *testing.T) {
	r := Fig2(QuickScale(), 1)
	// §2.2: memory allocation dominates the query, more so for large
	// records (paper: 74.7% small, 93.5% large on average).
	if r.Small["avg"] < 50 {
		t.Fatalf("small insert share %.1f%%, want > 50%%", r.Small["avg"])
	}
	if r.Large["avg"] < 85 {
		t.Fatalf("large insert share %.1f%%, want > 85%%", r.Large["avg"])
	}
	if r.Large["avg"] <= r.Small["avg"] {
		t.Fatal("large-record insert share must exceed small-record share")
	}
}

func TestFig3PressureOrdering(t *testing.T) {
	r := Fig3(QuickScale(), 1)
	idle, file, anon := r.Idle.Summarize(), r.File.Summarize(), r.Anon.Summarize()
	// Fig 3 ordering at every reported percentile: idle ≤ file ≤ anon.
	for _, key := range []string{"avg", "p90", "p99"} {
		if !(idle.At(key) <= file.At(key) && file.At(key) <= anon.At(key)) {
			t.Fatalf("%s ordering broken: idle=%v file=%v anon=%v",
				key, idle.At(key), file.At(key), anon.At(key))
		}
	}
	// Anonymous pressure must inflate the tail substantially more than
	// file-cache pressure (paper: +46.6% vs +7.6% p99).
	anonInfl := float64(anon.P99) / float64(idle.P99)
	fileInfl := float64(file.P99) / float64(idle.P99)
	if anonInfl < fileInfl+0.05 {
		t.Fatalf("anon p99 inflation %.2f not clearly above file %.2f", anonInfl, fileInfl)
	}
}

func TestFig7AllocatorSignatures(t *testing.T) {
	r := Fig7(QuickScale(), 1)
	for _, scenario := range AllScenarios {
		hermes := r.Series[seriesName(KindHermes, scenario)].Summarize()
		glibc := r.Series[seriesName(KindGlibc, scenario)].Summarize()
		tcm := r.Series[seriesName(KindTCMalloc, scenario)].Summarize()

		// Hermes beats Glibc at every reported percentile (Fig 7a-c).
		for _, key := range stats.PercentileKeys {
			if hermes.At(key) >= glibc.At(key) {
				t.Errorf("%s: Hermes %s %v not below Glibc %v",
					scenario, key, hermes.At(key), glibc.At(key))
			}
		}
		// TCMalloc: low typical latency, very high tail (§5.2).
		if tcm.P75 >= glibc.P75 {
			t.Errorf("%s: TCMalloc p75 %v should be below Glibc %v", scenario, tcm.P75, glibc.P75)
		}
		if tcm.P99 <= glibc.P99 {
			t.Errorf("%s: TCMalloc p99 %v should exceed Glibc %v", scenario, tcm.P99, glibc.P99)
		}
	}
	// Proactive reclamation: full Hermes under file pressure must be at
	// least as good as Hermes w/o rec at the tail.
	full := r.Series[seriesName(KindHermes, ScenarioFile)].Summarize()
	noRec := r.Series[seriesName(KindHermesNoRec, ScenarioFile)].Summarize()
	if full.P99 > noRec.P99+noRec.P99/10 {
		t.Errorf("Hermes w/ reclamation p99 %v clearly worse than w/o %v", full.P99, noRec.P99)
	}
}

func TestFig8LargeRequests(t *testing.T) {
	r := Fig8(QuickScale(), 1)
	// Dedicated system: Hermes < Glibc < jemalloc on average, jemalloc
	// "longer but more stable" (Fig 8a).
	hermes := r.Series[seriesName(KindHermes, ScenarioDedicated)].Summarize()
	glibc := r.Series[seriesName(KindGlibc, ScenarioDedicated)].Summarize()
	je := r.Series[seriesName(KindJemalloc, ScenarioDedicated)].Summarize()
	if !(hermes.Mean < glibc.Mean && glibc.Mean < je.Mean) {
		t.Fatalf("dedicated large ordering broken: hermes=%v glibc=%v jemalloc=%v",
			hermes.Mean, glibc.Mean, je.Mean)
	}
	// Hermes' dedicated reduction lands near the paper's 12.1%.
	red := r.Reduction(ScenarioDedicated, "avg")
	if red < 5 || red > 25 {
		t.Fatalf("dedicated avg reduction %.1f%%, want ~12%%", red)
	}
	// Under pressure Hermes keeps its p75 near dedicated (pre-mapped
	// requests bypass the kernel).
	hermesAnon := r.Series[seriesName(KindHermes, ScenarioAnon)].Summarize()
	if float64(hermesAnon.P75) > 1.35*float64(hermes.P75) {
		t.Fatalf("Hermes p75 under anon %v strayed from dedicated %v", hermesAnon.P75, hermes.P75)
	}
}

func TestServiceSweepRedis(t *testing.T) {
	sw := RunServiceSweep(ServiceRedis, SmallRecordBytes, QuickScale(), 1)
	full := len(sw.Levels) - 1 // 150%
	hundred := 3               // 100%
	if sw.Levels[hundred] != 1.0 {
		t.Fatalf("level layout changed: %v", sw.Levels)
	}
	// At ≥100% pressure Hermes' p90 must beat Glibc's (Fig 9a) and its
	// SLO violation must be far lower (Fig 13a).
	for _, idx := range []int{hundred, full} {
		if sw.P90(KindHermes, idx) >= sw.P90(KindGlibc, idx) {
			t.Errorf("level %v: Hermes p90 %v not below Glibc %v",
				sw.Levels[idx], sw.P90(KindHermes, idx), sw.P90(KindGlibc, idx))
		}
		if sw.Violation(KindHermes, idx) >= sw.Violation(KindGlibc, idx) {
			t.Errorf("level %v: Hermes violation %.2f not below Glibc %.2f",
				sw.Levels[idx], sw.Violation(KindHermes, idx), sw.Violation(KindGlibc, idx))
		}
	}
	// Headline: violation reduction at ≥100% in the paper's "up to
	// 83.6%" territory.
	if red := sw.ViolationReduction(); red < 40 {
		t.Errorf("violation reduction %.1f%%, want ≥ 40%%", red)
	}
	// Pressure monotonicity for Glibc: higher levels, more violations.
	if sw.Violation(KindGlibc, full) < sw.Violation(KindGlibc, 1) {
		t.Error("Glibc violations should grow with pressure")
	}
}

func TestServiceSweepRocksdbLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("co-location sweep")
	}
	sw := RunServiceSweep(ServiceRocksdb, LargeRecordBytes, QuickScale(), 1)
	hundred := 3
	if sw.P90(KindHermes, hundred) >= sw.P90(KindGlibc, hundred) {
		t.Errorf("Hermes p90 %v not below Glibc %v at 100%%",
			sw.P90(KindHermes, hundred), sw.P90(KindGlibc, hundred))
	}
}

func TestTable1Shape(t *testing.T) {
	// At CI scale only the scale-invariant claims are asserted: a 2 GB node
	// is over-committed so hard that killing containers *helps* throughput.
	// At full scale the paper's Default ≥ Hermes > Killing ordering holds
	// for Redis (TestTable1FullScaleRedisOrdering) but not for RocksDB,
	// whose Killing column still beats Hermes (see EXPERIMENTS.md).
	r := Table1(QuickScale(), 1)
	for _, svc := range []ServiceKind{ServiceRedis, ServiceRocksdb} {
		jobs := r.Jobs[svc]
		if jobs[Table1Dedicated] != 0 {
			t.Errorf("%s: dedicated system must run no batch jobs", svc)
		}
		if jobs[Table1Default] <= 0 || jobs[Table1Hermes] <= 0 || jobs[Table1Killing] <= 0 {
			t.Errorf("%s: co-location must complete jobs: %+v", svc, jobs)
		}
		// Hermes' proactive reclamation costs batch jobs only a few
		// percent vs Default (paper: −8.5%): within a ±20% band here.
		def, her := float64(jobs[Table1Default]), float64(jobs[Table1Hermes])
		if her < def*0.8 || her > def*1.2 {
			t.Errorf("%s: Hermes throughput %d strays from Default %d", svc, jobs[Table1Hermes], jobs[Table1Default])
		}
	}
	// Rocksdb leaves more memory to batch jobs than Redis (§5.3.2).
	if r.Jobs[ServiceRocksdb][Table1Default] <= r.Jobs[ServiceRedis][Table1Default] {
		t.Error("Rocksdb co-location should out-produce Redis co-location")
	}
	// §5.3.2: ~98.5% node memory utilization under Hermes.
	if r.Utilization[ServiceRedis] < 0.85 {
		t.Errorf("Hermes node utilization %.2f, want high", r.Utilization[ServiceRedis])
	}
}

// TestTable1FullScaleRedisOrdering pins the paper's Table 1 ordering for
// Redis at the paper-proportioned footprints: Default ≥ Hermes > Killing
// (paper: 212/194/123). It runs only the Redis co-location cells.
func TestTable1FullScaleRedisOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-sized co-location window")
	}
	jobs := make(map[Table1Scenario]int64)
	for _, sc := range []Table1Scenario{Table1Default, Table1Hermes, Table1Killing} {
		jobs[sc], _ = runTable1Cell(ServiceRedis, sc, FullScale(), 1)
	}
	if !(jobs[Table1Default] >= jobs[Table1Hermes] && jobs[Table1Hermes] > jobs[Table1Killing]) {
		t.Fatalf("Redis full-scale ordering broken: Default %d, Hermes %d, Killing %d",
			jobs[Table1Default], jobs[Table1Hermes], jobs[Table1Killing])
	}
}

func TestFig6AblationBoundsHold(t *testing.T) {
	r := Fig6Ablation(QuickScale(), 1)
	if r.AtOnceMaxHold < 4*r.GradualMaxHold {
		t.Fatalf("at-once hold %v not ≫ gradual hold %v", r.AtOnceMaxHold, r.GradualMaxHold)
	}
	if r.AtOnceWaited <= r.GradualWaited {
		t.Fatalf("at-once blocked time %v not above gradual %v", r.AtOnceWaited, r.GradualWaited)
	}
}

func TestMlockAblationSpeedup(t *testing.T) {
	r := MlockAblation(QuickScale(), 1)
	speedup := 1 - float64(r.MgmtBusyMlock)/float64(r.MgmtBusyTouch)
	// §4: mlock at least 40% faster than the touch loop.
	if speedup < 0.40 {
		t.Fatalf("mlock speedup %.1f%%, want ≥ 40%%", speedup*100)
	}
}

func TestOverheadBounds(t *testing.T) {
	r := Overhead(QuickScale(), 1)
	if r.MgmtCPUPaced > 0.02 {
		t.Errorf("paced mgmt CPU %.2f%%, want < 2%% (paper ~0.4%%)", r.MgmtCPUPaced*100)
	}
	if r.ReservedSmall <= 0 || r.ReservedSmall > 64<<20 {
		t.Errorf("small reserve peak %d bytes implausible (paper ~6 MB)", r.ReservedSmall)
	}
	if r.DaemonCPU > 0.024 {
		t.Errorf("daemon CPU %.2f%% above the paper's 2.4%%", r.DaemonCPU*100)
	}
}

func TestSensitivitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("factor sweep")
	}
	r := Fig15(QuickScale(), 1)
	for _, scenario := range []Scenario{ScenarioDedicated, ScenarioAnon} {
		rows := r.Reductions[scenario]
		if len(rows) != len(SensitivityFactors) {
			t.Fatalf("%s: %d rows, want %d", scenario, len(rows), len(SensitivityFactors))
		}
		// Larger factors reserve more memory.
		peaks := r.ReservePeak[scenario]
		if peaks[len(peaks)-1] < peaks[0] {
			t.Errorf("%s: peak reserve should grow with the factor: %v", scenario, peaks)
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a := Fig3(QuickScale(), 7)
	b := Fig3(QuickScale(), 7)
	if a.Anon.Summarize() != b.Anon.Summarize() {
		t.Fatal("same seed must reproduce identical results")
	}
	c := Fig3(QuickScale(), 8)
	if a.Anon.Summarize() == c.Anon.Summarize() {
		t.Fatal("different seeds should perturb the run")
	}
}
