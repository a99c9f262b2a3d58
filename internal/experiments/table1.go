package experiments

import (
	"fmt"
	"strings"

	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// This file reproduces Table 1 (§5.3.2): the throughput of batch jobs
// co-located with each latency-critical service under the Default, Hermes
// and Killing scenarios, plus the zero-throughput Dedicated column, over a
// long co-location window.

// Table1Scenario names the co-location policies compared.
type Table1Scenario string

// The four columns of Table 1.
const (
	Table1Default   Table1Scenario = "Default"
	Table1Hermes    Table1Scenario = "Hermes"
	Table1Killing   Table1Scenario = "Killing"
	Table1Dedicated Table1Scenario = "Dedicated"
)

// Table1Scenarios is the rendering order.
var Table1Scenarios = []Table1Scenario{Table1Default, Table1Hermes, Table1Killing, Table1Dedicated}

// Table1Result holds completed-job counts per service and scenario, plus
// the observed memory utilization under Hermes (§5.3.2 reports ~98.5%).
type Table1Result struct {
	Jobs        map[ServiceKind]map[Table1Scenario]int64
	Utilization map[ServiceKind]float64
}

// batchNode builds the co-location node. kswapd runs at a coarser period
// than the micro-benchmark node so a multi-hour window stays tractable;
// the per-tick batch scales to keep the same reclaim bandwidth.
func batchNode(scale Scale, seed uint64) (*kernel.Kernel, *simtime.Scheduler) {
	s := simtime.NewScheduler()
	cfg := kernel.DefaultConfig()
	cfg.TotalMemory = scale.NodeMemory
	cfg.SwapBytes = scale.NodeSwap
	cfg.Seed = seed
	cfg.KswapdPeriod = 5 * simtime.Millisecond
	cfg.KswapdBatchPages = 5120
	return kernel.New(s, cfg), s
}

// runTable1Cell co-locates one service with the batch workload under one
// scenario and returns (jobs completed, average memory utilization).
func runTable1Cell(svcKind ServiceKind, scenario Table1Scenario, scale Scale, seed uint64) (int64, float64) {
	k, s := batchNode(scale, seed)
	window := simtime.Duration(scale.BatchHours * float64(simtime.Hour))

	var runner *batch.Runner
	if scenario != Table1Dedicated {
		bcfg := batch.DefaultConfig()
		// Three concurrent KMeans-like jobs: 3 × 8 containers requesting
		// ~40 GB each on the 128 GB node (§5.3.2) — about 94% of capacity,
		// which over-commits once the service's 20-40 GB dataset is added.
		bcfg.TargetBytes = scale.NodeMemory * 15 / 16
		bcfg.InputBytes = scale.NodeMemory / 16
		// Sized so an unobstructed window completes ~216 jobs in 24 h
		// (3 concurrent × 20 min/job), scaling with the window.
		bcfg.WorkDuration = window * 3 / 216
		bcfg.TickPeriod = window / 1000
		if bcfg.TickPeriod > 100*simtime.Millisecond {
			bcfg.TickPeriod = 100 * simtime.Millisecond
		}
		runner = batch.NewRunner(k, bcfg)
		runner.Killing = scenario == Table1Killing
	}

	allocKind := KindGlibc
	if scenario == Table1Hermes {
		allocKind = KindHermes
	}
	env := newAllocEnv(k, allocKind, string(svcKind), nil, nil)
	defer env.close()
	if env.reg != nil && runner != nil {
		runner.RegisterEvery(env.reg, simtime.Second)
	}

	svc := newService(k, svcKind, env, scale, fmt.Sprintf("t1-%s-%s", svcKind, scenario))
	defer svc.Close()

	// The service churns: insertions, reads and deletions keep the stored
	// data oscillating between 1/6 and 1/3 of node memory (the paper's
	// 20–40 GB band on 128 GB).
	lowWater := scale.NodeMemory / 6
	highWater := scale.NodeMemory / 3
	recordBytes := int64(16 << 10)
	queryGap := window / 50000
	var key, oldest int64
	var utilSum float64
	var utilSamples int64

	for s.Now() < simtime.Time(window) {
		key++
		_, _, _ = svc.Query(key, recordBytes)
		if svc.StoredBytes() > highWater {
			for svc.StoredBytes() > lowWater && oldest < key {
				oldest++
				s.Advance(svc.Delete(oldest))
			}
		}
		utilSum += k.UsedFraction()
		utilSamples++
		s.Advance(queryGap)
	}

	var jobs int64
	if runner != nil {
		jobs = runner.Completed
		runner.Stop()
	}
	util := 0.0
	if utilSamples > 0 {
		util = utilSum / float64(utilSamples)
	}
	return jobs, util
}

// Table1 reproduces Table 1 for both services.
func Table1(scale Scale, seed uint64) Table1Result {
	res := Table1Result{
		Jobs:        make(map[ServiceKind]map[Table1Scenario]int64),
		Utilization: make(map[ServiceKind]float64),
	}
	for _, svc := range []ServiceKind{ServiceRedis, ServiceRocksdb} {
		res.Jobs[svc] = make(map[Table1Scenario]int64)
		for _, scenario := range Table1Scenarios {
			jobs, util := runTable1Cell(svc, scenario, scale, seed)
			res.Jobs[svc][scenario] = jobs
			if scenario == Table1Hermes {
				res.Utilization[svc] = util
			}
		}
	}
	return res
}

// Render prints the table in the paper's layout.
func (r Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: throughput of batch jobs (completed jobs per window)\n")
	fmt.Fprintf(&b, "%-10s", "")
	for _, sc := range Table1Scenarios {
		fmt.Fprintf(&b, " %-10s", sc)
	}
	b.WriteString("\n")
	for _, svc := range []ServiceKind{ServiceRedis, ServiceRocksdb} {
		fmt.Fprintf(&b, "%-10s", svc)
		for _, sc := range Table1Scenarios {
			fmt.Fprintf(&b, " %-10d", r.Jobs[svc][sc])
		}
		fmt.Fprintf(&b, " (Hermes node util %.1f%%)\n", r.Utilization[svc]*100)
	}
	b.WriteString("paper: Redis 212/194/123/0; Rocksdb 380/364/267/0; ~98.5% utilization\n")
	return b.String()
}
