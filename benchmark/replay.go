package main

import (
	"fmt"
	"time"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/alloc/glibcmalloc"
	"github.com/hermes-sim/hermes/internal/alloc/jemalloc"
	"github.com/hermes-sim/hermes/internal/alloc/tcmalloc"
	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/cluster"
	"github.com/hermes-sim/hermes/internal/core"
	"github.com/hermes-sim/hermes/internal/experiments"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/services"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
)

// This file replays each workload through the layers' public functions,
// one call at a time, so a tracer can put a span around every call. A
// replay must produce output bit-identical to the engine's — the digest
// check that makes its spans a description of the same program. Where an
// experiment's helpers are unexported, the replay restates them; the
// digest check catches any drift.

// simCounts is the simulated work a replay counted. A change meant only
// to make the simulator faster must leave every count identical.
type simCounts struct {
	Ops    int64        `json:"ops"`
	Kernel kernel.Stats `json:"kernel"`
	// Inserts and PreMapped count Hermes inserts and those served from
	// pre-mapped memory.
	Inserts   int64 `json:"inserts"`
	PreMapped int64 `json:"pre_mapped"`
	// Scans and PagesReleased are the monitor daemons' counters;
	// DaemonHostNS is the host time of simtime calls on nodes running one.
	Scans         int64 `json:"scans"`
	PagesReleased int64 `json:"pages_released"`
	DaemonHostNS  int64 `json:"daemon_host_ns"`
	Jobs          int64 `json:"jobs"`
	// Clients counts the scenario's client requests; the resilience counters
	// come from the report.
	Clients  int64 `json:"clients"`
	Retries  int64 `json:"retries"`
	Hedges   int64 `json:"hedges"`
	Timeouts int64 `json:"timeouts"`
	Errors   int64 `json:"errors"`
	Shed     int64 `json:"shed"`
	Failed   int64 `json:"failed"`
	// GenNS and RouteNS time a walk of the client stream and the routing
	// of its keys (see passes).
	GenNS   int64 `json:"gen_ns"`
	RouteNS int64 `json:"route_ns"`
}

func (c *simCounts) addKernel(s kernel.Stats) {
	k := &c.Kernel
	k.MinorFaults += s.MinorFaults
	k.MajorFaults += s.MajorFaults
	k.SlowPathPages += s.SlowPathPages
	k.DirectReclaims += s.DirectReclaims
	k.KswapdRuns += s.KswapdRuns
	k.PagesReclaimed += s.PagesReclaimed
	k.PagesSwappedIn += s.PagesSwappedIn
	k.PagesSwapOut += s.PagesSwapOut
	k.FileDropped += s.FileDropped
	k.FadvisedPages += s.FadvisedPages
	k.OOMKills += s.OOMKills
}

func (c *simCounts) addReport(r cluster.Report) {
	c.Ops = r.Requests
	for _, n := range r.PerNode {
		c.addKernel(n.Kernel)
	}
	c.Retries, c.Hedges, c.Timeouts = r.Retries, r.Hedges, r.Timeouts
	c.Errors, c.Shed, c.Failed = r.Errors, r.Shed, r.Failed
}

// replayed is one replay's product.
type replayed struct {
	digest string
	counts simCounts
	wall   time.Duration
}

// replay runs the workload once; tr is nil for the untraced replay.
func replay(w *spec, o childOptions, tr *tracer) (replayed, error) {
	switch w.kind {
	case kindFig7:
		return replayFig7(fig7Scale(o.size), o.seed, tr), nil
	case kindTable1:
		return replayTable1(table1Scale(o.size), o.seed, tr), nil
	}
	in, err := w.input(o.seed, o.size, o.root)
	if err != nil {
		return replayed{}, err
	}
	c := cluster.New(in.cfg)
	defer c.Close()
	var out replayed
	if tr != nil && w.kind == kindScenario {
		out.counts.Clients, out.counts.GenNS, out.counts.RouteNS = passes(c, in.scn)
	}
	tr.begin()
	start := time.Now()
	var rep cluster.Report
	var report any
	if w.kind == kindScenario {
		// The resilience expander and the engine's event loop are not
		// public, so the brownout trace splits the engine's wall by
		// passes: generation, routing, and the residual.
		srep, err := c.RunScenario(in.scn)
		if err != nil {
			return out, err
		}
		out.wall = time.Since(start)
		tr.finish()
		tr.add(lNext, time.Duration(out.counts.GenNS), out.counts.Clients)
		tr.add(lRoute, time.Duration(out.counts.RouteNS), out.counts.Clients)
		rep, report = srep.Report, srep
	} else {
		if in.warmup > 0 {
			s := tr.start()
			c.Advance(in.warmup)
			tr.stop(lAdvance, s)
		}
		if rep, err = replayFlat(c, in.cfg, in.load, tr, &out.counts); err != nil {
			return out, err
		}
		out.wall = time.Since(start)
		tr.finish()
		report = rep
	}
	out.counts.addReport(rep)
	out.digest, err = digestJSON(report)
	return out, err
}

// passes times a walk of the scenario's client stream that keeps only the
// keys, then the routing of those keys, and returns the client count and
// both times.
func passes(c *cluster.Cluster, scn workload.Scenario) (clients, genNS, routeNS int64) {
	var keys []int64
	start := time.Now()
	d := workload.NewScenarioDriver(scn)
	for r, ok := d.Next(); ok; r, ok = d.Next() {
		keys = append(keys, r.Key)
	}
	gen := time.Since(start)
	router := c.Router()
	var sink int
	start = time.Now()
	for _, key := range keys {
		sink += router.ShardForKey(key)
	}
	route := time.Since(start)
	if sink < 0 {
		panic("unreachable: shard indices are non-negative")
	}
	return int64(len(keys)), int64(gen), int64(route)
}

// replayFlat is Cluster.Run of a flat load on an unreplicated fleet, one
// request at a time in global arrival order — the sequential engine's
// order, which every engine matches bit for bit — followed by the settle
// and digest assembly of the engine's finish.
func replayFlat(c *cluster.Cluster, cfg cluster.Config, load workload.LoadConfig, tr *tracer, counts *simCounts) (cluster.Report, error) {
	newRec := stats.NewRecorder
	if cfg.StatsBackend() == cluster.StatsHistogram {
		newRec = stats.NewStreamingRecorder
	}
	nodes := c.Nodes()
	shards := make([]*cluster.Shard, cfg.Shards)
	shardRecs := make([]*stats.Recorder, cfg.Shards)
	for id := range shards {
		sh := c.Shard(id)
		if sh.ReplicaCount() != 1 {
			return cluster.Report{}, fmt.Errorf("replay: shard %d has %d replicas; the flat replay covers unreplicated fleets", id, sh.ReplicaCount())
		}
		shards[id] = sh
		shardRecs[id] = newRec(sh.Recorder().Name())
	}
	waitRecs := make([]*stats.Recorder, len(nodes))
	for i, n := range nodes {
		waitRecs[i] = newRec(n.Name + "/wait")
	}
	reads := make([]int64, len(nodes))
	writes := make([]int64, len(nodes))
	hermes := cfg.Allocator == cluster.AllocHermes
	router := c.Router()

	d := workload.NewLoadDriver(load)
	end := load.Start
	for {
		tr.beginRequest()
		s := tr.start()
		req, ok := d.Next()
		tr.stop(lNext, s)
		if !ok {
			tr.endRequest()
			break
		}
		end = req.At
		s = tr.start()
		id := router.ShardForKey(req.Key)
		tr.stop(lRoute, s)
		sh := shards[id]
		n := sh.Node()
		sched := n.Scheduler()
		if req.At.After(sched.Now()) {
			s = tr.start()
			sched.RunUntil(req.At)
			tr.stop(lRunUntil, s)
		}
		wait := sched.Now().Sub(req.At)
		svc := sh.Service()
		var raw simtime.Duration
		preMapped := false
		if req.Op == workload.OpWrite {
			s = tr.start()
			raw = svc.Insert(req.Key, req.ValueBytes)
			tr.stop(lInsert, s)
			preMapped = svc.LastPreMapped()
			writes[n.Index]++
			if hermes {
				counts.Inserts++
				if preMapped {
					counts.PreMapped++
				}
			}
		} else {
			s = tr.start()
			raw = svc.Read(req.Key)
			tr.stop(lRead, s)
			reads[n.Index]++
		}
		s = tr.start()
		lat := wait + workload.JitterRequest(n.Kernel(), raw, preMapped)
		tr.stop(lJitter, s)
		s = tr.start()
		sched.Advance(raw)
		tr.stop(lAdvance, s)
		s = tr.start()
		shardRecs[id].Record(lat)
		waitRecs[n.Index].Record(wait)
		tr.stop(lRecord, s)
		tr.endRequest()
	}

	// Settle every node on the last arrival, then on the common horizon.
	s := tr.start()
	var horizon simtime.Time
	for _, n := range nodes {
		if end.After(n.Now()) {
			n.Scheduler().RunUntil(end)
		}
		if n.Now().After(horizon) {
			horizon = n.Now()
		}
	}
	for _, n := range nodes {
		n.Scheduler().RunUntil(horizon)
	}
	tr.stop(lRunUntil, s)

	s = tr.start()
	rep := cluster.Report{Allocator: cfg.Allocator, Service: cfg.Service(), Stats: cfg.StatsBackend()}
	clusterRec := newRec("cluster")
	waitRec := newRec("queue-wait")
	for i, n := range nodes {
		runNode := newRec(n.Name)
		for id, sh := range shards {
			if sh.Node() == n {
				runNode.Merge(shardRecs[id])
			}
		}
		clusterRec.Merge(runNode)
		waitRec.Merge(waitRecs[i])
		rep.Reads += reads[i]
		rep.Writes += writes[i]
		rep.PerNode = append(rep.PerNode, cluster.NodeReport{
			Name:    n.Name,
			Shards:  len(n.Shards()),
			Latency: runNode.Summarize(),
			Kernel:  n.Kernel().Stats(),
		})
	}
	rep.Requests = rep.Reads + rep.Writes
	rep.Cluster = clusterRec.Summarize()
	rep.Wait = waitRec.Summarize()
	for _, rec := range shardRecs {
		rep.PerShard = append(rep.PerShard, rec.Summarize())
	}
	tr.stop(lSummarize, s)
	return rep, nil
}

// allocEnv is an experiment cell's allocator with its monitor registry and
// daemon, as the experiments build it.
type allocEnv struct {
	a      alloc.Allocator
	reg    *monitor.Registry
	daemon *monitor.Daemon
	kind   int // index into allocKinds
}

// newAllocEnv restates the experiments' allocator construction: Hermes
// gets a registry, and the monitor daemon unless it is the "w/o rec"
// ablation.
func newAllocEnv(k *kernel.Kernel, kind experiments.AllocKind, name string, batchPIDs []kernel.PID) allocEnv {
	switch kind {
	case experiments.KindGlibc:
		return allocEnv{a: glibcmalloc.New(k, name, glibcmalloc.DefaultConfig()), kind: 0}
	case experiments.KindJemalloc:
		return allocEnv{a: jemalloc.New(k, name, jemalloc.DefaultConfig()), kind: 1}
	case experiments.KindTCMalloc:
		return allocEnv{a: tcmalloc.New(k, name, tcmalloc.DefaultConfig()), kind: 2}
	case experiments.KindHermes, experiments.KindHermesNoRec:
		env := allocEnv{reg: monitor.NewRegistry(), kind: 3}
		env.a = core.NewWithRegistry(k, name, core.DefaultConfig(), env.reg, true)
		if kind == experiments.KindHermes {
			for _, pid := range batchPIDs {
				env.reg.AddBatch(pid)
			}
			env.daemon = monitor.NewDaemon(k, env.reg, monitor.DefaultConfig())
		}
		return env
	}
	panic(fmt.Sprintf("replay: unknown allocator kind %q", kind))
}

func (e allocEnv) close(counts *simCounts) {
	if e.daemon != nil {
		st := e.daemon.Stats()
		counts.Scans += st.Scans
		counts.PagesReleased += st.PagesReleased
		e.daemon.Stop()
	}
	e.a.Close()
}

// seriesName is the paper's curve label ("Hermes+anon", "Glibc").
func seriesName(kind experiments.AllocKind, sc experiments.Scenario) string {
	if sc == experiments.ScenarioDedicated {
		return string(kind)
	}
	return string(kind) + "+" + string(sc)
}

// startPressure restates the micro-benchmark's pressure generator: the
// residual free buffer scales with the benchmark's demand.
func startPressure(k *kernel.Kernel, sc experiments.Scenario, benchBytes int64) *workload.Pressure {
	var pk workload.PressureKind
	switch sc {
	case experiments.ScenarioDedicated:
		return nil
	case experiments.ScenarioAnon:
		pk = workload.PressureAnon
	case experiments.ScenarioFile:
		pk = workload.PressureFile
	default:
		panic(fmt.Sprintf("replay: unknown scenario %q", sc))
	}
	cfg := workload.DefaultPressureConfig(pk)
	cfg.FreeBytes = int64(float64(cfg.FreeBytes) * float64(benchBytes) / float64(1<<30))
	if cfg.FreeBytes < 4<<20 {
		cfg.FreeBytes = 4 << 20
	}
	return workload.StartPressure(k, cfg)
}

// replayFig7 is experiments.Fig7 followed by Render, with the
// micro-benchmark loop of every cell spelled out call by call.
func replayFig7(scale experiments.Scale, seed uint64, tr *tracer) replayed {
	var out replayed
	tr.begin()
	start := time.Now()
	res := experiments.MicroFigResult{
		Figure:      "Figure 7 (small 1KB requests)",
		RequestSize: 1024,
		Series:      make(map[string]*stats.Recorder),
		Scenarios:   experiments.AllScenarios,
	}
	for _, sc := range experiments.AllScenarios {
		for _, kind := range experiments.AllAllocKinds {
			rec := replayMicroCell(kind, sc, res.RequestSize, scale.MicroTotalBytes, seed, tr, &out.counts)
			res.Series[rec.Name()] = rec
		}
	}
	rec := replayMicroCell(experiments.KindHermesNoRec, experiments.ScenarioFile, res.RequestSize, scale.MicroTotalBytes, seed, tr, &out.counts)
	res.Series[rec.Name()] = rec
	s := tr.start()
	text := res.Render()
	tr.stop(lSummarize, s)
	out.wall = time.Since(start)
	tr.finish()
	out.digest = digestText(text)
	return out
}

// replayMicroCell is one micro-benchmark cell: a fresh 128 GB node, the
// regime's pressure, the allocator, 20 ms of settling, then fixed-size
// malloc+touch requests until total bytes were requested.
func replayMicroCell(kind experiments.AllocKind, sc experiments.Scenario, reqSize, total int64, seed uint64, tr *tracer, counts *simCounts) *stats.Recorder {
	name := seriesName(kind, sc)
	tr.openCell(name)
	defer tr.closeCell()

	s := tr.start()
	sched := simtime.NewScheduler()
	kcfg := kernel.DefaultConfig()
	kcfg.Seed = seed
	k := kernel.New(sched, kcfg)
	pressure := startPressure(k, sc, total)
	var batchPIDs []kernel.PID
	if pressure != nil {
		batchPIDs = []kernel.PID{pressure.PID()}
	}
	env := newAllocEnv(k, kind, "microbench", batchPIDs)
	tr.stop(lBoot, s)
	daemon0 := tr.simtimeNS()

	s = tr.start()
	sched.Advance(20 * simtime.Millisecond)
	tr.stop(lAdvance, s)

	rec := stats.NewRecorder(name)
	malloc, touch := allocLayer(env.kind, false), allocLayer(env.kind, true)
	hermes := env.reg != nil
	for requested := int64(0); requested < total; requested += reqSize {
		tr.beginRequest()
		s = tr.start()
		b, mallocCost := env.a.Malloc(sched.Now(), reqSize)
		tr.stop(malloc, s)
		s = tr.start()
		touchCost := env.a.Touch(sched.Now().Add(mallocCost), b)
		tr.stop(touch, s)
		s = tr.start()
		lat := workload.JitterRequest(k, mallocCost+touchCost, b.PreMapped)
		tr.stop(lJitter, s)
		s = tr.start()
		rec.Record(lat)
		tr.stop(lRecord, s)
		s = tr.start()
		sched.Advance(lat)
		tr.stop(lAdvance, s)
		tr.endRequest()
		counts.Ops++
		if hermes {
			counts.Inserts++
			if b.PreMapped {
				counts.PreMapped++
			}
		}
	}
	if env.daemon != nil {
		counts.DaemonHostNS += tr.simtimeNS() - daemon0
	}

	s = tr.start()
	if pressure != nil {
		pressure.Stop()
	}
	k.CheckInvariants()
	tr.stop(lCheck, s)
	counts.addKernel(k.Stats())
	env.close(counts)
	return rec
}

// replayTable1 is experiments.Table1 followed by Render.
func replayTable1(scale experiments.Scale, seed uint64, tr *tracer) replayed {
	var out replayed
	tr.begin()
	start := time.Now()
	res := experiments.Table1Result{
		Jobs:        make(map[experiments.ServiceKind]map[experiments.Table1Scenario]int64),
		Utilization: make(map[experiments.ServiceKind]float64),
	}
	for _, svc := range []experiments.ServiceKind{experiments.ServiceRedis, experiments.ServiceRocksdb} {
		res.Jobs[svc] = make(map[experiments.Table1Scenario]int64)
		for _, sc := range experiments.Table1Scenarios {
			jobs, util := replayTable1Cell(svc, sc, scale, seed, tr, &out.counts)
			res.Jobs[svc][sc] = jobs
			if sc == experiments.Table1Hermes {
				res.Utilization[svc] = util
			}
		}
	}
	s := tr.start()
	text := res.Render()
	tr.stop(lSummarize, s)
	out.wall = time.Since(start)
	tr.finish()
	out.digest = digestText(text)
	return out
}

// replayTable1Cell co-locates one service with the batch workload under
// one policy for the scale's window: the service churns between 1/6 and
// 1/3 of node memory while batch jobs run, and the cell reports the jobs
// completed and the mean memory utilization.
func replayTable1Cell(svcKind experiments.ServiceKind, sc experiments.Table1Scenario, scale experiments.Scale, seed uint64, tr *tracer, counts *simCounts) (int64, float64) {
	tr.openCell(fmt.Sprintf("%s/%s", svcKind, sc))
	defer tr.closeCell()

	s := tr.start()
	sched := simtime.NewScheduler()
	kcfg := kernel.DefaultConfig()
	kcfg.TotalMemory = scale.NodeMemory
	kcfg.SwapBytes = scale.NodeSwap
	kcfg.Seed = seed
	kcfg.KswapdPeriod = 5 * simtime.Millisecond
	kcfg.KswapdBatchPages = 5120
	k := kernel.New(sched, kcfg)
	window := simtime.Duration(scale.BatchHours * float64(simtime.Hour))

	var runner *batch.Runner
	if sc != experiments.Table1Dedicated {
		bcfg := batch.DefaultConfig()
		bcfg.TargetBytes = scale.NodeMemory * 15 / 16
		bcfg.InputBytes = scale.NodeMemory / 16
		bcfg.WorkDuration = window * 3 / 216
		bcfg.TickPeriod = min(window/1000, 100*simtime.Millisecond)
		runner = batch.NewRunner(k, bcfg)
		runner.Killing = sc == experiments.Table1Killing
		k.SetOOMHandler(runner.HandleOOM)
	}
	allocKind := experiments.KindGlibc
	if sc == experiments.Table1Hermes {
		allocKind = experiments.KindHermes
	}
	env := newAllocEnv(k, allocKind, string(svcKind), nil)
	var refresh *simtime.PeriodicTask
	if env.reg != nil && runner != nil {
		refresh = simtime.NewPeriodicTask(sched, simtime.Second, func(simtime.Time) simtime.Duration {
			for _, pid := range runner.PIDs() {
				env.reg.AddBatch(pid)
			}
			for _, pid := range runner.InputFilePIDs() {
				env.reg.AddBatch(pid)
			}
			return 10 * simtime.Microsecond
		})
	}
	var svc services.Service
	tag := fmt.Sprintf("t1-%s-%s", svcKind, sc)
	switch svcKind {
	case experiments.ServiceRedis:
		svc = services.NewRedis(k, env.a, services.RedisCosts())
	case experiments.ServiceRocksdb:
		cfg := services.DefaultRocksdbConfig()
		cfg.MemtableBytes = scale.NodeMemory / 128
		cfg.BlockCacheBytes = scale.NodeMemory / 64
		svc = services.NewRocksdb(k, env.a, services.RocksdbCosts(), cfg, tag)
	}
	tr.stop(lBoot, s)
	daemon0 := tr.simtimeNS()

	lowWater, highWater := scale.NodeMemory/6, scale.NodeMemory/3
	const recordBytes = int64(16 << 10)
	queryGap := window / 50000
	var key, oldest int64
	var utilSum float64
	var utilSamples int64
	hermes := env.reg != nil
	for sched.Now() < simtime.Time(window) {
		tr.beginRequest()
		key++
		s = tr.start()
		svc.Query(key, recordBytes)
		tr.stop(lQuery, s)
		if hermes {
			counts.Inserts++
			if svc.LastPreMapped() {
				counts.PreMapped++
			}
		}
		if svc.StoredBytes() > highWater {
			for svc.StoredBytes() > lowWater && oldest < key {
				oldest++
				s = tr.start()
				d := svc.Delete(oldest)
				tr.stop(lDelete, s)
				s = tr.start()
				sched.Advance(d)
				tr.stop(lAdvance, s)
			}
		}
		utilSum += k.UsedFraction()
		utilSamples++
		s = tr.start()
		sched.Advance(queryGap)
		tr.stop(lAdvance, s)
		tr.endRequest()
		counts.Ops++
	}
	if env.daemon != nil {
		counts.DaemonHostNS += tr.simtimeNS() - daemon0
	}
	// Table 1 does not check its kernel; the replay does, read-only.
	s = tr.start()
	k.CheckInvariants()
	tr.stop(lCheck, s)

	var jobs int64
	if runner != nil {
		jobs = runner.Completed
		runner.Stop()
	}
	counts.Jobs += jobs
	util := 0.0
	if utilSamples > 0 {
		util = utilSum / float64(utilSamples)
	}
	counts.addKernel(k.Stats())
	svc.Close()
	if refresh != nil {
		refresh.Stop()
	}
	env.close(counts)
	return jobs, util
}
