package cluster

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/metrics"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
)

// This file executes declarative scenarios (workload.Scenario) on a
// cluster: the phased multi-class stream drives the same serve path as a
// flat load, every timeline event fires deterministically inside the run
// loop, and the resulting ScenarioReport segments latency per phase, class
// and node on top of the base Report.

// ClassReport digests one traffic class of one phase.
type ClassReport struct {
	// Name echoes the class name.
	Name string
	// Requests, Reads and Writes count the class's operations in the
	// phase.
	Requests, Reads, Writes int64
	// Latency is the class's cluster-wide digest.
	Latency stats.Summary
	// PerNode slices the class digest by serving node (index order).
	PerNode []stats.Summary
}

// PhaseReport digests one phase of a scenario run.
type PhaseReport struct {
	// Name echoes the phase name.
	Name string
	// Start and End bound the phase on the virtual timeline (End is the
	// declared duration end, or the last arrival for request-bounded
	// phases).
	Start, End simtime.Time
	// Requests counts the phase's requests across classes.
	Requests int64
	// Latency is the phase's cluster-wide digest across classes.
	Latency stats.Summary
	// Classes are the per-class digests, in declaration order.
	Classes []ClassReport
}

// ScenarioReport is the digest of one scenario run: the base Report
// (cluster-wide, per-node, per-shard — exactly what an equivalent flat run
// produces) plus the phase × class × node segmentation.
type ScenarioReport struct {
	// Name echoes the scenario name.
	Name string
	Report
	// Phases are the per-phase digests, in declaration order.
	Phases []PhaseReport
	// Metrics is the per-window time series, present only when the cluster
	// was configured with Config.Metrics.
	Metrics []metrics.Sample `json:",omitempty"`
}

// Render prints the scenario report in the repo's table style.
func (r ScenarioReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %q: allocator=%s service=%s requests=%d (reads=%d writes=%d)\n",
		r.Name, r.Allocator, r.Service, r.Requests, r.Reads, r.Writes)
	r.renderTotals(&b)
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "phase %-12s [%v → %v] requests=%d\n  %s\n",
			p.Name, p.Start, p.End, p.Requests, p.Latency)
		for _, tc := range p.Classes {
			fmt.Fprintf(&b, "  class %-10s reads=%-8d writes=%-8d %s\n",
				tc.Name, tc.Reads, tc.Writes, tc.Latency)
		}
	}
	r.renderPerNode(&b)
	return b.String()
}

// nodeEvent is one timeline entry resolved onto a node: the absolute
// firing instant plus the event itself.
type nodeEvent struct {
	at simtime.Time
	ev workload.Event
}

// firingOrder returns the indices of the events in the order they fire: by
// instant, same-instant events in declaration order. Every node's cursor
// fires its events in this order, and the topology and resilience
// compilers pair kills with restores and degrades with heals in it.
func firingOrder(events []workload.Event) []int {
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return events[order[a]].At < events[order[b]].At
	})
	return order
}

// scenarioRun is one scenario run's working state: the run-local instance
// digests, one record per node, the cell index, and the compiled schedules.
type scenarioRun struct {
	// shard[id][inst] is the run-local latency digest of shard id's
	// chain-position inst instance. With failover the instances of one
	// shard live on different nodes, so each is written only by the node
	// hosting it (which lists it in its record) and shard digests are only
	// assembled at finish.
	shard [][]*stats.Recorder
	nodes []nodeRun
	// cellOff[phase]+class is a (phase, class) pair's cell: the one index
	// that keys both nodeRun.cells and resilience.class.
	cellOff []int
	// topo is the compiled outage schedule, nil without kill/restore
	// events; res is the compiled resilience layer, nil without soft-fault
	// events, class policies or an SLO; met is the time-series collector,
	// nil without Config.Metrics. All three are read-only while serving,
	// apart from met's per-node windows, which only the node's goroutine
	// rolls.
	topo *topology
	res  *resilience
	met  *metrics.Collector
}

// nodeRun is one node's record of a run: everything a request served on the
// node writes. While the run serves, only the node's goroutine touches it,
// with one exception: routeDropped, which the generator writes and nothing
// reads before finishScenario. Records sit side by side in one slice, so
// each ends in a cache line of padding; without it, counters that two node
// goroutines increment on every request would share a line and bounce
// between cores.
type nodeRun struct {
	// events is the node's timeline in firing order; cursor is the next
	// entry to fire.
	events []nodeEvent
	cursor int
	// wait is the node's queue-wait digest. hosted lists the digests of the
	// shard instances the node hosts, in (shard, chain position) order: a
	// node's latency digest covers what it served, primaries and failover
	// replicas alike.
	wait   *stats.Recorder
	hosted []*stats.Recorder
	// cells segments the node's latencies by (phase, class) cell. It is nil
	// for single-cell scenarios (one phase, one class — every flat Run): the
	// lone cell's digests equal the base report's, so segmenting would only
	// record and sort every raw sample a second time.
	cells []cellRun
	// degrade is the node's service-slowdown schedule compiled from
	// degrade-node/heal-node events (nil without them); the factor is looked
	// up at service start on the node's own clock. fates maps a chain id to
	// whether its last attempt here failed, nil without a resilience layer.
	// ctl is the node's controller, nil without a policies block.
	degrade []factorWindow
	fates   map[int64]bool
	ctl     *controller

	reads, writes int64
	failover      int64 // requests served for a down primary
	qdropped      int64 // backlog drops at a drop-policy kill
	migrated      int64 // bytes restores re-filled into the node's shards
	retries       int64 // retry attempts that actually fired
	timeouts      int64 // served attempts whose latency beat the class deadline
	errors        int64 // attempts failed fast by a fault window
	hedges        int64 // speculative read hedges sent
	shed          int64 // attempts rejected by admission control
	failed        int64 // chains exhausted without a successful attempt
	// routeDropped counts requests whose whole replica chain was down at
	// routing, charged to this node as their primary. The generator is its
	// only writer.
	routeDropped int64
	_            [64]byte
}

// cellRun is one (phase, class) cell of a node's segmentation.
type cellRun struct {
	rec           *stats.Recorder
	reads, writes int64
}

// sortDigests sorts every digest the node's requests were recorded into.
// Only serve records into them, so the node's goroutine calls it when its
// stream ends: the sorting runs in parallel across nodes, and
// finishScenario's merges share the sorted samples instead of sorting them.
func (nr *nodeRun) sortDigests() {
	nr.wait.Sort()
	for _, rec := range nr.hosted {
		rec.Sort()
	}
	for _, cr := range nr.cells {
		cr.rec.Sort()
	}
}

// setFate records a chain attempt's outcome in the node's fate table, but
// only when a conditional successor will read it (attTracked, never set on
// a hedge); everything else would be dead state.
func (nr *nodeRun) setFate(meta resAttempt, failed bool) {
	if meta.is(attTracked) {
		nr.fates[meta.id] = failed
	}
}

// validateScenario checks the scenario against this cluster: the scenario
// must be well-formed on its own, every event must target an existing node
// and machinery the fleet actually has, and a metrics collector must not
// be asked for more windows over the declared horizon than it may keep.
func (c *Cluster) validateScenario(scn workload.Scenario) error {
	if err := scn.Validate(); err != nil {
		return err
	}
	if m := c.cfg.Metrics; m != nil {
		if err := m.CheckHorizon(scn.End().Sub(scn.Start), len(c.nodes)); err != nil {
			return fmt.Errorf("cluster: scenario %q: %w", scn.Name, err)
		}
	}
	for i, e := range scn.Events {
		if e.Node >= len(c.nodes) {
			return fmt.Errorf("cluster: scenario %q event %d (%s): targets node %d but the cluster has %d nodes",
				scn.Name, i, e.Kind, e.Node, len(c.nodes))
		}
		if (e.Kind == workload.EventDaemonStart || e.Kind == workload.EventDaemonStop) &&
			c.cfg.Allocator != AllocHermes {
			return fmt.Errorf("cluster: scenario %q event %d (%s): the monitor daemon requires the hermes allocator (cluster runs %q)",
				scn.Name, i, e.Kind, c.cfg.Allocator)
		}
	}
	if scn.Policies != nil && scn.Policies.Allocator != nil && c.cfg.Allocator != AllocHermes {
		return fmt.Errorf("cluster: scenario %q: the allocator policy requires the hermes allocator (cluster runs %q)",
			scn.Name, c.cfg.Allocator)
	}
	return nil
}

func (c *Cluster) newScenarioRun(scn workload.Scenario, topo *topology, res *resilience) *scenarioRun {
	sr := &scenarioRun{
		shard: make([][]*stats.Recorder, len(c.shards)),
		nodes: make([]nodeRun, len(c.nodes)),
		topo:  topo,
		res:   res,
	}
	cells := 0
	for _, p := range scn.Phases {
		sr.cellOff = append(sr.cellOff, cells)
		cells += len(p.Classes)
	}
	for i, n := range c.nodes {
		nr := &sr.nodes[i]
		nr.wait = c.newRecorder(n.Name + "/wait")
		if cells > 1 {
			nr.cells = make([]cellRun, 0, cells)
			for _, p := range scn.Phases {
				for _, tc := range p.Classes {
					nr.cells = append(nr.cells, cellRun{rec: c.newRecorder(p.Name + "/" + tc.Name)})
				}
			}
		}
		if res != nil {
			nr.degrade = res.degrade[i]
			nr.fates = make(map[int64]bool)
			if res.pol != nil {
				nr.ctl = newController(c, scn, i)
			}
		}
	}
	for id, sh := range c.shards {
		sr.shard[id] = make([]*stats.Recorder, len(sh.instances))
		for inst, in := range sh.instances {
			rec := c.newRecorder(sh.rec.Name())
			sr.shard[id][inst] = rec
			nr := &sr.nodes[in.node.Index]
			nr.hosted = append(nr.hosted, rec)
		}
	}
	if c.cfg.Metrics != nil {
		// The snapshot closure reads only state owned by the node whose
		// window is closing: its kernel's counters and its record.
		sr.met = metrics.NewCollector(scn.Start, c.cfg.Metrics.Period, len(c.nodes),
			func(node int) metrics.Counters {
				n, nr := c.nodes[node], &sr.nodes[node]
				ks := n.kernel.Stats()
				return metrics.Counters{
					Reclaims: ks.DirectReclaims,
					Swapouts: ks.PagesSwapOut,
					RSSBytes: n.kernel.TotalPages()*n.kernel.PageSize() - n.kernel.FreeBytes(),
					Shed:     nr.shed,
					Retries:  nr.retries,
					Errors:   nr.errors,
					Timeouts: nr.timeouts,
					Hedges:   nr.hedges,
				}
			})
	}
	// Queues filled in firing order are already in each node's firing
	// order.
	for _, i := range firingOrder(scn.Events) {
		e := scn.Events[i]
		ne := nodeEvent{at: scn.Start.Add(e.At), ev: e}
		if e.Node >= 0 {
			sr.nodes[e.Node].events = append(sr.nodes[e.Node].events, ne)
			continue
		}
		for ni := range sr.nodes {
			sr.nodes[ni].events = append(sr.nodes[ni].events, ne)
		}
	}
	return sr
}

// fireEventsUpTo fires the node's pending events with firing instants at or
// before upTo, advancing the node's clock to each instant first. Events are
// node-local, so each node's history — events interleaved with its request
// stream — is identical on both engines.
func (c *Cluster) fireEventsUpTo(sr *scenarioRun, n *Node, upTo simtime.Time) {
	nr := &sr.nodes[n.Index]
	for nr.cursor < len(nr.events) {
		ne := nr.events[nr.cursor]
		if ne.at.After(upTo) {
			return
		}
		nr.cursor++
		if ne.at.After(n.sched.Now()) {
			n.sched.RunUntil(ne.at)
		}
		c.applyEvent(sr, n, ne)
	}
}

// applyEvent applies one timeline action to a node at the node's current
// virtual time.
func (c *Cluster) applyEvent(sr *scenarioRun, n *Node, ne nodeEvent) {
	ev := ne.ev
	switch ev.Kind {
	case workload.EventPressureStart:
		c.stopPressure(n)
		pcfg := workload.DefaultPressureConfig(workload.PressureAnon)
		if ev.Pressure != nil {
			pcfg = *ev.Pressure
		}
		c.startPressure(n, pcfg)
	case workload.EventPressureStop:
		c.stopPressure(n)
	case workload.EventBatchStart:
		c.stopBatchRunner(n)
		bcfg := batch.DefaultConfig()
		if ev.Batch != nil {
			bcfg = *ev.Batch
		}
		if bcfg.TargetBytes == 0 {
			// Default to full-memory pressure: the co-location regime.
			bcfg.TargetBytes = n.kernel.TotalPages() * n.kernel.PageSize()
		}
		c.startBatchRunner(n, bcfg)
		c.attachBatchRefresh(n)
	case workload.EventBatchStop:
		c.stopBatchRunner(n)
	case workload.EventDaemonStart:
		c.stopDaemon(n)
		dcfg := monitor.DefaultConfig()
		if ev.Daemon != nil {
			dcfg = *ev.Daemon
		}
		c.startDaemon(n, dcfg)
	case workload.EventDaemonStop:
		c.stopDaemon(n)
	case workload.EventSqueezeStart:
		if n.squeeze == nil {
			n.squeeze = n.kernel.CreateProcess("squeeze")
		}
		now := n.sched.Now()
		// Round up so a sub-page squeeze still pins something rather than
		// silently doing nothing.
		pages := (ev.Bytes + n.kernel.PageSize() - 1) / n.kernel.PageSize()
		r, _ := n.kernel.Mmap(now, n.squeeze, pages)
		n.kernel.FaultIn(now, r, pages)
	case workload.EventSqueezeStop:
		if n.squeeze != nil {
			n.kernel.ExitProcess(n.squeeze)
			n.squeeze = nil
		}
	case workload.EventKillNode:
		// The node is fenced: its co-tenant machinery dies with it and
		// its squeeze footprint is released, but kernel and service state
		// stay resident for the restore (a crashed process, not a wiped
		// machine). Being out of rotation is enforced by the routing
		// schedule, not here — a down node simply receives no arrivals.
		c.stopPressure(n)
		c.stopBatchRunner(n)
		c.stopDaemon(n)
		if n.squeeze != nil {
			n.kernel.ExitProcess(n.squeeze)
			n.squeeze = nil
		}
	case workload.EventRestoreNode:
		// Re-fill the node's primary shards with the writes the outage
		// diverted to replicas; the manifest is complete by now (see
		// migration.go's determinism argument). Background machinery the
		// kill stopped stays stopped — a later timeline event can restart
		// it explicitly.
		if w := sr.topo.windowEndingAt(n.Index, ne.at); w != nil {
			sr.nodes[n.Index].migrated += c.replayMigration(w.manifest)
		}
	case workload.EventDegradeNode, workload.EventHealNode, workload.EventFaultWindow:
		// Soft faults are schedule-driven (resilience.go compiles them up
		// front, like the outage schedule): nothing to do at the firing
		// instant itself.
	}
}

// serveScenario fires the serving node's due events, runs the resilience
// layer's node-local checks (conditional-retry fate, admission control,
// fail-fast errors), serves the request, and segments the recorded latency
// into the request's (phase, class) cell of the node's record. inst is the
// replica-chain position routing picked (0 — the primary — whenever the
// scenario has no topology events). Every decision here depends only on the
// node's own arrival-ordered state, which is what keeps the two engines
// bit-identical.
func (c *Cluster) serveScenario(sr *scenarioRun, shardID int, inst, cell int32, req workload.Request, meta resAttempt) {
	in := &c.shards[shardID].instances[inst]
	n := in.node
	nr := &sr.nodes[n.Index]
	c.fireEventsUpTo(sr, n, req.At)
	if sr.met != nil {
		// Roll the node's metrics windows at the arrival, before any verdict:
		// shed and errored attempts advance windows exactly like served ones.
		sr.met.Tick(n.Index, req.At)
	}
	// Every flag below is set only inside the resilience layer, so the
	// fate table exists whenever a check passes.
	if meta.is(attCond) {
		// Speculative timeout retry: fires only if the chain's previous
		// attempt failed here. Either way the fate entry is consumed.
		failed := nr.fates[meta.id]
		if !meta.is(attTracked) {
			delete(nr.fates, meta.id)
		}
		if !failed {
			return // the previous attempt succeeded: never sent
		}
	}
	if meta.is(attRetry) {
		nr.retries++
	}
	if meta.is(attHedge) {
		nr.hedges++
	}
	if nr.ctl != nil && !nr.ctl.admit(req.At) {
		// SLO admission control, before the request can queue. A shed
		// attempt terminates its chain: brownout clients must not pile
		// retries onto a node that just told them to back off.
		nr.shed++
		nr.setFate(meta, false)
		return
	}
	if meta.is(attErr) {
		// Fault-window error: fail fast, no service work, no clock cost.
		nr.errors++
		nr.setFate(meta, true)
		if meta.is(attLast) {
			nr.failed++
		}
		return
	}
	if sr.topo != nil {
		if sr.topo.dropsQueued(n.Index, req.At, n.sched.Now()) {
			// A drop-policy kill severed the backlog this request was
			// queued in: count it, serve nothing. The client sees a dead
			// connection — a timeout-speculative retry (if one exists)
			// will fire.
			nr.qdropped++
			nr.setFate(meta, true)
			return
		}
		if inst > 0 && !meta.is(attHedge) {
			// A hedge on a replica is there by design, not because the
			// primary was down — it is not a failover serve.
			nr.failover++
		}
	}
	lat := c.serve(nr, sr.shard[shardID][inst], in, req)
	if nr.ctl != nil {
		nr.ctl.observe(lat)
	}
	if sr.met != nil {
		sr.met.Observe(n.Index, lat)
	}
	if meta.id != 0 && !meta.is(attHedge) {
		// A chain attempt is judged against its class's client deadline.
		timedOut := false
		if rc := &sr.res.class[cell]; rc.timeout > 0 && lat > rc.timeout {
			timedOut = true
			nr.timeouts++
			if meta.is(attLast) {
				nr.failed++
			}
		}
		nr.setFate(meta, timedOut)
	}
	if nr.cells == nil {
		return
	}
	cr := &nr.cells[cell]
	cr.rec.Record(lat)
	if req.Op == workload.OpRead {
		cr.reads++
	} else {
		cr.writes++
	}
}

// RunScenario drives the fleet through the declarative scenario and returns
// the phase- and class-segmented digests. Generation, routing, event firing
// and every random draw are deterministic, so one (config, scenario) pair
// reproduces the run exactly — on either engine (Config.Sequential selects
// the single-goroutine one; the default serves each node on its own
// goroutine).
// The scenario is validated up front; nothing panics mid-run on a
// malformed spec.
func (c *Cluster) RunScenario(scn workload.Scenario) (ScenarioReport, error) {
	if err := c.validateScenario(scn); err != nil {
		return ScenarioReport{}, err
	}
	topo, err := c.newTopology(scn)
	if err != nil {
		return ScenarioReport{}, err
	}
	res, err := c.newResilience(scn)
	if err != nil {
		return ScenarioReport{}, err
	}
	if c.cfg.Sequential || len(c.nodes) == 1 {
		return c.runScenarioSequential(scn, topo, res), nil
	}
	return c.runScenarioParallel(scn, topo, res), nil
}

// generateScenario pulls the scenario's request stream, routing each
// request — shard by key, serving instance by the outage schedule — and
// handing it to emit; it returns the generated phase bounds. It has two
// paths. A flat load with no topology or resilience schedule (every
// Cluster.Run) is the FlatLoad bypass: the plain LoadDriver emits the
// identical stream without the merge layer, and every request goes to its
// shard's primary with empty metadata. Every other scenario goes through
// the attempt expander (generateAttempts), which also draws fault verdicts
// and adds retries and hedges. Both engines share this: only the emit sink
// differs (serve now vs. hand to the node's pipeline). Requests whose whole
// replica chain is down never reach emit — they are counted against the
// primary and dropped here, at routing.
func (c *Cluster) generateScenario(scn workload.Scenario, sr *scenarioRun,
	emit func(req workload.Request, shard, inst, cell int32, meta resAttempt)) []workload.PhaseBound {
	if flat, ok := scn.FlatLoad(); ok && sr.topo == nil && sr.res == nil {
		d := workload.NewLoadDriver(flat)
		bound := workload.PhaseBound{Start: flat.Start, End: flat.Start}
		for {
			req, ok := d.Next()
			if !ok {
				break
			}
			emit(req, int32(c.router.ShardForKey(req.Key)), 0, 0, resAttempt{})
			bound.End = req.At
			bound.Requests++
		}
		return []workload.PhaseBound{bound}
	}
	return c.generateAttempts(scn, sr, emit)
}

// runScenarioSequential executes the scenario on one goroutine in global
// arrival order, streaming the generation with O(1) workload memory.
func (c *Cluster) runScenarioSequential(scn workload.Scenario, topo *topology, res *resilience) ScenarioReport {
	sr := c.newScenarioRun(scn, topo, res)
	bounds := c.generateScenario(scn, sr, func(req workload.Request, shard, inst, cell int32, meta resAttempt) {
		c.serveScenario(sr, int(shard), inst, cell, req, meta)
	})
	return c.finishScenario(sr, scn, bounds)
}

// routedScenarioReq is one scenario request bound to its shard, the
// replica-chain instance serving it, its segmentation cell, and its
// resilience metadata — the unit of the chunk pipeline.
type routedScenarioReq struct {
	req   workload.Request
	shard int32
	inst  int32
	cell  int32
	meta  resAttempt
}

const (
	// scenarioChunkReqs is the pipeline transfer unit of the parallel
	// engine: requests per chunk. Large enough that channel operations
	// amortize to noise, small enough that a chunk is still cache-warm from
	// generation when its node serves it.
	scenarioChunkReqs = 512
	// scenarioChunkDepth is the per-node channel depth: how far generation
	// may run ahead of a node before it blocks on that node's backpressure.
	scenarioChunkDepth = 4
)

// scenarioChunk is one pipeline buffer: a fixed-size block of routed
// requests. Fixed blocks never regrow and bound the pipeline's footprint
// whatever the run's length; per-node slices of the whole run would pay
// append-regrowth memmoves and an O(requests) footprint on the generation
// side, which serializes the run.
type scenarioChunk struct {
	n    int
	reqs [scenarioChunkReqs]routedScenarioReq
}

// runScenarioParallel streams the generated request stream to the serving
// nodes through bounded per-node chunk pipelines: generation (one
// goroutine, the deterministic global-order walk) overlaps with per-node
// serving instead of completing before any request is served — the
// single biggest serializer on multi-core runs. Routing partitions by the
// SERVING node: failover hands the request to the replica's goroutine,
// preserving arrival order within every node — which is all a node can
// observe — so each node consumes the identical sub-stream in the identical
// order as the sequential engine, and the report stays bit-identical to
// it. Chunk handoff over a channel also gives the happens-before edge that
// makes generation-side state (e.g. migration manifests filled by diverted
// writes) visible to the serving goroutine before it serves the chunk.
func (c *Cluster) runScenarioParallel(scn workload.Scenario, topo *topology, res *resilience) ScenarioReport {
	if runtime.GOMAXPROCS(0) == 1 && topo == nil && res == nil {
		// On one core the pipeline cannot overlap anything; what decides a
		// flat run's wall clock is cache locality, and the partitioned path —
		// each node's whole sub-stream served contiguously — keeps one
		// node's working set hot instead of cycling every node's through the
		// cache chunk by chunk. Both paths produce the identical report.
		if flat, ok := scn.FlatLoad(); ok {
			return c.runFlatPartitioned(flat, scn)
		}
	}
	sr := c.newScenarioRun(scn, topo, res)
	type nodePipe struct {
		ch   chan *scenarioChunk
		free chan *scenarioChunk
		cur  *scenarioChunk
	}
	pipes := make([]nodePipe, len(c.nodes))
	var wg sync.WaitGroup
	for i := range pipes {
		pipes[i].ch = make(chan *scenarioChunk, scenarioChunkDepth)
		pipes[i].free = make(chan *scenarioChunk, scenarioChunkDepth+2)
		for j := 0; j < scenarioChunkDepth+2; j++ {
			pipes[i].free <- new(scenarioChunk)
		}
		wg.Add(1)
		go func(p *nodePipe, nr *nodeRun) {
			defer wg.Done()
			for ck := range p.ch {
				for j := 0; j < ck.n; j++ {
					rr := &ck.reqs[j]
					c.serveScenario(sr, int(rr.shard), rr.inst, rr.cell, rr.req, rr.meta)
				}
				ck.n = 0
				p.free <- ck
			}
			nr.sortDigests()
		}(&pipes[i], &sr.nodes[i])
	}
	bounds := c.generateScenario(scn, sr, func(req workload.Request, shard, inst, cell int32, meta resAttempt) {
		p := &pipes[c.chains[shard][inst]]
		if p.cur == nil {
			p.cur = <-p.free
		}
		p.cur.reqs[p.cur.n] = routedScenarioReq{req: req, shard: shard, inst: inst, cell: cell, meta: meta}
		p.cur.n++
		if p.cur.n == scenarioChunkReqs {
			p.ch <- p.cur
			p.cur = nil
		}
	})
	for i := range pipes {
		if p := &pipes[i]; p.cur != nil && p.cur.n > 0 {
			p.ch <- p.cur
			p.cur = nil
		}
		// Idle nodes' goroutines exit on the close; their timelines still
		// fire during the drain in finishScenario, exactly as in the
		// sequential engine.
		close(pipes[i].ch)
	}
	wg.Wait()
	return c.finishScenario(sr, scn, bounds)
}

// flatBlockReqs is runFlatPartitioned's partition unit: requests per block,
// 256 KiB of 32-byte workload.Requests.
const flatBlockReqs = 8192

// runFlatPartitioned is the single-core engine for a flat single-phase load
// with no topology or resilience schedule — every Cluster.Run on one core
// lands here. It materializes the full per-node partition first, then
// serves each node's whole sub-stream on its own goroutine; the per-node
// sub-streams and serve orders are exactly the pipeline's, so the report is
// bit-identical and only the wall-clock shape differs. The routing metadata
// is constant on this path (primary instance, the lone cell of a
// single-cell run, empty resilience verdict), so the partition stores bare
// workload.Requests — half the bytes of a routedScenarioReq — and the
// serving goroutine re-derives the shard from the key, which is exactly how
// the generation side routed it.
//
// Memory is sized to the stream, not guessed. Each node's sub-stream goes
// into a list of flatBlockReqs-request blocks allocated as it fills, so no
// request is copied after it is written, a node hosting no shard allocates
// nothing, and the slack is at most one partly filled block per node. The
// same pass counts each shard's requests, so every primary instance digest
// is presized to its exact count before serving and never regrows: its
// samples are latencies, never zero. Node wait digests are not presized:
// most requests find their node idle, and a raw digest counts those zero
// waits without storing them, so it grows only with the queued ones.
func (c *Cluster) runFlatPartitioned(flat workload.LoadConfig, scn workload.Scenario) ScenarioReport {
	sr := c.newScenarioRun(scn, nil, nil)
	perNode := make([][][]workload.Request, len(c.nodes))
	perShard := make([]int, len(c.shards))
	d := workload.NewLoadDriver(flat)
	bound := workload.PhaseBound{Start: flat.Start, End: flat.Start}
	for {
		req, ok := d.Next()
		if !ok {
			break
		}
		s := c.router.ShardForKey(req.Key)
		perShard[s]++
		n := c.chains[s][0]
		blocks := perNode[n]
		if len(blocks) == 0 || len(blocks[len(blocks)-1]) == flatBlockReqs {
			blocks = append(blocks, make([]workload.Request, 0, flatBlockReqs))
			perNode[n] = blocks
		}
		last := &blocks[len(blocks)-1]
		*last = append(*last, req)
		bound.End = req.At
		bound.Requests++
	}
	for s, count := range perShard {
		sr.shard[s][0].Grow(count)
	}
	var wg sync.WaitGroup
	for i := range c.nodes {
		blocks := perNode[i]
		if len(blocks) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, reqs := range blocks {
				for k := range reqs {
					rr := &reqs[k]
					c.serveScenario(sr, c.router.ShardForKey(rr.Key), 0, 0, *rr, resAttempt{})
				}
			}
			sr.nodes[i].sortDigests()
		}()
	}
	wg.Wait()
	return c.finishScenario(sr, scn, []workload.PhaseBound{bound})
}

// finishScenario drains every node's remaining timeline, settles the fleet
// on a common horizon, and assembles the report in one pass over the node
// records. Merge order is canonical — instances in chain order within a
// shard, a node's hosted instances in (shard, chain position) order, nodes
// in index order — so the report is a pure function of the per-node
// execution results, independent of which engine produced them. Raw merges
// share the digests' sorted samples, which the parallel engines sorted on
// the node goroutines and the sequential oracle sorts here, and every
// rollup statistic is an exact selection across them.
func (c *Cluster) finishScenario(sr *scenarioRun, scn workload.Scenario, bounds []workload.PhaseBound) ScenarioReport {
	// Settle the fleet on one horizon so background work (management
	// threads, kswapd, daemons) finishes the same window on every node: the
	// scenario's end or the latest node clock, whichever is later. Firing an
	// event advances its node's clock to the event's instant, so the horizon
	// also covers every node's timeline.
	horizon := scn.Start
	if len(bounds) > 0 {
		horizon = bounds[len(bounds)-1].End
	}
	for _, n := range c.nodes {
		c.fireEventsUpTo(sr, n, simtime.MaxTime)
		if n.sched.Now().After(horizon) {
			horizon = n.sched.Now()
		}
	}
	for _, n := range c.nodes {
		n.sched.RunUntil(horizon)
	}

	var total int
	for id, sh := range c.shards {
		rec := c.newRecorder(sh.rec.Name())
		for _, inst := range sr.shard[id] {
			rec.Merge(inst)
		}
		total += rec.Count()
		sh.rec = rec
	}
	rep := ScenarioReport{Name: scn.Name, Report: Report{
		Allocator: c.cfg.Allocator, Service: c.cfg.Service(), Stats: c.cfg.StatsBackend(),
	}}
	var slo *workload.SLO
	if sr.res != nil {
		slo = sr.res.slo
		rep.SLOCompliance = 1
	}
	clusterRec := c.newRecorder("cluster")
	waitRec := c.newRecorder("queue-wait")
	var above int64
	for i, n := range c.nodes {
		nr := &sr.nodes[i]
		runNode := c.newRecorder(n.Name)
		for _, rec := range nr.hosted {
			runNode.Merge(rec)
		}
		clusterRec.Merge(runNode)
		waitRec.Merge(nr.wait)
		r := NodeReport{
			Name:          n.Name,
			Shards:        len(n.shards),
			Latency:       runNode.Summarize(),
			Kernel:        n.kernel.Stats(),
			Failovers:     nr.failover,
			Dropped:       nr.routeDropped + nr.qdropped,
			MigratedBytes: nr.migrated,
			Retries:       nr.retries,
			Timeouts:      nr.timeouts,
			Errors:        nr.errors,
			Hedges:        nr.hedges,
			Shed:          nr.shed,
			Failed:        nr.failed,
			SLOCompliance: rep.SLOCompliance,
		}
		if sr.topo != nil {
			// The drain above fired every event and the horizon bounds every
			// window, so downtime is engine-independent.
			r.Downtime = sr.topo.downtimeUpTo(i, horizon)
		}
		if slo != nil {
			// Compliance counts served requests at or under the target —
			// counts, not averaged ratios, so the aggregate is exact.
			nodeAbove := runNode.CountAbove(slo.P99)
			if count := runNode.Count(); count > 0 {
				r.SLOCompliance = 1 - float64(nodeAbove)/float64(count)
			}
			above += nodeAbove
		}
		if nr.ctl != nil {
			r.Actions = nr.ctl.log
			rep.Actions = append(rep.Actions, nr.ctl.log...)
		}
		rep.Reads += nr.reads
		rep.Writes += nr.writes
		rep.Failovers += r.Failovers
		rep.Dropped += r.Dropped
		rep.MigratedBytes += r.MigratedBytes
		rep.Retries += r.Retries
		rep.Timeouts += r.Timeouts
		rep.Errors += r.Errors
		rep.Hedges += r.Hedges
		rep.Shed += r.Shed
		rep.Failed += r.Failed
		rep.PerNode = append(rep.PerNode, r)
	}
	rep.Requests = rep.Reads + rep.Writes
	rep.Cluster = clusterRec.Summarize()
	rep.Wait = waitRec.Summarize()
	for _, sh := range c.shards {
		rep.PerShard = append(rep.PerShard, sh.rec.Summarize())
	}
	if slo != nil {
		rep.SLOTarget = slo.P99
		if total > 0 {
			rep.SLOCompliance = 1 - float64(above)/float64(total)
		}
	}
	// The cluster-wide action log: per-node logs in node index order, merged
	// by instant (stable, so same-instant actions keep node order).
	sort.SliceStable(rep.Actions, func(i, j int) bool {
		return rep.Actions[i].At.Before(rep.Actions[j].At)
	})
	if sr.met != nil {
		// Every node settled on the horizon, so the series' trailing window
		// is the same span for every node. Actions are attributed to windows
		// from the merged log.
		sr.met.Finish(horizon)
		times := make([]simtime.Time, len(rep.Actions))
		for i, a := range rep.Actions {
			times[i] = a.At
		}
		rep.Metrics = sr.met.Series(times)
	}
	if sr.nodes[0].cells == nil {
		// Single-cell scenario: the lone phase × class cell is the whole
		// run, so its digests are the base report's.
		p := scn.Phases[0]
		cr := ClassReport{
			Name:     p.Classes[0].Name,
			Requests: rep.Requests,
			Reads:    rep.Reads,
			Writes:   rep.Writes,
			Latency:  rep.Cluster,
		}
		for _, nr := range rep.PerNode {
			cr.PerNode = append(cr.PerNode, nr.Latency)
		}
		pr := PhaseReport{
			Name:     p.Name,
			Requests: rep.Requests,
			Latency:  rep.Cluster,
			Classes:  []ClassReport{cr},
		}
		if len(bounds) > 0 {
			pr.Start = bounds[0].Start
			pr.End = bounds[0].End
		}
		rep.Phases = []PhaseReport{pr}
		return rep
	}
	for pi, p := range scn.Phases {
		pr := PhaseReport{Name: p.Name}
		if pi < len(bounds) {
			pr.Start = bounds[pi].Start
			pr.End = bounds[pi].End
		}
		phaseRec := c.newRecorder("phase/" + p.Name)
		for ci, tc := range p.Classes {
			cell := sr.cellOff[pi] + ci
			classRec := c.newRecorder(p.Name + "/" + tc.Name)
			cr := ClassReport{Name: tc.Name}
			for ni := range sr.nodes {
				nc := &sr.nodes[ni].cells[cell]
				classRec.Merge(nc.rec)
				cr.PerNode = append(cr.PerNode, nc.rec.Summarize())
				cr.Reads += nc.reads
				cr.Writes += nc.writes
			}
			cr.Requests = cr.Reads + cr.Writes
			cr.Latency = classRec.Summarize()
			pr.Requests += cr.Requests
			phaseRec.Merge(classRec)
			pr.Classes = append(pr.Classes, cr)
		}
		pr.Latency = phaseRec.Summarize()
		rep.Phases = append(rep.Phases, pr)
	}
	return rep
}
