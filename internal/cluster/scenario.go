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

// pcState accumulates one (phase, class) cell of the segmentation: a
// recorder and read/write counters per node, so concurrent node goroutines
// never share state.
type pcState struct {
	node   []*stats.Recorder
	reads  []int64
	writes []int64
}

// scenarioRun is one scenario run's working state: the base runState plus
// the phase × class digests and each node's pending event queue.
type scenarioRun struct {
	st *runState
	// pc is indexed by pcOff[phase]+class. It is nil for single-cell
	// scenarios (one phase, one class — every flat Run): the lone cell's
	// digests equal the base report's, so segmenting would only re-sort
	// every raw sample a third time. finishScenario reuses the base
	// digests instead, which is what keeps the adapter's overhead on the
	// seed path near zero.
	pc    []*pcState
	pcOff []int
	// events[n] is node n's timeline in firing order; cursor[n] is the
	// next entry to fire.
	events [][]nodeEvent
	cursor []int
	// topo is the compiled outage schedule, nil when the scenario has no
	// kill/restore events (every counter below stays nil with it). The
	// counters are node-indexed: failover and routeDropped fill during
	// generation (one goroutine on both engines), qdropped and migrated
	// during serving, where a goroutine only ever touches its own node's
	// slot — so the parallel engine shares nothing.
	topo         *topology
	failover     []int64 // requests a node served for a down primary
	routeDropped []int64 // drops at routing, charged to the primary
	qdropped     []int64 // backlog drops at a drop-policy kill
	migrated     []int64 // bytes restores re-filled into a node's shards
	// res is the compiled resilience layer, nil when the scenario has no
	// soft-fault events, class policies or SLO. Its counters and state
	// follow the same ownership rule as the topology counters: a node
	// goroutine only ever touches its own slot.
	res      *resilience
	retries  []int64          // retry attempts that actually fired
	timeouts []int64          // served attempts whose latency beat the class deadline
	errors   []int64          // attempts failed fast by a fault window
	hedges   []int64          // speculative read hedges sent
	shed     []int64          // attempts rejected by admission control
	failed   []int64          // chains exhausted without a successful attempt
	fates    []map[int64]bool // per node: chain id → last attempt failed
	ctl      []*controller    // per node, nil without a policies block
	// met is the time-series collector, nil without Config.Metrics. Its
	// per-node windows roll at arrivals under the same node-local ownership
	// rule as everything above.
	met *metrics.Collector
}

// validateScenario checks the scenario against this cluster: the scenario
// must be well-formed on its own, and every event must target an existing
// node and machinery the fleet actually has.
func (c *Cluster) validateScenario(scn workload.Scenario) error {
	if err := scn.Validate(); err != nil {
		return err
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
		st:     c.newRunState(),
		events: make([][]nodeEvent, len(c.nodes)),
		cursor: make([]int, len(c.nodes)),
		topo:   topo,
		res:    res,
	}
	if topo != nil {
		sr.failover = make([]int64, len(c.nodes))
		sr.routeDropped = make([]int64, len(c.nodes))
		sr.qdropped = make([]int64, len(c.nodes))
		sr.migrated = make([]int64, len(c.nodes))
	}
	if res != nil {
		sr.retries = make([]int64, len(c.nodes))
		sr.timeouts = make([]int64, len(c.nodes))
		sr.errors = make([]int64, len(c.nodes))
		sr.hedges = make([]int64, len(c.nodes))
		sr.shed = make([]int64, len(c.nodes))
		sr.failed = make([]int64, len(c.nodes))
		sr.fates = make([]map[int64]bool, len(c.nodes))
		for i := range sr.fates {
			sr.fates[i] = make(map[int64]bool)
		}
		sr.st.degrade = res.degrade
		if res.pol != nil {
			sr.ctl = make([]*controller, len(c.nodes))
			for i := range sr.ctl {
				sr.ctl[i] = newController(c, scn, i)
			}
		}
	}
	if c.cfg.Metrics != nil {
		// The snapshot closure reads only machinery owned by the node whose
		// window is closing: its kernel's counters and its resilience slots.
		sr.met = metrics.NewCollector(scn.Start, c.cfg.Metrics.Period, len(c.nodes),
			func(node int) metrics.Counters {
				n := c.nodes[node]
				ks := n.kernel.Stats()
				cnt := metrics.Counters{
					Reclaims: ks.DirectReclaims,
					Swapouts: ks.PagesSwapOut,
					RSSBytes: n.kernel.TotalPages()*n.kernel.PageSize() - n.kernel.FreeBytes(),
				}
				if res != nil {
					cnt.Shed = sr.shed[node]
					cnt.Retries = sr.retries[node]
					cnt.Errors = sr.errors[node]
					cnt.Timeouts = sr.timeouts[node]
					cnt.Hedges = sr.hedges[node]
				}
				return cnt
			})
	}
	if len(scn.Phases) > 1 || len(scn.Phases[0].Classes) > 1 {
		for _, p := range scn.Phases {
			sr.pcOff = append(sr.pcOff, len(sr.pc))
			for _, tc := range p.Classes {
				pc := &pcState{
					node:   make([]*stats.Recorder, len(c.nodes)),
					reads:  make([]int64, len(c.nodes)),
					writes: make([]int64, len(c.nodes)),
				}
				for ni := range c.nodes {
					pc.node[ni] = c.newRecorder(p.Name + "/" + tc.Name)
				}
				sr.pc = append(sr.pc, pc)
			}
		}
	}
	// Queues filled in firing order are already in each node's firing
	// order.
	for _, i := range firingOrder(scn.Events) {
		e := scn.Events[i]
		at := scn.Start.Add(e.At)
		if e.Node >= 0 {
			sr.events[e.Node] = append(sr.events[e.Node], nodeEvent{at: at, ev: e})
			continue
		}
		for ni := range c.nodes {
			sr.events[ni] = append(sr.events[ni], nodeEvent{at: at, ev: e})
		}
	}
	return sr
}

// fireEventsUpTo fires the node's pending events with firing instants at or
// before upTo, advancing the node's clock to each instant first. Events are
// node-local, so each node's history — events interleaved with its request
// stream — is identical on both engines.
func (c *Cluster) fireEventsUpTo(sr *scenarioRun, n *Node, upTo simtime.Time) {
	q := sr.events[n.Index]
	for sr.cursor[n.Index] < len(q) {
		ne := q[sr.cursor[n.Index]]
		if ne.at.After(upTo) {
			return
		}
		sr.cursor[n.Index]++
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
			sr.migrated[n.Index] += c.replayMigration(w.manifest)
		}
	case workload.EventDegradeNode, workload.EventHealNode, workload.EventFaultWindow:
		// Soft faults are schedule-driven (resilience.go compiles them up
		// front, like the outage schedule): nothing to do at the firing
		// instant itself.
	}
}

// pcIndexAt flattens an attempt's (phase, class) onto its segmentation
// cell, or -1 for single-cell scenarios (whose base digests cover
// everything).
func (sr *scenarioRun) pcIndexAt(phase, class int32) int32 {
	if sr.pc == nil {
		return -1
	}
	return int32(sr.pcOff[phase]) + class
}

// setFate records a chain attempt's outcome in the serving node's fate
// table, but only when a conditional successor will read it (attTracked,
// never set on a hedge); everything else would be dead state.
func (sr *scenarioRun) setFate(node int, meta resAttempt, failed bool) {
	if meta.is(attTracked) {
		sr.fates[node][meta.id] = failed
	}
}

// serveScenario fires the serving node's due events, runs the resilience
// layer's node-local checks (conditional-retry fate, admission control,
// fail-fast errors), serves the request through the shared serve path, and
// segments the recorded latency into the request's (phase, class, node)
// cell. inst is the replica-chain position routing picked (0 — the primary
// — whenever the scenario has no topology events). Every decision here
// depends only on the node's own arrival-ordered state, which is what
// keeps the two engines bit-identical.
func (c *Cluster) serveScenario(sr *scenarioRun, shardID int, inst, pcIdx int32, req workload.Request, meta resAttempt) {
	in := c.shards[shardID].instances[inst]
	n := in.node
	c.fireEventsUpTo(sr, n, req.At)
	if sr.met != nil {
		// Roll the node's metrics windows at the arrival, before any verdict:
		// shed and errored attempts advance windows exactly like served ones.
		sr.met.Tick(n.Index, req.At)
	}
	// Every flag below is set only inside the resilience layer, so the
	// counters it indexes exist whenever a check passes.
	if meta.is(attCond) {
		// Speculative timeout retry: fires only if the chain's previous
		// attempt failed here. Either way the fate entry is consumed.
		failed := sr.fates[n.Index][meta.id]
		if !meta.is(attTracked) {
			delete(sr.fates[n.Index], meta.id)
		}
		if !failed {
			return // the previous attempt succeeded: never sent
		}
	}
	if meta.is(attRetry) {
		sr.retries[n.Index]++
	}
	if meta.is(attHedge) {
		sr.hedges[n.Index]++
	}
	if sr.ctl != nil {
		// SLO admission control, before the request can queue. A shed
		// attempt terminates its chain: brownout clients must not pile
		// retries onto a node that just told them to back off.
		if ctl := sr.ctl[n.Index]; !ctl.admit(req.At) {
			sr.shed[n.Index]++
			sr.setFate(n.Index, meta, false)
			return
		}
	}
	if meta.is(attErr) {
		// Fault-window error: fail fast, no service work, no clock cost.
		sr.errors[n.Index]++
		sr.setFate(n.Index, meta, true)
		if meta.is(attLast) {
			sr.failed[n.Index]++
		}
		return
	}
	if sr.topo != nil {
		if sr.topo.dropsQueued(n.Index, req.At, n.sched.Now()) {
			// A drop-policy kill severed the backlog this request was
			// queued in: count it, serve nothing. The client sees a dead
			// connection — a timeout-speculative retry (if one exists)
			// will fire.
			sr.qdropped[n.Index]++
			sr.setFate(n.Index, meta, true)
			return
		}
		if inst > 0 && !meta.is(attHedge) {
			// A hedge on a replica is there by design, not because the
			// primary was down — it is not a failover serve.
			sr.failover[n.Index]++
		}
	}
	lat := c.serveOn(sr.st, shardID, int(inst), req)
	if sr.ctl != nil {
		sr.ctl[n.Index].observe(lat)
	}
	if sr.met != nil {
		sr.met.Observe(n.Index, lat)
	}
	if meta.id != 0 && !meta.is(attHedge) {
		// A chain attempt is judged against its class's client deadline.
		timedOut := false
		if rc := &sr.res.class[meta.cls]; rc.timeout > 0 && lat > rc.timeout {
			timedOut = true
			sr.timeouts[n.Index]++
			if meta.is(attLast) {
				sr.failed[n.Index]++
			}
		}
		sr.setFate(n.Index, meta, timedOut)
	}
	if pcIdx < 0 { // single-cell scenario: the base digests cover it
		return
	}
	pc := sr.pc[pcIdx]
	pc.node[n.Index].Record(lat)
	if req.Op == workload.OpRead {
		pc.reads[n.Index]++
	} else {
		pc.writes[n.Index]++
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
	emit func(req workload.Request, shard, inst, pc int32, meta resAttempt)) []workload.PhaseBound {
	if flat, ok := scn.FlatLoad(); ok && sr.topo == nil && sr.res == nil {
		d := workload.NewLoadDriver(flat)
		bound := workload.PhaseBound{Start: flat.Start, End: flat.Start}
		for {
			req, ok := d.Next()
			if !ok {
				break
			}
			emit(req, int32(c.router.ShardForKey(req.Key)), 0, -1, resAttempt{})
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
	bounds := c.generateScenario(scn, sr, func(req workload.Request, shard, inst, pc int32, meta resAttempt) {
		c.serveScenario(sr, int(shard), inst, pc, req, meta)
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
	pc    int32
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
// requests. Fixed blocks replace the old whole-run per-node partition
// slices, whose append-regrowth memmoves and O(requests) footprint
// serialized the run on the generation side.
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
// order as the old materialize-then-serve engine, and the report stays
// bit-identical to the sequential engine's. Chunk handoff over a channel
// also gives the happens-before edge that makes generation-side state
// (e.g. migration manifests filled by diverted writes) visible to the
// serving goroutine, exactly as the old full-partition barrier did.
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
		go func(p *nodePipe) {
			defer wg.Done()
			for ck := range p.ch {
				for j := 0; j < ck.n; j++ {
					rr := &ck.reqs[j]
					c.serveScenario(sr, int(rr.shard), rr.inst, rr.pc, rr.req, rr.meta)
				}
				ck.n = 0
				p.free <- ck
			}
		}(&pipes[i])
	}
	// primary caches shard → primary-node routing for the common inst==0
	// case, saving two pointer hops per generated request.
	primary := make([]int32, len(c.shards))
	for i, sh := range c.shards {
		primary[i] = int32(sh.node.Index)
	}
	bounds := c.generateScenario(scn, sr, func(req workload.Request, shard, inst, pc int32, meta resAttempt) {
		node := primary[shard]
		if inst != 0 {
			node = int32(c.shards[shard].instances[inst].node.Index)
		}
		p := &pipes[node]
		if p.cur == nil {
			p.cur = <-p.free
		}
		p.cur.reqs[p.cur.n] = routedScenarioReq{req: req, shard: shard, inst: inst, pc: pc, meta: meta}
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

// runFlatPartitioned is the single-core engine for a flat single-phase load
// with no topology or resilience schedule — every Cluster.Run on one core
// lands here. It materializes the full per-node partition first, then
// serves each node's whole sub-stream on its own goroutine; the per-node
// sub-streams and serve orders are exactly the pipeline's, so the report is
// bit-identical and only the wall-clock shape differs. The routing metadata
// is constant on this path (primary instance, no segmentation cell, empty
// resilience verdict), so the partition stores bare workload.Requests —
// half the bytes of a routedScenarioReq — and the serving goroutine
// re-derives the shard from the key, which is exactly how the generation
// side routed it.
func (c *Cluster) runFlatPartitioned(flat workload.LoadConfig, scn workload.Scenario) ScenarioReport {
	sr := c.newScenarioRun(scn, nil, nil)
	perNode := make([][]workload.Request, len(c.nodes))
	if flat.Requests > 0 {
		per := int(flat.Requests)/len(c.nodes) + len(c.nodes)
		for i := range perNode {
			perNode[i] = make([]workload.Request, 0, per)
		}
	}
	primary := make([]int32, len(c.shards))
	for i, sh := range c.shards {
		primary[i] = int32(sh.node.Index)
	}
	d := workload.NewLoadDriver(flat)
	bound := workload.PhaseBound{Start: flat.Start, End: flat.Start}
	for {
		req, ok := d.Next()
		if !ok {
			break
		}
		n := primary[c.router.ShardForKey(req.Key)]
		perNode[n] = append(perNode[n], req)
		bound.End = req.At
		bound.Requests++
	}
	var wg sync.WaitGroup
	for i := range c.nodes {
		reqs := perNode[i]
		if len(reqs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range reqs {
				rr := &reqs[k]
				c.serveScenario(sr, c.router.ShardForKey(rr.Key), 0, -1, *rr, resAttempt{})
			}
		}()
	}
	wg.Wait()
	return c.finishScenario(sr, scn, []workload.PhaseBound{bound})
}

// finishScenario drains every node's remaining timeline, runs each node to
// the scenario's end, settles the fleet through the base finish, and
// assembles the segmented report. The drain is node-local and runs in node
// index order, so the report is a pure function of the per-node execution
// results — the same argument that makes the two engines bit-identical.
func (c *Cluster) finishScenario(sr *scenarioRun, scn workload.Scenario, bounds []workload.PhaseBound) ScenarioReport {
	end := scn.Start
	if len(bounds) > 0 {
		end = bounds[len(bounds)-1].End
	}
	for _, q := range sr.events {
		if len(q) > 0 {
			if at := q[len(q)-1].at; at.After(end) {
				end = at
			}
		}
	}
	for _, n := range c.nodes {
		c.fireEventsUpTo(sr, n, simtime.MaxTime)
		if end.After(n.sched.Now()) {
			n.sched.RunUntil(end)
		}
	}

	rep := ScenarioReport{Name: scn.Name, Report: c.finish(sr.st)}
	if sr.res != nil {
		for ni := range c.nodes {
			nr := &rep.PerNode[ni]
			nr.Retries = sr.retries[ni]
			nr.Timeouts = sr.timeouts[ni]
			nr.Errors = sr.errors[ni]
			nr.Hedges = sr.hedges[ni]
			nr.Shed = sr.shed[ni]
			nr.Failed = sr.failed[ni]
			nr.SLOCompliance = 1
			rep.Retries += nr.Retries
			rep.Timeouts += nr.Timeouts
			rep.Errors += nr.Errors
			rep.Hedges += nr.Hedges
			rep.Shed += nr.Shed
			rep.Failed += nr.Failed
		}
		rep.SLOCompliance = 1
		if slo := sr.res.slo; slo != nil {
			// Compliance counts served requests at or under the target,
			// assembled from the run-local instance digests exactly as the
			// node digests were — counts, not averaged ratios, so the
			// aggregate is exact.
			rep.SLOTarget = slo.P99
			var totalCount, totalAbove int64
			for ni, n := range c.nodes {
				var count, above int64
				for _, sh := range c.shards {
					for inst := range sh.instances {
						if sh.instances[inst].node == n {
							rec := sr.st.shard[sh.ID][inst]
							count += int64(rec.Count())
							above += rec.CountAbove(slo.P99)
						}
					}
				}
				if count > 0 {
					rep.PerNode[ni].SLOCompliance = 1 - float64(above)/float64(count)
				}
				totalCount += count
				totalAbove += above
			}
			if totalCount > 0 {
				rep.SLOCompliance = 1 - float64(totalAbove)/float64(totalCount)
			}
		}
		if sr.ctl != nil {
			// The action log: per node in firing order, merged cluster-wide
			// by instant (stable, so same-instant actions keep node order).
			// Assembled in node index order — a pure function of the
			// per-node controller trajectories, like everything else here.
			for ni := range c.nodes {
				acts := sr.ctl[ni].log
				rep.PerNode[ni].Actions = acts
				rep.Actions = append(rep.Actions, acts...)
			}
			sort.SliceStable(rep.Actions, func(i, j int) bool {
				return rep.Actions[i].At.Before(rep.Actions[j].At)
			})
		}
	}
	if sr.topo != nil {
		// Every node sits on the common settle horizon after finish, and
		// the drain above fired every event, so the horizon bounds every
		// window — downtime is engine-independent.
		horizon := c.nodes[0].sched.Now()
		for ni := range c.nodes {
			nr := &rep.PerNode[ni]
			nr.Downtime = sr.topo.downtimeUpTo(ni, horizon)
			nr.Failovers = sr.failover[ni]
			nr.Dropped = sr.routeDropped[ni] + sr.qdropped[ni]
			nr.MigratedBytes = sr.migrated[ni]
			rep.Failovers += nr.Failovers
			rep.Dropped += nr.Dropped
			rep.MigratedBytes += nr.MigratedBytes
		}
	}
	if sr.met != nil {
		// Every node settled on the common horizon in c.finish, so the
		// series' trailing window is the same span for every node. Actions
		// are attributed to windows from the merged log assembled above.
		sr.met.Finish(c.nodes[0].sched.Now())
		times := make([]simtime.Time, len(rep.Actions))
		for i, a := range rep.Actions {
			times[i] = a.At
		}
		rep.Metrics = sr.met.Series(times)
	}
	if sr.pc == nil {
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
			pc := sr.pc[sr.pcOff[pi]+ci]
			classRec := c.newRecorder(p.Name + "/" + tc.Name)
			cr := ClassReport{Name: tc.Name}
			for ni := range c.nodes {
				classRec.Merge(pc.node[ni])
				cr.PerNode = append(cr.PerNode, pc.node[ni].Summarize())
				cr.Reads += pc.reads[ni]
				cr.Writes += pc.writes[ni]
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
