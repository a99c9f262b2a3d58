package cluster

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
	"github.com/hermes-sim/hermes/internal/workload/randgen"
)

// This file is the resilience layer: deterministic soft-fault injection
// (degrade-node/heal-node service slowdowns and fault-window error bursts),
// client-side resilience policies (timeouts, retries with backoff + jitter,
// read hedging), and the SLO-driven shedding controller. Like the topology
// layer it compiles the scenario's events into static schedules up front,
// so everything a node does remains a pure function of its own arrival
// stream.
//
// Determinism argument. Soft faults follow the topology playbook: degrade
// windows and fault windows are compiled from declared events, so a node's
// slowdown factor and a request's error probability are pure functions of
// (node/shard, instant). Error verdicts and backoff jitter are drawn at
// GENERATION time — one goroutine in both engines, in emission order —
// from their own domain-separated streams, so the expanded attempt stream
// (primaries, retries, hedges) is byte-identical before either engine
// partitions it. The one genuinely runtime-dependent trigger is the client
// timeout: whether attempt k timed out is only known when its serving node
// finishes it. Timeout retries are therefore emitted SPECULATIVELY at
// generation (at send + timeout + backoff) and carry a condition — "fires
// only if the previous attempt failed" — that the serving node evaluates
// locally against a per-node fate table filled in per-node arrival order.
// A conditional successor whose routing would land it away from its
// chain's anchor (only possible under topology events) is never spawned:
// routing is a pure function of the static outage schedule, so generation
// checks the successor's landing at spawn time and marks the predecessor
// as the chain's final attempt instead — the failure stays countable and
// no fate entry is left orphaned. Hedges are pinned at spawn time to a
// live replica-chain position different from the serving instance, so
// they go to a different node by construction and are unconditional
// ("always hedge after the delay"); the SLO controller is per-node state
// advanced in per-node arrival order with its own per-node stream.
// Nothing a node observes depends on another node's runtime state — the
// invariant both engines rest on.

// Domain-separation stream ids for the resilience layer (same namespace
// discipline as workload's streamLoadDriver).
const (
	streamFaultDraws = 0x666c742d64726177 // "flt-draw": fault-window error verdicts
	streamRetryJit   = 0x727472792d6a6974 // "rtry-jit": backoff jitter
	streamShedCtl    = 0x736865642d637472 // "shed-ctr": per-node shed draws (xor node)
)

// factorWindow is one service-latency degradation of one node: raw service
// cost multiplies by factor during [from, to).
type factorWindow struct {
	from, to simtime.Time
	factor   float64
}

// degradeFactorAt returns the slowdown factor covering the instant (1 when
// none does). Windows are sorted and non-overlapping per node.
func degradeFactorAt(ws []factorWindow, at simtime.Time) float64 {
	for i := range ws {
		if at.Before(ws[i].from) {
			return 1
		}
		if at.Before(ws[i].to) {
			return ws[i].factor
		}
	}
	return 1
}

// faultWindow is one error burst on one target: requests during [from, to)
// fail with probability rate.
type faultWindow struct {
	from, to simtime.Time
	rate     float64
}

// resClass is one traffic class's lowered resilience policy; active is
// false for classes without one, and the zero value is that policy-less
// class.
type resClass struct {
	active  bool
	timeout simtime.Duration
	retries int
	backoff simtime.Duration
	jitter  float64
	hedge   simtime.Duration
}

// resilience is a scenario's compiled resilience state: static fault
// schedules, per-class policies, the SLO block, and the generation-time
// streams. nil when the scenario has none of it; classFor and faultRate
// answer for a nil layer too (no policies, no faults), so the attempt
// expander runs every non-flat scenario either way.
type resilience struct {
	degrade    [][]factorWindow // per node, sorted, non-overlapping
	nodeFault  [][]faultWindow  // per node
	shardFault [][]faultWindow  // per shard
	class      []resClass       // indexed by (phase, class) cell (scenarioRun.cellOff)
	slo        *workload.SLO
	pol        *workload.Policies // control-plane policies (controlplane.go)
	faults     *randgen.Stream    // error verdicts (generation time)
	jit        *randgen.Stream    // backoff jitter (generation time)
}

// noPolicy is every class's policy when the scenario has no resilience
// layer. Callers only read it.
var noPolicy resClass

// classFor returns the lowered policy for a (phase, class) cell.
func (r *resilience) classFor(cell int32) *resClass {
	if r == nil {
		return &noPolicy
	}
	return &r.class[cell]
}

// faultRate returns the error probability for a request to (node, shard) at
// the instant. Overlapping windows compound probabilistically: the request
// survives only if it survives every covering window.
func (r *resilience) faultRate(node, shard int, at simtime.Time) float64 {
	if r == nil {
		return 0
	}
	keep := 1.0
	for i := range r.nodeFault[node] {
		w := &r.nodeFault[node][i]
		if !at.Before(w.from) && at.Before(w.to) {
			keep *= 1 - w.rate
		}
	}
	for i := range r.shardFault[shard] {
		w := &r.shardFault[shard][i]
		if !at.Before(w.from) && at.Before(w.to) {
			keep *= 1 - w.rate
		}
	}
	return 1 - keep
}

// newResilience compiles the scenario's soft-fault events and class
// policies, validating transitions (a heal needs an active degrade, a
// fault-window shard must exist). Returns nil when the scenario has no
// resilience surface at all.
func (c *Cluster) newResilience(scn workload.Scenario) (*resilience, error) {
	hasEvents := false
	for _, e := range scn.Events {
		switch e.Kind {
		case workload.EventDegradeNode, workload.EventHealNode, workload.EventFaultWindow:
			hasEvents = true
		}
	}
	hasPolicy := false
	for _, p := range scn.Phases {
		for _, tc := range p.Classes {
			if tc.Resilience != nil {
				hasPolicy = true
			}
		}
	}
	if !hasEvents && !hasPolicy && scn.SLO == nil {
		return nil, nil
	}
	r := &resilience{
		degrade:    make([][]factorWindow, len(c.nodes)),
		nodeFault:  make([][]faultWindow, len(c.nodes)),
		shardFault: make([][]faultWindow, len(c.shards)),
		slo:        scn.SLO,
		faults:     randgen.Split(scn.Seed, streamFaultDraws),
		jit:        randgen.Split(scn.Seed, streamRetryJit),
	}
	r.pol = scn.Policies
	// Phase-major, class-minor: the order of scenarioRun.cellOff's cells.
	for _, p := range scn.Phases {
		for _, tc := range p.Classes {
			rc := resClass{}
			if pol := tc.Resilience; pol != nil {
				rc = resClass{
					active:  true,
					timeout: pol.Timeout,
					retries: pol.Retries,
					backoff: pol.Backoff,
					jitter:  pol.Jitter,
					hedge:   pol.Hedge,
				}
			}
			r.class = append(r.class, rc)
		}
	}
	// Walk events in firing order so degrade/heal pairing matches what the
	// node cursors will observe.
	open := make([]int, len(c.nodes)) // open degrade window index + 1, or 0
	for _, i := range firingOrder(scn.Events) {
		e := scn.Events[i]
		at := scn.Start.Add(e.At)
		targets := func() []int {
			if e.Node >= 0 {
				return []int{e.Node}
			}
			all := make([]int, len(c.nodes))
			for n := range all {
				all[n] = n
			}
			return all
		}
		switch e.Kind {
		case workload.EventDegradeNode:
			for _, n := range targets() {
				if o := open[n]; o > 0 {
					// Re-degrade replaces the factor: close the open
					// window here and open a new one.
					r.degrade[n][o-1].to = at
				}
				r.degrade[n] = append(r.degrade[n], factorWindow{
					from: at, to: simtime.MaxTime, factor: e.Factor,
				})
				open[n] = len(r.degrade[n])
			}
		case workload.EventHealNode:
			for _, n := range targets() {
				if open[n] == 0 {
					return nil, fmt.Errorf("cluster: scenario %q event %d (%s): node %d is not degraded at %v (degrade it first)",
						scn.Name, i, e.Kind, n, at)
				}
				r.degrade[n][open[n]-1].to = at
				open[n] = 0
			}
		case workload.EventFaultWindow:
			w := faultWindow{from: at, to: at.Add(e.Duration), rate: e.ErrorRate}
			if e.Shard != nil {
				if *e.Shard >= len(c.shards) {
					return nil, fmt.Errorf("cluster: scenario %q event %d (%s): targets shard %d but the cluster has %d shards",
						scn.Name, i, e.Kind, *e.Shard, len(c.shards))
				}
				r.shardFault[*e.Shard] = append(r.shardFault[*e.Shard], w)
				continue
			}
			for _, n := range targets() {
				r.nodeFault[n] = append(r.nodeFault[n], w)
			}
		}
	}
	return r, nil
}

// Load shedding is the adaptive control plane's shed action
// (controlplane.go). Its step rule, stream id and draw sequence must not
// change: scenarios that declare only a shed policy replay bit-for-bit.

// resAttempt is the resilience metadata riding with one emitted attempt.
// The zero value marks a request outside the resilience layer: an attempt
// of a policy-less class carries no flags unless it errored.
type resAttempt struct {
	id    int64 // chain id (0 = not a resilient-class request)
	flags uint8
}

const (
	attErr     = 1 << iota // generation drew an error verdict: fail fast
	attRetry               // this attempt is a retry
	attHedge               // this attempt is a speculative read hedge
	attCond                // fires only if the chain's previous attempt failed
	attTracked             // a conditional successor exists: record the fate
	attLast                // no successor was generated: failure is final
)

func (m resAttempt) is(f uint8) bool { return m.flags&f != 0 }

// pendingAttempt is one attempt on its way through the expander: a client
// request, or a retry or hedge waiting in the retry queue. Its arrival
// instant is req.At.
type pendingAttempt struct {
	req       workload.Request
	id        int64
	attemptNo int
	cell      int32 // (phase, class) cell
	anchor    int32 // node index a conditional chain is pinned to
	hinst     int32 // replica-chain position a hedge is pinned to
	cond      bool
	hedge     bool
}

// retryKey is one queued attempt's place in the retry queue: its arrival
// instant, its insertion sequence number and its slab slot.
type retryKey struct {
	at   simtime.Time
	seq  int64 // tie-break: insertion order
	slot int32
}

func (k *retryKey) before(o *retryKey) bool {
	if k.at != o.at {
		return k.at.Before(o.at)
	}
	return k.seq < o.seq
}

// retryQueue holds the expander's not-yet-emitted retries and hedges. The
// attempts stay in a slab, each in one slot from push to pop, and a binary
// min-heap of keys orders them on (at, seq): seq makes same-instant
// ordering deterministic. Sifts move only keys, and a popped attempt's
// slot goes on a free list for the next push, so the slab never grows past
// the most attempts queued at once.
type retryQueue struct {
	keys []retryKey
	slab []pendingAttempt
	free []int32
	seq  int64
}

func (q *retryQueue) len() int { return len(q.keys) }

// next returns the arrival instant of the attempt pop would return.
func (q *retryQueue) next() simtime.Time { return q.keys[0].at }

// push queues a copy of the attempt at its arrival instant, after every
// attempt already queued for that instant.
func (q *retryQueue) push(p *pendingAttempt) {
	slot := int32(len(q.slab))
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
		q.slab[slot] = *p
	} else {
		q.slab = append(q.slab, *p)
	}
	q.seq++
	k := retryKey{at: p.req.At, seq: q.seq, slot: slot}
	h := append(q.keys, k)
	i := len(h) - 1
	for i > 0 && k.before(&h[(i-1)/2]) {
		h[i] = h[(i-1)/2]
		i = (i - 1) / 2
	}
	h[i] = k
	q.keys = h
}

// pop moves the earliest queued attempt into dst and frees its slot.
func (q *retryQueue) pop(dst *pendingAttempt) {
	h := q.keys
	*dst = q.slab[h[0].slot]
	q.free = append(q.free, h[0].slot)
	// Sift the last key down from the root within h[:n].
	n := len(h) - 1
	k, i := h[n], 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&k) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = k
	q.keys = h[:n]
}

// resExpander turns the scenario's client-request stream into the attempt
// stream: primaries, error/timeout retries, and hedges, merged by arrival
// instant, each routed and given its fault verdict. It runs at generation
// time on one goroutine in both engines, for every non-flat scenario; with
// no class policies the retry queue stays empty and it emits the client
// stream one-for-one.
type resExpander struct {
	c      *Cluster
	sr     *scenarioRun
	queue  retryQueue
	nextID int64
	emit   func(req workload.Request, shard, inst, cell int32, meta resAttempt)
}

// backoffDelay computes retry k's delay (k = the retry's attempt number,
// 1-based): Backoff·2^(k-1) stretched by the jitter draw. The draw happens
// here — at generation, in emission order — whenever the policy has jitter.
func (x *resExpander) backoffDelay(rc *resClass, k int) simtime.Duration {
	d := rc.backoff << uint(k-1)
	if rc.jitter > 0 {
		// The product is rounded on its own, so no platform fuses it into
		// the add.
		d = simtime.Duration(float64(d) * (1 + float64(rc.jitter*x.sr.res.jit.Float64())))
	}
	return d
}

// condObservable reports whether a conditional successor arriving at the
// instant can observe its chain's fate: its routing — a pure function of
// the static outage schedule, so generation can evaluate it at spawn time
// — must land it on the anchor node, and a conditional write must not be
// diverted to a replica (its migration-manifest entry could not be
// trusted). A successor whose whole chain is down at the instant stays
// observable: the route-drop path respawns it, still anchored.
func (x *resExpander) condObservable(shard int, anchor int32, op workload.Op, at simtime.Time) bool {
	sr := x.sr
	if sr.topo == nil {
		return true
	}
	inst, up := x.c.routeInstance(sr.topo, shard, at)
	if !up {
		return true
	}
	if int32(x.c.chains[shard][inst]) != anchor {
		return false
	}
	return inst == 0 || op != workload.OpWrite
}

// spawnRetry queues the chain's next attempt.
func (x *resExpander) spawnRetry(p *pendingAttempt, delay simtime.Duration, cond bool, anchor int32) {
	next := pendingAttempt{
		req: p.req, cell: p.cell, id: p.id,
		attemptNo: p.attemptNo + 1, cond: cond, anchor: anchor,
	}
	next.req.At = p.req.At.Add(delay)
	x.queue.push(&next)
}

// emitAttempt routes and emits one attempt, drawing its error verdict and
// queueing its successors (retry, hedge). Returns without emitting when
// the attempt was dropped at routing or its pinned hedge replica is down.
// p must not point into the retry queue's slab, where the successors it
// pushes may reuse or move p's slot.
func (x *resExpander) emitAttempt(p *pendingAttempt) {
	c, sr := x.c, x.sr
	res := sr.res
	rc := res.classFor(p.cell)
	shard := c.router.ShardForKey(p.req.Key)
	if p.hedge {
		// A hedge serves on the replica-chain position pinned at spawn
		// time — never re-routed, or it would land back on the very
		// instance it is hedging against. upAt is a pure function of the
		// static schedule at the hedge's own instant, so this re-check
		// matches the spawn-time one; a hedge whose replica is down is
		// discarded, not re-homed. Hedges are immune to fault draws and
		// spawn nothing: a pure speculative duplicate.
		if sr.topo != nil && !sr.topo.upAt(c.chains[shard][p.hinst], p.req.At) {
			return
		}
		x.emit(p.req, int32(shard), p.hinst, p.cell, resAttempt{id: p.id, flags: attHedge})
		return
	}
	inst := 0
	if sr.topo != nil {
		var up bool
		if inst, up = c.routeInstance(sr.topo, shard, p.req.At); !up {
			// The whole chain is down: the client's connection is refused
			// on the spot, and a remaining retry fires under the SAME
			// condition this attempt carried — a speculative attempt stays
			// speculative (its chain may already have succeeded before
			// this attempt was dropped), an unconditional one respawns
			// unconditionally.
			sr.nodes[c.chains[shard][0]].routeDropped++
			if rc.active && p.attemptNo < rc.retries {
				delay := x.backoffDelay(rc, p.attemptNo+1)
				// A conditional respawn keeps the chain's fate entry
				// consumable only if its landing stays observable; the
				// rare unobservable tail ends the chain here, uncounted
				// (the attempt never reaches a node that could count it).
				if !p.cond || x.condObservable(shard, p.anchor, p.req.Op, p.req.At.Add(delay)) {
					x.spawnRetry(p, delay, p.cond, p.anchor)
				}
			}
			return
		}
	}
	node := c.shards[shard].instances[inst].node.Index
	if p.cond {
		// A conditional (timeout-speculative) attempt is only evaluable on
		// the node holding its chain's fate. Spawn-time condObservable
		// checks made exactly this routing decision, so a re-routed
		// conditional or a conditional write diverted to a replica cannot
		// reach here — the check stands as a guard on that invariant.
		if int32(node) != p.anchor || (inst > 0 && p.req.Op == workload.OpWrite) {
			return
		}
	}
	meta := resAttempt{id: p.id}
	if p.attemptNo > 0 {
		meta.flags |= attRetry
	}
	if p.cond {
		meta.flags |= attCond
	}
	err := false
	if rate := res.faultRate(node, shard, p.req.At); rate > 0 && res.faults.Float64() < rate {
		err = true
		meta.flags |= attErr
	}
	// Conditional writes never get here when diverted (discarded above
	// when inst > 0).
	c.divertWrite(sr.topo, shard, inst, p.req, err)
	// Queue the successor. An error is generation-time knowledge, so the
	// retry fires under the same condition this attempt did; a timeout is
	// serve-time knowledge, so the retry is speculative — conditional on
	// this attempt's fate, pinned to this node. Either way a conditional
	// successor is only spawned when its landing can observe that fate
	// (condObservable); otherwise this attempt becomes the chain's last,
	// so a final failure is still counted and no fate entry is orphaned.
	spawned := false
	if rc.active && p.attemptNo < rc.retries {
		if err {
			delay := x.backoffDelay(rc, p.attemptNo+1)
			if !p.cond || x.condObservable(shard, p.anchor, p.req.Op, p.req.At.Add(delay)) {
				x.spawnRetry(p, delay, p.cond, p.anchor)
				spawned = true
			}
		} else if rc.timeout > 0 {
			delay := rc.timeout + x.backoffDelay(rc, p.attemptNo+1)
			if x.condObservable(shard, int32(node), p.req.Op, p.req.At.Add(delay)) {
				x.spawnRetry(p, delay, true, int32(node))
				spawned = true
				meta.flags |= attTracked
			}
		}
	}
	if !spawned && (rc.active || err) {
		meta.flags |= attLast
	}
	if p.cond && spawned && !meta.is(attTracked) {
		// An errored conditional's successor re-reads the same fate entry;
		// keep it alive.
		meta.flags |= attTracked
	}
	// Hedge the read: a speculative duplicate to the next live replica
	// after the hedge delay, pinned to that chain position so emission
	// serves it there rather than re-routing it back onto the instance it
	// hedges against. Always-on hedging — whether the primary already
	// answered is another node's runtime state, which generation must not
	// consult.
	if rc.active && rc.hedge > 0 && p.attemptNo == 0 && !p.cond &&
		p.req.Op == workload.OpRead && !err {
		th := p.req.At.Add(rc.hedge)
		for hi := range c.chains[shard] {
			if hi == inst {
				continue
			}
			if sr.topo != nil && !sr.topo.upAt(c.chains[shard][hi], th) {
				continue
			}
			h := pendingAttempt{
				req: p.req, cell: p.cell, id: p.id,
				attemptNo: p.attemptNo, hedge: true, hinst: int32(hi),
			}
			h.req.At = th
			x.queue.push(&h)
			break
		}
	}
	x.emit(p.req, int32(shard), int32(inst), p.cell, meta)
}

// generateAttempts is the generator of every scenario that is not a flat
// load: it merges the scenario driver's client requests with the retry
// queue in arrival order, emitting the full attempt stream.
func (c *Cluster) generateAttempts(scn workload.Scenario, sr *scenarioRun,
	emit func(req workload.Request, shard, inst, cell int32, meta resAttempt)) []workload.PhaseBound {
	x := &resExpander{c: c, sr: sr, emit: emit}
	d := workload.NewScenarioDriver(scn)
	pending, ok := d.Next()
	var p pendingAttempt
	for ok || x.queue.len() > 0 {
		// Earliest instant wins; a retry beats a client request at the
		// same instant (it entered the system first).
		if x.queue.len() > 0 && (!ok || !x.queue.next().After(pending.At)) {
			x.queue.pop(&p)
			x.emitAttempt(&p)
			continue
		}
		p = pendingAttempt{req: pending.Request, cell: int32(sr.cellOff[pending.Phase] + pending.Class)}
		if sr.res.classFor(p.cell).active {
			x.nextID++
			p.id = x.nextID
		}
		x.emitAttempt(&p)
		pending, ok = d.Next()
	}
	return d.Bounds()
}
