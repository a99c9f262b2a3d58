package cluster

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/services"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload"
)

// This file is the topology-dynamics machinery: the static outage schedule
// compiled from a scenario's kill-node/restore-node events, the failover
// routing that consults it at generation time, and the shard-migration
// replay a restore performs.
//
// Determinism argument. Kill and restore instants are declared in the
// scenario, so every node's up/down state at every instant is a pure
// function of the schedule — no runtime feedback. Routing therefore stays
// a pure function of (key, arrival instant): the serving node is the first
// chain entry in rotation at the arrival. Both engines route during
// generation (one goroutine, global arrival order), so the per-node
// sub-streams — and the migration manifests accumulated from rerouted
// writes — are byte-identical. A restore replays its manifest as
// node-local virtual-time work through the node's own event cursor, and
// every entry it needs was emitted before the restore can fire: manifest
// arrivals precede the restore instant, and a node's cursor only reaches
// the restore on a request at or after it (or at the end-of-run drain).
// Nothing a node does depends on another node's runtime state — the same
// invariant the parallel engine has always rested on.

// downWindow is one scheduled outage of one node: out of rotation during
// the half-open interval [kill, restore). restore is simtime.MaxTime when
// the node never comes back. manifest accumulates the delta writes the
// outage diverts to replicas; it is nil when nothing can be re-filled (no
// restore, or no replica chain to divert to).
type downWindow struct {
	kill    simtime.Time
	restore simtime.Time
	drop    bool
	// manifest follows the routed write stream minus fault-window errors,
	// both fixed at generation, not serve-time fates: in the rare cascade
	// where a failover target is itself later killed with a drop policy,
	// a severed write still replays — the replica accepted it into its
	// log before dying. That keeps the manifest a pure function of
	// generation.
	manifest *migrationManifest
}

// topology is a scenario's compiled outage schedule: each node's down
// windows, sorted by kill instant.
type topology struct {
	windows [][]downWindow
}

// newTopology compiles the scenario's kill/restore events into the static
// per-node outage schedule, validating the transitions: a kill must target
// a node in rotation, a restore a down one. Returns nil when the scenario
// has no topology events — the marker for every no-failover fast path.
func (c *Cluster) newTopology(scn workload.Scenario) (*topology, error) {
	hasTopo := false
	for _, e := range scn.Events {
		if e.Kind == workload.EventKillNode || e.Kind == workload.EventRestoreNode {
			hasTopo = true
			break
		}
	}
	if !hasTopo {
		return nil, nil
	}
	// Walk the events in the order the node cursors fire them, so the
	// kill/restore pairing matches the run.
	t := &topology{windows: make([][]downWindow, len(c.nodes))}
	open := make([]bool, len(c.nodes))
	for _, i := range firingOrder(scn.Events) {
		e := scn.Events[i]
		at := scn.Start.Add(e.At)
		switch e.Kind {
		case workload.EventKillNode:
			if open[e.Node] {
				return nil, fmt.Errorf("cluster: scenario %q event %d (%s): node %d is already down at %v",
					scn.Name, i, e.Kind, e.Node, at)
			}
			t.windows[e.Node] = append(t.windows[e.Node], downWindow{
				kill:    at,
				restore: simtime.MaxTime,
				drop:    e.KillPolicyKind() == workload.KillDrop,
			})
			open[e.Node] = true
		case workload.EventRestoreNode:
			if !open[e.Node] {
				return nil, fmt.Errorf("cluster: scenario %q event %d (%s): node %d is not down at %v (kill it first)",
					scn.Name, i, e.Kind, e.Node, at)
			}
			w := &t.windows[e.Node][len(t.windows[e.Node])-1]
			w.restore = at
			if c.cfg.ShardReplicas > 1 {
				// Replicas absorb the outage's writes and the restore
				// replays them; without a chain nothing is diverted, so
				// there is nothing to migrate back.
				w.manifest = &migrationManifest{}
			}
			open[e.Node] = false
		}
	}
	return t, nil
}

// upAt reports whether the node is in rotation at the instant (windows are
// half-open: down at the kill, back at the restore).
func (t *topology) upAt(node int, at simtime.Time) bool {
	return t.window(node, at) == nil
}

// window returns the outage containing the instant, or nil when the node
// is up then.
func (t *topology) window(node int, at simtime.Time) *downWindow {
	for i := range t.windows[node] {
		w := &t.windows[node][i]
		if at.Before(w.kill) {
			return nil // sorted windows: at precedes every later outage
		}
		if at.Before(w.restore) {
			return w
		}
	}
	return nil
}

// windowEndingAt returns the node's outage whose restore fires at the
// instant, or nil.
func (t *topology) windowEndingAt(node int, at simtime.Time) *downWindow {
	for i := range t.windows[node] {
		if w := &t.windows[node][i]; w.restore == at {
			return w
		}
	}
	return nil
}

// dropsQueued reports whether a request that arrived at arrival and is
// starting service at now on the node was severed by a drop-policy kill:
// some drop window's kill falls in (arrival, now]. Both inputs are
// node-local (the arrival and the node's own clock), so the verdict is
// identical on both engines.
func (t *topology) dropsQueued(node int, arrival, now simtime.Time) bool {
	for i := range t.windows[node] {
		w := &t.windows[node][i]
		if w.drop && arrival.Before(w.kill) && !now.Before(w.kill) {
			return true
		}
	}
	return false
}

// downtimeUpTo sums the node's time out of rotation, truncating every
// window at the run horizon (a never-restored node counts down until it).
func (t *topology) downtimeUpTo(node int, horizon simtime.Time) simtime.Duration {
	var total simtime.Duration
	for _, w := range t.windows[node] {
		kill, restore := w.kill, w.restore
		if restore.After(horizon) {
			restore = horizon
		}
		if restore.After(kill) {
			total += restore.Sub(kill)
		}
	}
	return total
}

// migrationManifest is the oplog a down primary missed: every write the
// outage diverted to a replica, in arrival order. It is appended during
// generation — single-goroutine in both engines — and replayed at the
// restore, so the parallel engine's node goroutines only ever read it.
type migrationManifest struct {
	entries []manifestEntry
	bytes   int64
}

// manifestEntry is one diverted write.
type manifestEntry struct {
	shard int32
	key   int64
	size  int64
}

func (m *migrationManifest) add(shard int32, key, size int64) {
	m.entries = append(m.entries, manifestEntry{shard: shard, key: key, size: size})
	m.bytes += size
}

// routeInstance picks the serving chain position for a request to the
// shard at the given arrival instant: the first chain node in rotation.
// ok=false means every replica is down and the request drops at routing.
func (c *Cluster) routeInstance(t *topology, shard int, at simtime.Time) (int, bool) {
	for i, node := range c.chains[shard] {
		if t.upAt(node, at) {
			return i, true
		}
	}
	return 0, false
}

// divertWrite adds a write that routing diverted past its down primary
// (inst > 0) to that outage's manifest, replayed at the restore. An errored
// write never reaches the replica's service, so it leaves no entry; the
// attempt expander calls this after drawing the fault verdict.
func (c *Cluster) divertWrite(t *topology, shard, inst int, req workload.Request, errored bool) {
	if t == nil || inst == 0 || errored || req.Op != workload.OpWrite {
		return
	}
	if w := t.window(c.chains[shard][0], req.At); w != nil && w.manifest != nil {
		w.manifest.add(int32(shard), req.Key, req.ValueBytes)
	}
}

// replayMigration re-fills a restored node's primary shards from the
// outage's manifest: entries group per shard (ascending shard id) and
// replay in arrival order within each — oplog semantics, so overwrites
// land exactly as the live path would have. The import is node-local
// virtual-time work on the restored node's own clock (the manifest only
// ever holds shards whose primary lives there): Redis re-inserts every
// record through its allocator under whatever pressure the node is under,
// RocksDB ingests one SST handoff per shard. Returns the migrated bytes.
func (c *Cluster) replayMigration(m *migrationManifest) int64 {
	if m == nil || len(m.entries) == 0 {
		return 0
	}
	perShard := make([][]services.ImportEntry, len(c.shards))
	for _, e := range m.entries {
		perShard[e.shard] = append(perShard[e.shard], services.ImportEntry{Key: e.key, Size: e.size})
	}
	for id, entries := range perShard {
		if len(entries) > 0 {
			c.shards[id].svc.ImportRecords(entries)
		}
	}
	return m.bytes
}
