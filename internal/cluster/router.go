// Package cluster is the multi-node layer of the simulation: a Cluster owns
// N simulated machines on one virtual timeline, a consistent-hashing
// ShardRouter places service shards across them, and Run drives the fleet
// with an open-loop workload.LoadDriver, recording per-shard, per-node and
// cluster-wide latency digests. Everything is deterministic: one seed
// reproduces an entire cluster run, request for request.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ShardRouter maps keys to shards and shards to nodes. The shard→node step
// uses a consistent-hashing ring with virtual nodes, so changing the node
// count moves only ~1/N of the shards — the property every future
// rebalancing and failure-handling PR builds on. The key→shard step is a
// plain integer hash modulo the (fixed) shard count, so a record's shard
// never changes.
type ShardRouter struct {
	shards int
	nodes  int
	ring   []ringEntry
	assign []int // shard index → node index, precomputed from the ring
	slot   []int // shard index → ring index of its successor entry
}

type ringEntry struct {
	hash uint64
	node int
}

// NewShardRouter builds the ring from the node names (each contributing
// replicas virtual nodes) and precomputes the placement of every shard.
// Placement depends only on (names, shards, replicas) — it is deterministic
// and stable across runs and processes.
func NewShardRouter(nodeNames []string, shards, replicas int) *ShardRouter {
	if len(nodeNames) == 0 || shards <= 0 || replicas <= 0 {
		panic(fmt.Sprintf("cluster: bad router geometry: nodes=%d shards=%d replicas=%d",
			len(nodeNames), shards, replicas))
	}
	r := &ShardRouter{shards: shards, nodes: len(nodeNames)}
	for i, name := range nodeNames {
		for v := 0; v < replicas; v++ {
			r.ring = append(r.ring, ringEntry{hashString(fmt.Sprintf("%s#%d", name, v)), i})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].hash != r.ring[j].hash {
			return r.ring[i].hash < r.ring[j].hash
		}
		return r.ring[i].node < r.ring[j].node
	})
	r.assign = make([]int, shards)
	r.slot = make([]int, shards)
	for s := 0; s < shards; s++ {
		r.slot[s] = r.successor(hashString(fmt.Sprintf("shard-%d", s)))
		r.assign[s] = r.ring[r.slot[s]].node
	}
	return r
}

// successor returns the index of the first ring entry at or after h,
// wrapping around the ring.
func (r *ShardRouter) successor(h uint64) int {
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0
	}
	return i
}

// ReplicaChain returns the shard's n-node replica chain: the primary (the
// shard's ring successor) followed by the next n-1 distinct nodes walking
// the ring clockwise — consistent hashing's standard replica set. The chain
// depends only on the ring, so it is deterministic, and a node leaving the
// rotation fails each of its shards over to the chain's next live entry
// without moving any other shard.
func (r *ShardRouter) ReplicaChain(shard, n int) []int {
	if shard < 0 || shard >= r.shards {
		panic(fmt.Sprintf("cluster: shard %d outside [0,%d)", shard, r.shards))
	}
	if n < 1 || n > r.nodes {
		panic(fmt.Sprintf("cluster: replica chain length %d outside [1,%d]", n, r.nodes))
	}
	chain := make([]int, 0, n)
	seen := make([]bool, r.nodes)
	for i := r.slot[shard]; len(chain) < n; i = (i + 1) % len(r.ring) {
		if node := r.ring[i].node; !seen[node] {
			seen[node] = true
			chain = append(chain, node)
		}
	}
	return chain
}

// Shards returns the shard count.
func (r *ShardRouter) Shards() int { return r.shards }

// ShardForKey maps a record key to its shard. It mixes the key first so
// contiguous keys spread across shards.
func (r *ShardRouter) ShardForKey(key int64) int {
	return int(mix64(uint64(key)) % uint64(r.shards))
}

// NodeForShard returns the node index that owns the shard.
func (r *ShardRouter) NodeForShard(shard int) int {
	if shard < 0 || shard >= r.shards {
		panic(fmt.Sprintf("cluster: shard %d outside [0,%d)", shard, r.shards))
	}
	return r.assign[shard]
}

// Assignments returns a copy of the shard→node table (diagnostics, tests).
func (r *ShardRouter) Assignments() []int {
	out := make([]int, len(r.assign))
	copy(out, r.assign)
	return out
}

// Moved counts shards placed differently by the two routers — the
// rebalancing cost of going from r's node set to o's. Both routers must
// have the same shard count.
func (r *ShardRouter) Moved(o *ShardRouter) int {
	if r.shards != o.shards {
		panic(fmt.Sprintf("cluster: Moved across shard counts %d vs %d", r.shards, o.shards))
	}
	moved := 0
	for s := 0; s < r.shards; s++ {
		if r.assign[s] != o.assign[s] {
			moved++
		}
	}
	return moved
}

// hashString is FNV-1a finalised by mix64: raw FNV of short sequential
// labels ("shard-0", "shard-1", …) clusters in a narrow band of the 64-bit
// space, which starves ring arcs; the finalizer spreads them.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is splitmix64's finalizer: a cheap, well-distributed integer hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
