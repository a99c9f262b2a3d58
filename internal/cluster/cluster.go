package cluster

import (
	"fmt"
	"strings"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/alloc/glibcmalloc"
	"github.com/hermes-sim/hermes/internal/alloc/jemalloc"
	"github.com/hermes-sim/hermes/internal/alloc/tcmalloc"
	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/core"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/metrics"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/services"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
	"github.com/hermes-sim/hermes/internal/workload/randgen"
)

// AllocatorKind selects the malloc library backing every shard.
type AllocatorKind string

// The four allocators of the paper's comparison.
const (
	AllocGlibc    AllocatorKind = "glibc"
	AllocJemalloc AllocatorKind = "jemalloc"
	AllocTCMalloc AllocatorKind = "tcmalloc"
	AllocHermes   AllocatorKind = "hermes"
)

// AllocatorKinds lists every kind in the paper's comparison order.
var AllocatorKinds = []AllocatorKind{AllocGlibc, AllocJemalloc, AllocTCMalloc, AllocHermes}

// ServiceKind selects the service type the shards run.
type ServiceKind string

// StatsMode selects the Recorder backend for every latency digest of a
// cluster.
type StatsMode string

const (
	// StatsRaw keeps every sample: exact percentiles and CDF shapes, memory
	// proportional to the request count. The default, and the right mode for
	// experiments that assert exact distribution shapes.
	StatsRaw StatsMode = "raw"
	// StatsHistogram digests samples into log-bucketed histograms: O(1)
	// record, memory bounded regardless of request count, percentiles within
	// ≤1% relative error. The right mode for fleet-scale runs serving
	// millions of requests.
	StatsHistogram StatsMode = "histogram"
)

// The two latency-critical services of the evaluation.
const (
	ServiceRedis   ServiceKind = "redis"
	ServiceRocksdb ServiceKind = "rocksdb"
)

// Config describes a cluster.
type Config struct {
	// Nodes is the machine count.
	Nodes int
	// Shards is the service-shard count; shards are placed on nodes by the
	// ShardRouter and several shards may share a node.
	Shards int
	// Replicas is the virtual-node count per machine on the hash ring.
	Replicas int
	// ShardReplicas is the shard replication factor: every shard gets a
	// full service instance on the first ShardReplicas distinct nodes of
	// its ring walk, and requests fail over down the chain when a
	// kill-node event takes the primary out of rotation. 0 or 1 means
	// unreplicated (the chain is just the primary); the factor cannot
	// exceed Nodes.
	ShardReplicas int
	// Kernel configures every node's memory subsystem (per-node seeds are
	// derived from Seed, overriding Kernel.Seed).
	Kernel kernel.Config
	// Allocator backs every shard's dynamic memory.
	Allocator AllocatorKind
	// ServiceKind selects what the shards run; empty means ServiceRedis.
	ServiceKind ServiceKind
	// Hermes tunes the Hermes allocators when Allocator == AllocHermes.
	Hermes core.Config
	// Daemon, when non-nil and Allocator == AllocHermes, runs the memory
	// monitor daemon on every node (proactive reclamation).
	Daemon *monitor.Config
	// Pressure, when non-nil, co-locates a memory-pressure generator on
	// every node — the paper's §5 regimes at cluster scale.
	Pressure *workload.PressureConfig
	// Batch, when non-nil, co-locates churning batch jobs on every node
	// (the paper's co-location workload); TargetBytes sets the per-node
	// pressure level. Batch jobs are the fleet's OOM victims.
	Batch *batch.Config
	// Seed derives every node's kernel seed; one seed reproduces the whole
	// cluster.
	Seed uint64
	// Sequential forces Run and RunScenario onto the single-goroutine engine
	// that executes requests in global arrival order, streaming the load
	// with O(1) workload memory — the oracle the default parallel engine is
	// verified against. Both produce a bit-identical Report (nodes are
	// causally independent after routing).
	Sequential bool
	// Stats selects the latency-digest backend; empty means StatsRaw.
	Stats StatsMode
	// Metrics, when non-nil, collects a per-virtual-window time series
	// (latency quantiles, reclaim/swap activity, RSS, resilience counters,
	// controller actions) during scenario runs; the series lands in
	// ScenarioReport.Metrics. Cluster.Run collects too (it runs a lifted
	// single-phase scenario), but its flat Report does not carry the series.
	Metrics *metrics.Config
}

// DefaultConfig returns an 8-node, 16-shard Redis-on-Glibc cluster of 8 GB
// machines — small nodes are the realistic cluster shape, and they let the
// pressure generators bite without hour-long fills.
func DefaultConfig() Config {
	kcfg := kernel.DefaultConfig()
	kcfg.TotalMemory = 8 << 30
	kcfg.SwapBytes = 8 << 30
	return Config{
		Nodes:     8,
		Shards:    16,
		Replicas:  64,
		Kernel:    kcfg,
		Allocator: AllocGlibc,
		Hermes:    core.DefaultConfig(),
		Seed:      1,
	}
}

// Validate reports whether the configuration is well-formed.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Shards <= 0 || c.Replicas <= 0 {
		return fmt.Errorf("cluster: bad geometry: nodes=%d shards=%d replicas=%d", c.Nodes, c.Shards, c.Replicas)
	}
	if c.ShardReplicas < 0 {
		return fmt.Errorf("cluster: ShardReplicas must be >= 0 (got %d; 0 or 1 means unreplicated)", c.ShardReplicas)
	}
	if c.ShardReplicas > c.Nodes {
		return fmt.Errorf("cluster: ShardReplicas %d exceeds the %d-node fleet (a chain needs distinct nodes)", c.ShardReplicas, c.Nodes)
	}
	if err := c.Kernel.Validate(); err != nil {
		return fmt.Errorf("cluster: Kernel: %w", err)
	}
	switch c.Allocator {
	case AllocGlibc, AllocJemalloc, AllocTCMalloc, AllocHermes:
	default:
		return fmt.Errorf("cluster: unknown allocator kind %q", c.Allocator)
	}
	switch c.Service() {
	case ServiceRedis, ServiceRocksdb:
	default:
		return fmt.Errorf("cluster: unknown service kind %q", c.ServiceKind)
	}
	switch c.StatsBackend() {
	case StatsRaw, StatsHistogram:
	default:
		return fmt.Errorf("cluster: unknown stats mode %q", c.Stats)
	}
	if c.Metrics != nil {
		if err := c.Metrics.Validate(); err != nil {
			return fmt.Errorf("cluster: Metrics: %w", err)
		}
	}
	if c.Pressure != nil {
		if err := c.Pressure.Validate(); err != nil {
			return fmt.Errorf("cluster: Pressure: %w", err)
		}
	}
	if c.Batch != nil {
		if err := c.Batch.Validate(); err != nil {
			return fmt.Errorf("cluster: Batch: %w", err)
		}
	}
	if c.Daemon != nil {
		if err := c.Daemon.Validate(); err != nil {
			return fmt.Errorf("cluster: Daemon: %w", err)
		}
	}
	return nil
}

// StatsBackend resolves the configured stats mode, defaulting to StatsRaw
// so the zero Config value works.
func (c Config) StatsBackend() StatsMode {
	if c.Stats == "" {
		return StatsRaw
	}
	return c.Stats
}

// newRecorder builds a latency recorder in the cluster's configured mode.
func (c *Cluster) newRecorder(name string) *stats.Recorder {
	if c.cfg.StatsBackend() == StatsHistogram {
		return stats.NewStreamingRecorder(name)
	}
	return stats.NewRecorder(name)
}

// Shard is one service shard: a Service plus its allocator on each node of
// its replica chain (just the primary when the cluster is unreplicated),
// with its own latency digest.
type Shard struct {
	// ID is the shard index in [0, Config.Shards).
	ID int

	node *Node
	svc  services.Service
	rec  *stats.Recorder

	// instances holds the shard's placements down the replica chain;
	// instances[0] is the primary (node, svc above). Failover serves on
	// the first instance whose node is in rotation.
	instances []shardInstance

	requests int64
	reads    int64
	writes   int64
}

// shardInstance is one placement of a shard: a full service instance on
// one node of the shard's replica chain.
type shardInstance struct {
	node *Node
	svc  services.Service
}

// Node returns the machine hosting the shard's primary.
func (s *Shard) Node() *Node { return s.node }

// Service returns the shard's primary service instance.
func (s *Shard) Service() services.Service { return s.svc }

// Replica returns the shard's service instance at chain position i (0 is
// the primary).
func (s *Shard) Replica(i int) services.Service { return s.instances[i].svc }

// ReplicaCount returns the length of the shard's replica chain.
func (s *Shard) ReplicaCount() int { return len(s.instances) }

// Recorder returns the shard's latency digest (accumulated across runs).
func (s *Shard) Recorder() *stats.Recorder { return s.rec }

// Requests, Reads and Writes count the operations the shard has served
// across all runs.
func (s *Shard) Requests() int64 { return s.requests }

// Reads counts the read operations the shard has served.
func (s *Shard) Reads() int64 { return s.reads }

// Writes counts the write operations the shard has served.
func (s *Shard) Writes() int64 { return s.writes }

// Node is one simulated machine of the cluster: its own scheduler and
// kernel (so node clocks advance independently between requests), the
// shards placed on it, and the optional co-located pressure generator and
// monitor daemon.
type Node struct {
	// Index is the node's position in the cluster; Name is "node-<index>".
	Index int
	Name  string

	sched    *simtime.Scheduler
	kernel   *kernel.Kernel
	shards   []*Shard
	rec      *stats.Recorder
	registry *monitor.Registry
	daemon   *monitor.Daemon
	pressure *workload.Pressure
	runner   *batch.Runner
	refresh  *simtime.PeriodicTask
	squeeze  *kernel.Process
	// hermes lists the node's hermes allocators (creation order) so the
	// adaptive control plane can retune their policy mid-run; empty for
	// every other allocator kind.
	hermes  []*core.Hermes
	closers []func()
}

// Kernel returns the node's simulated memory subsystem.
func (n *Node) Kernel() *kernel.Kernel { return n.kernel }

// Scheduler returns the node's virtual clock.
func (n *Node) Scheduler() *simtime.Scheduler { return n.sched }

// Now returns the node's current virtual time.
func (n *Node) Now() simtime.Time { return n.sched.Now() }

// Shards returns the shards placed on this node.
func (n *Node) Shards() []*Shard { return n.shards }

// Cluster owns the fleet. Construction places every shard; Run drives the
// fleet with an open-loop load and returns the digests.
type Cluster struct {
	cfg    Config
	router *ShardRouter
	nodes  []*Node
	shards []*Shard
	// chains[s] is shard s's replica chain (node indices, primary first),
	// precomputed so failover routing never rebuilds it per request.
	chains [][]int
}

// New boots the fleet: N nodes (each with a derived kernel seed), the shard
// placement, one allocator + service per shard, and the optional per-node
// pressure generators and monitor daemons.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{cfg: cfg}
	names := make([]string, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		names[i] = fmt.Sprintf("node-%02d", i)
		kcfg := cfg.Kernel
		// Every node owns sub-seed i of the cluster seed; all of the
		// node's streams (kernel jitter, pressure, …) split again from it,
		// so no two nodes — and no two subsystems — ever share a sequence.
		kcfg.Seed = randgen.SplitSeed(cfg.Seed, uint64(i))
		sched := simtime.NewScheduler()
		n := &Node{
			Index:  i,
			Name:   names[i],
			sched:  sched,
			kernel: kernel.New(sched, kcfg),
			rec:    c.newRecorder(names[i]),
		}
		if cfg.Allocator == AllocHermes {
			n.registry = monitor.NewRegistry()
		}
		c.nodes = append(c.nodes, n)
	}
	c.router = NewShardRouter(names, cfg.Shards, cfg.Replicas)

	chainLen := cfg.ShardReplicas
	if chainLen < 1 {
		chainLen = 1
	}
	c.chains = make([][]int, cfg.Shards)
	for id := 0; id < cfg.Shards; id++ {
		c.chains[id] = c.router.ReplicaChain(id, chainLen)
		n := c.nodes[c.chains[id][0]]
		name := fmt.Sprintf("shard-%02d", id)
		svc := c.newShardService(n, name)
		sh := &Shard{ID: id, node: n, svc: svc, rec: c.newRecorder(name)}
		sh.instances = append(sh.instances, shardInstance{node: n, svc: svc})
		// Replica instances boot right after their primary, in chain
		// order — shard-major creation keeps every node's process/file
		// birth sequence (and thus seed replay) deterministic.
		for ci, node := range c.chains[id][1:] {
			rn := c.nodes[node]
			rsvc := c.newShardService(rn, fmt.Sprintf("%s-r%d", name, ci+1))
			sh.instances = append(sh.instances, shardInstance{node: rn, svc: rsvc})
		}
		n.shards = append(n.shards, sh)
		c.shards = append(c.shards, sh)
	}

	// Background machinery starts after the shards exist so daemon and
	// co-tenants see the final process set. The start order — batch
	// runner, pressure generator, registry refresh, daemon — fixes the
	// scheduler's same-instant tie-break sequence and must not change.
	for _, n := range c.nodes {
		if cfg.Batch != nil {
			c.startBatchRunner(n, *cfg.Batch)
		}
		if cfg.Pressure != nil {
			c.startPressure(n, *cfg.Pressure)
		}
		c.attachBatchRefresh(n)
		if cfg.Daemon != nil && n.registry != nil {
			c.startDaemon(n, *cfg.Daemon)
		}
	}
	return c
}

// startBatchRunner launches churning batch co-tenants on the node and
// routes kernel OOM to them.
func (c *Cluster) startBatchRunner(n *Node, bcfg batch.Config) {
	n.runner = batch.NewRunner(n.kernel, bcfg)
	n.kernel.SetOOMHandler(n.runner.HandleOOM)
}

// stopBatchRunner halts the node's batch co-tenants and their registry
// refresh; a no-op when none run.
func (c *Cluster) stopBatchRunner(n *Node) {
	if n.refresh != nil {
		n.refresh.Stop()
		n.refresh = nil
	}
	if n.runner != nil {
		n.runner.Stop()
		n.runner = nil
		n.kernel.SetOOMHandler(nil)
	}
}

// startPressure launches a pressure generator on the node and registers it
// with the monitor registry (batch jobs are the daemon's targets).
func (c *Cluster) startPressure(n *Node, pcfg workload.PressureConfig) {
	n.pressure = workload.StartPressure(n.kernel, pcfg)
	if n.registry != nil {
		n.registry.AddBatch(n.pressure.PID())
	}
}

// stopPressure halts the node's pressure generator; a no-op when none runs.
func (c *Cluster) stopPressure(n *Node) {
	if n.pressure == nil {
		return
	}
	pid := n.pressure.PID()
	n.pressure.Stop()
	n.pressure = nil
	if n.registry == nil {
		return
	}
	// Deregister only if the dead generator left no resident cache: file
	// pressure's working set stays cached after Stop, and the daemon can
	// only release cache owned by registered batch PIDs — the same
	// invariant the batch refresh prune keeps for churned containers.
	for _, f := range n.kernel.FilesOwnedBy(pid) {
		if !f.Deleted() && f.CachedPages() > 0 {
			return
		}
	}
	n.registry.RemoveBatch(pid)
}

// attachBatchRefresh wires the administrator's periodic batch registration
// (§3.3) for a node running both a registry and a batch runner; a no-op
// otherwise, or when already attached.
func (c *Cluster) attachBatchRefresh(node *Node) {
	if node.registry == nil || node.runner == nil || node.refresh != nil {
		return
	}
	// The administrator registers batch containers; containers churn, so
	// the registration refreshes periodically (§3.3).
	cacheOwners := make(map[kernel.PID]bool)
	register := func() {
		for _, pid := range node.runner.PIDs() {
			node.registry.AddBatch(pid)
		}
		for _, pid := range node.runner.InputFilePIDs() {
			node.registry.AddBatch(pid)
		}
		// Prune churned containers so the registry doesn't grow
		// without bound — but keep dead PIDs that still own cached
		// files: completed jobs leave their input cache resident
		// (§2.3) and the daemon must stay able to release it. One
		// pass over the node's files finds those owners.
		clear(cacheOwners)
		for _, f := range node.kernel.Files() {
			if f.CachedPages() > 0 {
				cacheOwners[f.OwnerPID] = true
			}
		}
		for _, pid := range node.registry.BatchPIDs() {
			if p := node.kernel.Process(pid); p != nil && !p.Dead() {
				continue
			}
			if !cacheOwners[pid] {
				node.registry.RemoveBatch(pid)
			}
		}
	}
	register()
	node.refresh = simtime.NewPeriodicTask(node.sched, 500*simtime.Millisecond,
		func(simtime.Time) simtime.Duration {
			register()
			return 10 * simtime.Microsecond
		})
}

// startDaemon launches the monitor daemon on the node (requires a
// registry, i.e. the Hermes allocator).
func (c *Cluster) startDaemon(n *Node, dcfg monitor.Config) {
	n.daemon = monitor.NewDaemon(n.kernel, n.registry, dcfg)
}

// stopDaemon halts the node's daemon; a no-op when none runs.
func (c *Cluster) stopDaemon(n *Node) {
	if n.daemon != nil {
		n.daemon.Stop()
		n.daemon = nil
	}
}

// Service resolves the configured service kind, defaulting to Redis so the
// zero Config value works.
func (c Config) Service() ServiceKind {
	if c.ServiceKind == "" {
		return ServiceRedis
	}
	return c.ServiceKind
}

// newShardService boots one service instance (and its allocator) for a
// shard placement on node n, registering both with the node's closers.
func (c *Cluster) newShardService(n *Node, name string) services.Service {
	a := c.newAllocator(n, name)
	var svc services.Service
	switch c.cfg.Service() {
	case ServiceRedis:
		svc = services.NewRedis(n.kernel, a, services.RedisCosts())
	case ServiceRocksdb:
		svc = services.NewRocksdb(n.kernel, a, services.RocksdbCosts(),
			services.DefaultRocksdbConfig(), name)
	}
	n.closers = append(n.closers, svc.Close, a.Close)
	return svc
}

func (c *Cluster) newAllocator(n *Node, name string) alloc.Allocator {
	switch c.cfg.Allocator {
	case AllocJemalloc:
		return jemalloc.New(n.kernel, name, jemalloc.DefaultConfig())
	case AllocTCMalloc:
		return tcmalloc.New(n.kernel, name, tcmalloc.DefaultConfig())
	case AllocHermes:
		h := core.NewWithRegistry(n.kernel, name, c.cfg.Hermes, n.registry, true)
		n.hermes = append(n.hermes, h)
		return h
	default:
		return glibcmalloc.New(n.kernel, name, glibcmalloc.DefaultConfig())
	}
}

// Router returns the shard router.
func (c *Cluster) Router() *ShardRouter { return c.router }

// Nodes returns the fleet.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Shard returns shard id.
func (c *Cluster) Shard(id int) *Shard { return c.shards[id] }

// Advance moves every node's clock forward by d in lockstep, running each
// node's background machinery.
func (c *Cluster) Advance(d simtime.Duration) {
	for _, n := range c.nodes {
		n.sched.Advance(d)
	}
}

// Close stops pressure generators, batch runners, daemons, squeezes,
// services and allocators on every node.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		c.stopPressure(n)
		c.stopBatchRunner(n)
		c.stopDaemon(n)
		if n.squeeze != nil {
			n.kernel.ExitProcess(n.squeeze)
			n.squeeze = nil
		}
		for _, f := range n.closers {
			f()
		}
		n.closers = nil
	}
}

// NodeReport is one node's slice of a Report.
type NodeReport struct {
	Name    string
	Shards  int
	Latency stats.Summary
	Kernel  kernel.Stats
	// Topology dynamics (all zero on runs without kill/restore events).
	// Downtime is the node's total time out of rotation; Failovers counts
	// requests this node served in place of a down primary; Dropped
	// counts requests bound for this node that were discarded (no live
	// replica, or a kill-node drop policy severing the backlog);
	// MigratedBytes is what restores re-filled into this node's shards.
	Downtime      simtime.Duration
	Failovers     int64
	Dropped       int64
	MigratedBytes int64
	// Resilience layer (all zero on runs without one). Retries counts
	// retry attempts that actually fired on this node; Timeouts counts
	// served attempts whose latency beat their class deadline; Errors
	// counts attempts failed fast by a fault window; Hedges counts
	// speculative read hedges this node served; Shed counts attempts its
	// admission controller rejected; Failed counts request chains that
	// exhausted every attempt without a success.
	Retries  int64
	Timeouts int64
	Errors   int64
	Hedges   int64
	Shed     int64
	Failed   int64
	// SLOCompliance is the fraction of this node's served requests within
	// the scenario's SLO target (1 when no SLO is declared).
	SLOCompliance float64
	// Actions is the node's controller action log in firing order (empty
	// on runs without a policies block).
	Actions []ControllerAction
}

// Report is the digest of one cluster run.
type Report struct {
	// Allocator, Service and Stats echo the configuration the run used.
	Allocator AllocatorKind
	Service   ServiceKind
	Stats     StatsMode
	// Requests is the number of requests served (Reads + Writes).
	Requests int64
	Reads    int64
	Writes   int64
	// Cluster is the cluster-wide latency digest (queue wait + service).
	Cluster stats.Summary
	// Wait is the cluster-wide queueing-delay digest: the open-loop
	// symptom of an overloaded or pressure-stalled node.
	Wait stats.Summary
	// Failovers, Dropped and MigratedBytes are the cluster-wide topology
	// dynamics totals (the sums of the per-node columns; zero on runs
	// without kill/restore events). Dropped requests are generated but
	// never served, so they are excluded from Requests.
	Failovers     int64
	Dropped       int64
	MigratedBytes int64
	// Resilience totals (sums of the per-node columns; zero on runs
	// without a resilience layer). Errored, shed and timed-out attempts
	// are never double-counted in Requests: a request chain contributes
	// at most one successful serve plus any hedges.
	Retries  int64
	Timeouts int64
	Errors   int64
	Hedges   int64
	Shed     int64
	Failed   int64
	// SLOTarget echoes the scenario's p99 objective (0 = none declared);
	// SLOCompliance is the fraction of served requests at or under it.
	SLOTarget     simtime.Duration
	SLOCompliance float64
	// Actions is the cluster-wide controller action log, merged across
	// nodes by virtual instant (empty on runs without a policies block).
	Actions []ControllerAction
	// PerNode and PerShard are the sliced digests.
	PerNode  []NodeReport
	PerShard []stats.Summary
}

// resilienceActive reports whether the run carried a resilience layer.
func (r Report) resilienceActive() bool {
	return r.Retries > 0 || r.Timeouts > 0 || r.Errors > 0 || r.Hedges > 0 ||
		r.Shed > 0 || r.Failed > 0 || r.SLOTarget > 0
}

// Render prints the report in the repo's table style.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster run: allocator=%s service=%s requests=%d (reads=%d writes=%d)\n",
		r.Allocator, r.Service, r.Requests, r.Reads, r.Writes)
	fmt.Fprintf(&b, "%s\n", r.Cluster)
	fmt.Fprintf(&b, "%s\n", r.Wait)
	if r.Failovers > 0 || r.Dropped > 0 || r.MigratedBytes > 0 {
		fmt.Fprintf(&b, "topology: failovers=%d dropped=%d migrated=%s\n",
			r.Failovers, r.Dropped, fmtBytes(r.MigratedBytes))
	}
	if r.resilienceActive() {
		fmt.Fprintf(&b, "resilience: retries=%d timeouts=%d errors=%d hedges=%d shed=%d failed=%d\n",
			r.Retries, r.Timeouts, r.Errors, r.Hedges, r.Shed, r.Failed)
		if r.SLOTarget > 0 {
			fmt.Fprintf(&b, "slo: p99<=%v compliance=%.2f%%\n", r.SLOTarget, r.SLOCompliance*100)
		}
	}
	if len(r.Actions) > 0 {
		b.WriteString(renderActions("controller", r.Actions))
	}
	b.WriteString("per node:\n")
	for _, n := range r.PerNode {
		fmt.Fprintf(&b, "  %s  shards=%-3d reclaims=%-6d swapouts=%-8d %s\n",
			n.Name, n.Shards, n.Kernel.DirectReclaims, n.Kernel.PagesSwapOut, n.Latency)
		if n.Downtime > 0 || n.Failovers > 0 || n.Dropped > 0 || n.MigratedBytes > 0 {
			fmt.Fprintf(&b, "    topology: downtime=%v failovers=%d dropped=%d migrated=%s\n",
				n.Downtime, n.Failovers, n.Dropped, fmtBytes(n.MigratedBytes))
		}
		if n.Retries > 0 || n.Timeouts > 0 || n.Errors > 0 || n.Hedges > 0 || n.Shed > 0 || n.Failed > 0 || r.SLOTarget > 0 {
			fmt.Fprintf(&b, "    resilience: retries=%d timeouts=%d errors=%d hedges=%d shed=%d failed=%d compliance=%.2f%%\n",
				n.Retries, n.Timeouts, n.Errors, n.Hedges, n.Shed, n.Failed, n.SLOCompliance*100)
		}
		if len(n.Actions) > 0 {
			b.WriteString("    " + renderActions("controller", n.Actions))
		}
	}
	b.WriteString("per shard:\n")
	for _, s := range r.PerShard {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}

// renderActions renders one action-log summary line: total plus per-kind
// counts.
func renderActions(label string, acts []ControllerAction) string {
	var shed, batch, alc, wm int
	for _, a := range acts {
		switch a.Kind {
		case ActionShed:
			shed++
		case ActionBatch:
			batch++
		case ActionAllocator:
			alc++
		case ActionWatermark:
			wm++
		}
	}
	return fmt.Sprintf("%s: actions=%d (shed=%d batch=%d allocator=%d watermark=%d)\n",
		label, len(acts), shed, batch, alc, wm)
}

// fmtBytes renders a byte count at MiB/KiB/B granularity for report tables.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// runState holds one run's run-local digests: one latency recorder and
// read/write counter pair per shard INSTANCE, and one queue-wait recorder
// plus read/write counters per node. Everything a request records lands in
// state owned by its serving node — with failover the instances of one
// shard live on different nodes, so shard-level digests are only assembled
// at finish — which lets concurrent node goroutines fill the slices
// without sharing.
type runState struct {
	shard [][]*stats.Recorder // indexed by shard ID, chain position
	ops   [][]opCounters      // indexed by shard ID, chain position
	wait  []*stats.Recorder   // indexed by node index
	node  []nodeCounters      // indexed by node index
	// degrade is the per-node service-slowdown schedule compiled from
	// degrade-node/heal-node events; nil on every run without them. The
	// factor is looked up at service start on the node's own clock, so the
	// verdict is node-local.
	degrade [][]factorWindow
}

// opCounters tallies one shard instance's operations. Padded to a cache
// line: instances of different shards are served by different node
// goroutines every request, and unpadded 16-byte counters packed into
// adjacent lines turn those independent increments into cross-core
// line bouncing.
type opCounters struct {
	reads, writes int64
	_             [48]byte
}

// nodeCounters tallies one node's operations, padded for the same reason as
// opCounters: every node goroutine increments its own entry on every
// request.
type nodeCounters struct {
	reads, writes int64
	_             [48]byte
}

func (c *Cluster) newRunState() *runState {
	st := &runState{
		shard: make([][]*stats.Recorder, len(c.shards)),
		ops:   make([][]opCounters, len(c.shards)),
		wait:  make([]*stats.Recorder, len(c.nodes)),
		node:  make([]nodeCounters, len(c.nodes)),
	}
	for i, sh := range c.shards {
		st.shard[i] = make([]*stats.Recorder, len(sh.instances))
		for inst := range sh.instances {
			st.shard[i][inst] = c.newRecorder(sh.rec.Name())
		}
		st.ops[i] = make([]opCounters, len(sh.instances))
	}
	for i, n := range c.nodes {
		st.wait[i] = c.newRecorder(n.Name + "/wait")
	}
	return st
}

// serveOn executes one request on a replica-chain instance of its shard: 0
// is the primary (every request without topology events), >0 a failover
// target whose node stands in for a down primary. It runs background
// machinery up to the arrival, measures queueing delay, performs the
// operation, and occupies the node for the raw service time. Each node is
// modelled as a single-threaded server (the event-loop discipline of Redis
// itself): a request that arrives while its node is still busy queues, and
// its recorded latency is queueing delay plus jittered service time. The
// request's full cost lands on the serving node's clock and digests; the
// returned latency is what was recorded, so callers can segment it into
// additional digests.
func (c *Cluster) serveOn(st *runState, shardID, inst int, req workload.Request) simtime.Duration {
	sh := c.shards[shardID]
	in := sh.instances[inst]
	n := in.node
	if req.At.After(n.sched.Now()) {
		// Idle until the arrival: run background machinery up to it.
		n.sched.RunUntil(req.At)
	}
	wait := n.sched.Now().Sub(req.At) // >0 when the server was busy
	var raw simtime.Duration
	preMapped := false
	switch req.Op {
	case workload.OpWrite:
		raw = in.svc.Insert(req.Key, req.ValueBytes)
		preMapped = in.svc.LastPreMapped()
		st.ops[shardID][inst].writes++
		st.node[n.Index].writes++
	case workload.OpRead:
		raw = in.svc.Read(req.Key)
		st.ops[shardID][inst].reads++
		st.node[n.Index].reads++
	}
	if st.degrade != nil {
		// A degraded node does the same work slower: the whole raw service
		// cost stretches by the window's factor before jitter and clock
		// occupancy, as if the CPU were clocked down.
		if f := degradeFactorAt(st.degrade[n.Index], n.sched.Now()); f != 1 {
			raw = simtime.Duration(float64(raw) * f)
		}
	}
	// The server occupies the node for the raw service time; the client
	// observes queueing plus the jittered service time. The shard's
	// cumulative counters fold in at finish — with failover another node's
	// goroutine may be serving a different instance of this shard right now.
	lat := wait + workload.JitterRequest(n.kernel, raw, preMapped)
	n.sched.Advance(raw)
	st.shard[shardID][inst].Record(lat)
	st.wait[n.Index].Record(wait)
	return lat
}

// finish settles the fleet on a common horizon, merges the run-local
// digests into the persistent shard and node recorders, and assembles the
// Report. Merge order is canonical — shards in ID order within a node,
// nodes in index order across the cluster — so the Report is a pure
// function of the per-node execution results, independent of which engine
// produced them.
func (c *Cluster) finish(st *runState) Report {
	// Settle the fleet on a common horizon so background work (management
	// threads, kswapd, daemons) finishes the same window on every node.
	var horizon simtime.Time
	for _, n := range c.nodes {
		if n.sched.Now().After(horizon) {
			horizon = n.sched.Now()
		}
	}
	for _, n := range c.nodes {
		n.sched.RunUntil(horizon)
	}

	// Fold the per-instance run counters into the shards' cumulative
	// counters (single-threaded here; the hot path never touches them) and
	// assemble each shard's digest from its instances in chain order.
	shardRecs := make([]*stats.Recorder, len(c.shards))
	for id, sh := range c.shards {
		rec := c.newRecorder(sh.rec.Name())
		for inst := range sh.instances {
			rec.Merge(st.shard[id][inst])
			sh.reads += st.ops[id][inst].reads
			sh.writes += st.ops[id][inst].writes
			sh.requests += st.ops[id][inst].reads + st.ops[id][inst].writes
		}
		shardRecs[id] = rec
		sh.rec.Merge(rec)
	}

	report := Report{Allocator: c.cfg.Allocator, Service: c.cfg.Service(), Stats: c.cfg.StatsBackend()}
	clusterRec := c.newRecorder("cluster")
	waitRec := c.newRecorder("queue-wait")
	var total int
	for _, recs := range st.shard {
		for _, rec := range recs {
			total += rec.Count()
		}
	}
	clusterRec.Reserve(total)
	for i, n := range c.nodes {
		// A node's digest covers what it actually served: the shard
		// instances it hosts, primaries and failover replicas alike, in
		// (shard, chain-position) order.
		runNode := c.newRecorder(n.Name)
		nodeTotal := 0
		for _, sh := range c.shards {
			for inst := range sh.instances {
				if sh.instances[inst].node == n {
					nodeTotal += st.shard[sh.ID][inst].Count()
				}
			}
		}
		runNode.Reserve(nodeTotal)
		for _, sh := range c.shards {
			for inst := range sh.instances {
				if sh.instances[inst].node == n {
					runNode.Merge(st.shard[sh.ID][inst])
				}
			}
		}
		n.rec.Merge(runNode)
		clusterRec.Merge(runNode)
		waitRec.Merge(st.wait[i])
		report.Reads += st.node[i].reads
		report.Writes += st.node[i].writes
		report.PerNode = append(report.PerNode, NodeReport{
			Name:    n.Name,
			Shards:  len(n.shards),
			Latency: runNode.Summarize(),
			Kernel:  n.kernel.Stats(),
		})
	}
	report.Requests = report.Reads + report.Writes
	report.Cluster = clusterRec.Summarize()
	report.Wait = waitRec.Summarize()
	for i := range c.shards {
		report.PerShard = append(report.PerShard, shardRecs[i].Summarize())
	}
	return report
}

// Run drives the fleet with the open-loop stream described by load and
// returns the digests. Requests are generated deterministically, each
// node's clock advances monotonically, and every random draw comes from a
// seeded per-node stream — so one (config, load) pair reproduces the run
// exactly, whichever way it is dispatched.
//
// Run is a thin adapter over the scenario layer: the load is lifted onto a
// single-phase, single-class Scenario (ScenarioFromLoad) and executed by
// RunScenario. The lifted class reuses the canonical load-driver stream,
// so the request sequence is exactly the LoadDriver's. By default every
// node serves its sub-stream on its own goroutine: through the chunk
// pipeline, or at GOMAXPROCS=1 through a whole-run partition of bare
// requests. Nodes are causally independent after routing — a request only
// ever touches its own node's scheduler, kernel, RNG and shards — so the
// merged Report is bit-identical to the one Config.Sequential produces by
// interleaving all nodes in global arrival order on one goroutine.
// TestReportGoldens pins all three dispatches to committed bytes.
//
// Run may be called repeatedly with successive streams. Every digest in
// the returned Report covers exactly that run (PerNode and PerShard sum to
// Cluster); the shard and node Recorders keep accumulating across runs for
// callers inspecting the whole history.
func (c *Cluster) Run(load workload.LoadConfig) Report {
	rep, err := c.RunScenario(workload.ScenarioFromLoad(load))
	if err != nil {
		panic(err)
	}
	return rep.Report
}
