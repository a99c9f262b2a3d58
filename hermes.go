// Package hermes is the public API of the Hermes reproduction: a
// deterministic discrete-event simulation of the GNU/Linux memory stack
// (Glibc's ptmalloc, the kernel's page-reclaim machinery, an HDD) together
// with Hermes — the library-level fast memory allocation mechanism for
// latency-critical services from "Memory at Your Service" (Middleware'21) —
// plus the baseline allocators, services, and workloads of the paper's
// evaluation.
//
// The quickest way in:
//
//	node := hermes.NewNode(hermes.DefaultNodeConfig())
//	a := node.NewHermesAllocator("my-service")
//	b, cost := a.Malloc(node.Now(), 1024)
//	cost += a.Touch(node.Now().Add(cost), b)
//	node.Advance(cost)
//
// Every figure and table of the paper regenerates through the Experiments
// entry points (Fig2 … Fig16, Table1); see EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Beyond the single-node evaluation, the cluster layer scales the
// simulation to a fleet: NewCluster boots N nodes with service shards
// placed by a consistent-hashing ShardRouter, and Cluster.RunScenario
// drives them with a declarative Scenario — ordered phases of traffic
// classes (each with its own key space, skew, mix and value sizes) under
// ramp/spike/diurnal rate shaping, plus a virtual-time event timeline
// (pressure storms, batch churn, daemon toggles, memory squeezes, node
// kills and restores with replica failover and live shard migration) —
// producing phase-, class-, shard- and node-segmented latency digests.
// Cluster.Run is the single-phase shorthand for a flat LoadConfig. All of
// it is deterministic: one seed reproduces a whole cluster run. See
// docs/ARCHITECTURE.md for the layering.
package hermes

import (
	"io"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/alloc/glibcmalloc"
	"github.com/hermes-sim/hermes/internal/alloc/jemalloc"
	"github.com/hermes-sim/hermes/internal/alloc/tcmalloc"
	"github.com/hermes-sim/hermes/internal/batch"
	"github.com/hermes-sim/hermes/internal/cluster"
	"github.com/hermes-sim/hermes/internal/core"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/metrics"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/services"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
	"github.com/hermes-sim/hermes/internal/workload"
)

// Core simulation types, re-exported for use through the public API.
type (
	// Time is an instant of virtual time (ns since simulation start).
	Time = simtime.Time
	// Duration is a span of virtual time.
	Duration = simtime.Duration

	// Allocator is the malloc-library abstraction: Glibc, jemalloc,
	// TCMalloc and Hermes all implement it.
	Allocator = alloc.Allocator
	// Block is an allocated range.
	Block = alloc.Block

	// HermesAllocator is the paper's contribution with its management
	// thread and segregated pool.
	HermesAllocator = core.Hermes
	// HermesConfig tunes Hermes (reservation factor, interval, min_rsv).
	HermesConfig = core.Config

	// Registry is the daemon's shared-memory process registry.
	Registry = monitor.Registry
	// Daemon is the memory monitor daemon (proactive reclamation).
	Daemon = monitor.Daemon
	// DaemonConfig tunes the daemon.
	DaemonConfig = monitor.Config

	// Service is the latency-critical-service abstraction (Redis-like and
	// RocksDB-like stores).
	Service = services.Service

	// Pressure is a running memory-pressure generator.
	Pressure = workload.Pressure
	// PressureConfig tunes a generator.
	PressureConfig = workload.PressureConfig
	// BatchConfig tunes a node's churning batch-job co-tenants.
	BatchConfig = batch.Config

	// Recorder accumulates latency samples; Summary is its percentile
	// digest.
	Recorder = stats.Recorder
	// Summary is the avg/p75/p90/p95/p99 digest of a Recorder.
	Summary = stats.Summary
	// Histogram is the streaming log-bucketed latency digest backing
	// histogram-mode Recorders: O(1) record, bounded memory, ≤1% relative
	// percentile error.
	Histogram = stats.Histogram

	// KernelConfig configures the simulated node's memory subsystem.
	KernelConfig = kernel.Config
	// CostModel is the virtual-time cost table.
	CostModel = kernel.CostModel

	// Cluster is a fleet of simulated nodes with sharded services on one
	// virtual timeline; ClusterConfig describes it and ClusterReport is a
	// run's digest.
	Cluster = cluster.Cluster
	// ClusterConfig configures a cluster (nodes, shards, allocator,
	// service, optional per-node pressure and daemon).
	ClusterConfig = cluster.Config
	// ClusterNode is one machine of a cluster.
	ClusterNode = cluster.Node
	// ClusterReport digests one cluster run (cluster-wide, per-node and
	// per-shard latency summaries).
	ClusterReport = cluster.Report
	// ShardRouter is the consistent-hashing key→shard→node router.
	ShardRouter = cluster.ShardRouter
	// AllocatorKind names one of the four malloc libraries.
	AllocatorKind = cluster.AllocatorKind
	// ServiceKind names one of the two services.
	ServiceKind = cluster.ServiceKind
	// StatsMode selects the cluster's latency-digest backend: exact raw
	// samples or bounded-memory streaming histograms.
	StatsMode = cluster.StatsMode

	// LoadConfig tunes the open-loop cluster workload generator;
	// LoadDriver is the generator and Request one generated request.
	LoadConfig = workload.LoadConfig
	LoadDriver = workload.LoadDriver
	Request    = workload.Request

	// Scenario is the declarative description of a whole cluster
	// experiment: ordered phases of traffic classes plus a virtual-time
	// event timeline, all reproduced exactly by one seed. Run one with
	// Cluster.RunScenario.
	Scenario = workload.Scenario
	// ScenarioPhase is one stage of a scenario: traffic classes driven
	// under a rate shape until a duration elapses or a request budget is
	// spent.
	ScenarioPhase = workload.Phase
	// TrafficClass is one independent request population inside a phase
	// (its own key space, skew, mix, value sizes and randgen stream).
	TrafficClass = workload.TrafficClass
	// RateShape modulates a phase's arrival rate (constant, ramp, spike
	// or diurnal).
	RateShape = workload.RateShape
	// ShapeKind names a rate-shape curve.
	ShapeKind = workload.ShapeKind
	// ScenarioEvent is one timeline entry (pressure, batch churn, daemon,
	// memory-squeeze or node kill/restore transitions at a virtual
	// instant).
	ScenarioEvent = workload.Event
	// ScenarioEventKind names a timeline action.
	ScenarioEventKind = workload.EventKind
	// KillPolicy selects what a killed node does with its queued backlog
	// (drain it or drop it).
	KillPolicy = workload.KillPolicy
	// Resilience is a traffic class's client-side policy: request
	// timeout, bounded retries with exponential backoff and seeded
	// jitter, and speculative read hedging to a replica.
	Resilience = workload.Resilience
	// SLO declares a scenario's latency objective: a target p99 sampled
	// over a window, reported as per-node and cluster-wide compliance.
	SLO = workload.SLO
	// Policies holds a scenario's SLO-driven control policies, the
	// adaptive control plane's playbook: load shedding, batch-footprint
	// retargeting, hermes reservation switching and kernel watermark
	// retuning, each stepped per node on windowed p99 breaches.
	Policies        = workload.Policies
	ShedPolicy      = workload.ShedPolicy
	BatchPolicy     = workload.BatchPolicy
	AllocatorPolicy = workload.AllocatorPolicy
	WatermarkPolicy = workload.WatermarkPolicy
	// ControllerAction is one logged control-plane decision: what changed
	// on which node at which virtual instant, old value → new value.
	ControllerAction = cluster.ControllerAction
	// ActionKind names one controller reconfiguration action.
	ActionKind = cluster.ActionKind
	// MigrationRecord is one record of a shard-migration batch — the unit
	// Service.ImportRecords ingests and Service.ExportRecords emits.
	MigrationRecord = services.ImportEntry
	// ScenarioDriver generates a scenario's merged request stream.
	ScenarioDriver = workload.ScenarioDriver
	// ScenarioRequest is one generated request annotated with its phase
	// and class.
	ScenarioRequest = workload.ScenarioRequest

	// ScenarioReport digests one scenario run: the base ClusterReport
	// plus per-phase × per-class × per-node latency digests.
	ScenarioReport = cluster.ScenarioReport
	// ScenarioPhaseReport and ScenarioClassReport are its slices.
	ScenarioPhaseReport = cluster.PhaseReport
	ScenarioClassReport = cluster.ClassReport
	// ScenarioSpec is a loaded scenario file: the scenario plus optional
	// cluster-shape hints.
	ScenarioSpec = cluster.ScenarioSpec

	// MetricsConfig enables per-virtual-window time-series collection on a
	// cluster run (set ClusterConfig.Metrics); MetricsSample is one
	// cluster-wide window of the resulting series.
	MetricsConfig = metrics.Config
	MetricsSample = metrics.Sample

	// TimedReport and TimedScenarioReport wrap the run reports with their
	// wall-clock cost — the JSON shapes every CLI emits.
	TimedReport         = cluster.TimedReport
	TimedScenarioReport = cluster.TimedScenarioReport
)

// Allocator and service kinds for ClusterConfig.
const (
	AllocGlibc     = cluster.AllocGlibc
	AllocJemalloc  = cluster.AllocJemalloc
	AllocTCMalloc  = cluster.AllocTCMalloc
	AllocHermes    = cluster.AllocHermes
	ServiceRedis   = cluster.ServiceRedis
	ServiceRocksdb = cluster.ServiceRocksdb
)

// Control-plane action kinds for ControllerAction.Kind.
const (
	ActionShed      = cluster.ActionShed
	ActionBatch     = cluster.ActionBatch
	ActionAllocator = cluster.ActionAllocator
	ActionWatermark = cluster.ActionWatermark
)

// Stats modes for ClusterConfig.Stats.
const (
	StatsRaw       = cluster.StatsRaw
	StatsHistogram = cluster.StatsHistogram
)

// Pressure kinds (Figure 3's two regimes).
const (
	PressureAnon = workload.PressureAnon
	PressureFile = workload.PressureFile
)

// Rate-shape kinds for ScenarioPhase.Shape.
const (
	ShapeConstant = workload.ShapeConstant
	ShapeRamp     = workload.ShapeRamp
	ShapeSpike    = workload.ShapeSpike
	ShapeDiurnal  = workload.ShapeDiurnal
)

// Timeline event kinds for Scenario.Events.
const (
	EventPressureStart = workload.EventPressureStart
	EventPressureStop  = workload.EventPressureStop
	EventBatchStart    = workload.EventBatchStart
	EventBatchStop     = workload.EventBatchStop
	EventDaemonStart   = workload.EventDaemonStart
	EventDaemonStop    = workload.EventDaemonStop
	EventSqueezeStart  = workload.EventSqueezeStart
	EventSqueezeStop   = workload.EventSqueezeStop
	EventKillNode      = workload.EventKillNode
	EventRestoreNode   = workload.EventRestoreNode
	EventDegradeNode   = workload.EventDegradeNode
	EventHealNode      = workload.EventHealNode
	EventFaultWindow   = workload.EventFaultWindow
)

// Backlog policies for kill-node events.
const (
	KillDrain = workload.KillDrain
	KillDrop  = workload.KillDrop
)

// DefaultHermesConfig returns the paper's Hermes settings (§4): 2 ms
// interval, RSV_FACTOR 2, 5 MB min_rsv, 8-bucket segregated list.
func DefaultHermesConfig() HermesConfig { return core.DefaultConfig() }

// DefaultDaemonConfig returns the monitor daemon's evaluation settings.
func DefaultDaemonConfig() DaemonConfig { return monitor.DefaultConfig() }

// DefaultPressureConfig returns a Figure 3 pressure generator config.
func DefaultPressureConfig(kind workload.PressureKind) PressureConfig {
	return workload.DefaultPressureConfig(kind)
}

// DefaultBatchConfig returns the paper's co-location batch workload shape;
// set TargetBytes to the desired pressure level × node memory.
func DefaultBatchConfig() BatchConfig { return batch.DefaultConfig() }

// NodeConfig describes a simulated node.
type NodeConfig struct {
	// Kernel is the memory-subsystem configuration; DefaultNodeConfig
	// uses the paper's 128 GB / HDD testbed.
	Kernel KernelConfig
}

// DefaultNodeConfig returns the paper-testbed node.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{Kernel: kernel.DefaultConfig()}
}

// Node is one simulated machine: a kernel plus its virtual clock. All
// allocators, services, daemons and workloads on a node share them.
type Node struct {
	sched  *simtime.Scheduler
	kernel *kernel.Kernel
}

// NewNode boots a node.
func NewNode(cfg NodeConfig) *Node {
	s := simtime.NewScheduler()
	return &Node{sched: s, kernel: kernel.New(s, cfg.Kernel)}
}

// Kernel exposes the simulated memory subsystem.
func (n *Node) Kernel() *kernel.Kernel { return n.kernel }

// Scheduler exposes the virtual clock.
func (n *Node) Scheduler() *simtime.Scheduler { return n.sched }

// Now returns the current virtual time.
func (n *Node) Now() Time { return n.sched.Now() }

// Advance moves virtual time forward, running background machinery
// (management threads, kswapd, daemons) that falls inside the window.
func (n *Node) Advance(d Duration) { n.sched.Advance(d) }

// NewGlibcAllocator creates a process using the default Glibc model.
func (n *Node) NewGlibcAllocator(name string) Allocator {
	return glibcmalloc.New(n.kernel, name, glibcmalloc.DefaultConfig())
}

// NewJemallocAllocator creates a process using the jemalloc model.
func (n *Node) NewJemallocAllocator(name string) Allocator {
	return jemalloc.New(n.kernel, name, jemalloc.DefaultConfig())
}

// NewTCMallocAllocator creates a process using the TCMalloc model.
func (n *Node) NewTCMallocAllocator(name string) Allocator {
	return tcmalloc.New(n.kernel, name, tcmalloc.DefaultConfig())
}

// NewHermesAllocator creates a latency-critical process using Hermes with
// the paper's default configuration; its management thread starts
// immediately.
func (n *Node) NewHermesAllocator(name string) *HermesAllocator {
	return core.New(n.kernel, name, core.DefaultConfig())
}

// NewHermesAllocatorWith creates a Hermes process with a custom
// configuration, registered (or not) in the given registry — the paper's
// lazy-initialisation handshake.
func (n *Node) NewHermesAllocatorWith(name string, cfg HermesConfig, reg *Registry, latencyCritical bool) *HermesAllocator {
	return core.NewWithRegistry(n.kernel, name, cfg, reg, latencyCritical)
}

// NewRegistry creates a shared-memory process registry.
func (n *Node) NewRegistry() *Registry { return monitor.NewRegistry() }

// StartDaemon launches the memory monitor daemon.
func (n *Node) StartDaemon(reg *Registry, cfg DaemonConfig) *Daemon {
	return monitor.NewDaemon(n.kernel, reg, cfg)
}

// StartPressure launches a Figure 3 pressure generator.
func (n *Node) StartPressure(cfg PressureConfig) *Pressure {
	return workload.StartPressure(n.kernel, cfg)
}

// NewRedis creates the in-memory KV service on the given allocator.
func (n *Node) NewRedis(a Allocator) Service {
	return services.NewRedis(n.kernel, a, services.RedisCosts())
}

// NewRocksdb creates the LSM disk-store service on the given allocator.
// name namespaces its WAL/SST files on the node.
func (n *Node) NewRocksdb(a Allocator, name string) Service {
	return services.NewRocksdb(n.kernel, a, services.RocksdbCosts(),
		services.DefaultRocksdbConfig(), name)
}

// RunMicroBench drives the paper's micro-benchmark (§5.2) on the allocator,
// recording per-request allocation latency into rec.
func (n *Node) RunMicroBench(a Allocator, requestSize, totalBytes int64, rec *Recorder) {
	workload.RunMicroBench(n.kernel, a, workload.MicroBenchConfig{
		RequestSize: requestSize,
		TotalBytes:  totalBytes,
	}, rec)
}

// NewRecorder creates a raw-mode latency recorder labelled name.
func NewRecorder(name string) *Recorder { return stats.NewRecorder(name) }

// NewStreamingRecorder creates a histogram-mode latency recorder: O(1)
// record, memory bounded regardless of sample count, percentiles within
// ≤1% relative error — the right recorder for fleet-scale runs.
func NewStreamingRecorder(name string) *Recorder { return stats.NewStreamingRecorder(name) }

// NewCluster boots a fleet of simulated nodes with the configured shard
// placement; drive it with Cluster.Run. Close releases every node's
// background machinery.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// DefaultClusterConfig returns an 8-node, 16-shard Redis cluster of 8 GB
// machines on the Glibc allocator.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// DefaultLoadConfig returns the default open-loop stream: 1 M requests at
// 50 k req/s, 100 k keys with mild Zipf skew, half reads, 1 KB values.
func DefaultLoadConfig() LoadConfig { return workload.DefaultLoadConfig() }

// NewShardRouter builds a consistent-hashing router over the named nodes.
func NewShardRouter(nodeNames []string, shards, replicas int) *ShardRouter {
	return cluster.NewShardRouter(nodeNames, shards, replicas)
}

// NewLoadDriver creates an open-loop request generator; the same config
// reproduces the identical stream.
func NewLoadDriver(cfg LoadConfig) *LoadDriver { return workload.NewLoadDriver(cfg) }

// NewScenarioDriver creates a scenario's merged request generator; the
// same scenario reproduces the identical stream. Most callers want
// Cluster.RunScenario, which also fires the event timeline.
func NewScenarioDriver(scn Scenario) *ScenarioDriver { return workload.NewScenarioDriver(scn) }

// ScenarioFromLoad lifts a flat LoadConfig onto the scenario surface: one
// request-bounded phase, one class, no events — the exact stream
// Cluster.Run drives.
func ScenarioFromLoad(cfg LoadConfig) Scenario { return workload.ScenarioFromLoad(cfg) }

// ParseScenario decodes and validates a scenario JSON document (durations
// as Go duration strings; see examples/scenarios/).
func ParseScenario(data []byte) (Scenario, error) { return workload.ParseScenario(data) }

// MarshalScenarioJSON encodes a scenario into the spec-file wire format.
func MarshalScenarioJSON(s Scenario) ([]byte, error) { return workload.MarshalScenarioJSON(s) }

// ParseScenarioSpec decodes a scenario spec file: a bare scenario
// document, or one wrapped with optional cluster-shape hints under a
// "cluster" key.
func ParseScenarioSpec(data []byte) (ScenarioSpec, error) { return cluster.ParseScenarioSpec(data) }

// DefaultMetricsConfig samples the time series once per virtual second.
func DefaultMetricsConfig() MetricsConfig { return metrics.DefaultConfig() }

// WriteMetricsJSONL writes a metrics series as JSON-lines (one sample
// object per line); ParseMetricsJSONL reads the stream back.
func WriteMetricsJSONL(w io.Writer, samples []MetricsSample) error {
	return metrics.WriteJSONL(w, samples)
}

// ParseMetricsJSONL reads a JSON-lines metrics stream.
func ParseMetricsJSONL(r io.Reader) ([]MetricsSample, error) { return metrics.ParseJSONL(r) }

// WriteMetricsPrometheus writes a metrics series in Prometheus text
// exposition format, timestamped on the virtual timeline.
func WriteMetricsPrometheus(w io.Writer, samples []MetricsSample) error {
	return metrics.WritePrometheus(w, samples)
}

// ParseMetricsPrometheus validates a Prometheus text-exposition stream and
// returns the number of sample lines — the CI format gate.
func ParseMetricsPrometheus(r io.Reader) (int, error) { return metrics.ParsePrometheus(r) }

// WriteReportJSON writes v as two-space-indented JSON — the single report
// serialization path the CLIs share.
func WriteReportJSON(w io.Writer, v any) error { return cluster.WriteReportJSON(w, v) }

// RenderActionTimeline renders a merged controller decision log as a
// virtual-time-ordered table.
func RenderActionTimeline(acts []ControllerAction) string {
	return cluster.RenderActionTimeline(acts)
}
