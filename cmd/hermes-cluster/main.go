// hermes-cluster drives a sharded multi-node cluster simulation with an
// open-loop keyed workload — or a declarative multi-phase scenario — and
// prints per-shard, per-node and cluster-wide latency digests. With
// several -allocators it repeats the identical scenario per allocator,
// the paper's comparison at cluster scale.
//
// Usage:
//
//	hermes-cluster [-nodes 8] [-shards 16] [-replicas 64] [-shard-replicas 2]
//	               [-allocators glibc,hermes]
//	               [-service redis|rocksdb] [-requests 1000000] [-rate 50000]
//	               [-keys 100000] [-zipf 1.1] [-reads 0.5] [-value 1024]
//	               [-pressure none|anon|file] [-free-mb 300] [-mem-gb 8]
//	               [-daemon] [-seed 1] [-per-shard] [-parallel=true]
//	               [-stats raw|histogram] [-json] [-cpuprofile f]
//	               [-scenario file.json] [-scale 1.0] [-static]
//	               [-metrics-out f.prom|f.jsonl] [-metrics-period 1s]
//
// -scenario loads a declarative scenario spec (phases × traffic classes ×
// timeline events; see examples/scenarios/) and runs it instead of the
// flat flag-built load; the file's optional "cluster" section layers onto
// the flag-built cluster config. -scale multiplies every duration and
// request budget in the loaded scenario — the way to shrink a committed
// preset onto a CI budget. -seed overrides the file's seed when given
// explicitly.
//
// -parallel toggles the per-node engine (on by default; -parallel=false
// runs the sequential oracle, which executes in global arrival order and
// produces a bit-identical report). -stats selects exact raw-sample
// digests or bounded-memory streaming histograms. -json emits the
// machine-readable reports instead of tables. Setting GOMAXPROCS=1 in the
// environment pins the run to one core.
//
// The simulator's speed is measured by the benchmark in benchmark/ (run
// `bash benchmark/run.sh`), by the `go test -bench` benchmarks in the
// repository root, and by hermes-bench -bench-scaling for the multi-core
// curve; this command only reports wall clocks as an aside.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	hermes "github.com/hermes-sim/hermes"
	"github.com/hermes-sim/hermes/internal/metrics"
	"github.com/hermes-sim/hermes/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hermes-cluster:", err)
		os.Exit(1)
	}
}

func run() error {
	nodes := flag.Int("nodes", 8, "node count")
	shards := flag.Int("shards", 16, "service-shard count")
	replicas := flag.Int("replicas", 64, "virtual nodes per machine on the hash ring")
	shardReplicas := flag.Int("shard-replicas", 0, "replicas per shard for kill-node failover (0 or 1 = unreplicated)")
	allocators := flag.String("allocators", "glibc,hermes", "comma-separated allocator kinds: glibc,jemalloc,tcmalloc,hermes")
	service := flag.String("service", "redis", "service kind: redis or rocksdb")
	requests := flag.Int64("requests", 1_000_000, "total requests")
	rate := flag.Float64("rate", 50_000, "mean arrival rate, requests per virtual second")
	keys := flag.Int64("keys", 100_000, "key-space size")
	zipf := flag.Float64("zipf", 1.1, "Zipf key-skew exponent (>1), or 0 for uniform keys")
	reads := flag.Float64("reads", 0.5, "read fraction of the request mix")
	value := flag.Int64("value", 1024, "write payload bytes")
	pressure := flag.String("pressure", "none", "per-node co-tenant pressure: none, anon or file")
	freeMB := flag.Int64("free-mb", 300, "residual free memory the pressure fill leaves per node, MB")
	memGB := flag.Int64("mem-gb", 8, "memory per node, GB")
	daemon := flag.Bool("daemon", false, "run the monitor daemon per node (hermes only)")
	seed := flag.Uint64("seed", 1, "determinism seed")
	perShard := flag.Bool("per-shard", false, "print per-shard digests")
	parallel := flag.Bool("parallel", true, "run nodes on parallel goroutines (off = the sequential oracle)")
	statsMode := flag.String("stats", "raw", "latency digest backend: raw (exact) or histogram (streaming, bounded memory)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON reports instead of tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	scenarioPath := flag.String("scenario", "", "run the scenario spec in this JSON file instead of the flat flag-built load")
	scale := flag.Float64("scale", 1, "multiply the loaded scenario's durations and request budgets by this factor")
	static := flag.Bool("static", false, "strip the scenario's policies block: the static baseline for adaptive comparisons")
	metricsOut := flag.String("metrics-out", "", "write the scenario run's per-window time series to this file (.prom/.txt = Prometheus text exposition, else JSON-lines)")
	metricsPeriod := flag.Duration("metrics-period", time.Second, "virtual-time window width for -metrics-out samples")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := hermes.DefaultClusterConfig()
	cfg.Nodes = *nodes
	cfg.Shards = *shards
	cfg.Replicas = *replicas
	cfg.ShardReplicas = *shardReplicas
	cfg.ServiceKind = hermes.ServiceKind(*service)
	if *memGB > math.MaxInt64>>30 {
		return fmt.Errorf("-mem-gb %d overflows the node's byte count (at most %d)", *memGB, int64(math.MaxInt64>>30))
	}
	cfg.Kernel.TotalMemory = *memGB << 30
	cfg.Kernel.SwapBytes = *memGB << 30
	cfg.Seed = *seed
	cfg.Sequential = !*parallel
	cfg.Stats = hermes.StatsMode(*statsMode)
	switch *pressure {
	case "none":
	case "anon", "file":
		kind := hermes.PressureAnon
		if *pressure == "file" {
			kind = hermes.PressureFile
		}
		// Checked in MB, where neither side can overflow: at or above the
		// node's memory the fill has nothing to consume and the run would
		// report no pressure at all.
		if *freeMB <= 0 || *freeMB >= *memGB<<10 {
			return fmt.Errorf("-free-mb %d must be > 0 and below the node's %d MB (-mem-gb %d)", *freeMB, *memGB<<10, *memGB)
		}
		p := hermes.DefaultPressureConfig(kind)
		p.FreeBytes = *freeMB << 20
		cfg.Pressure = &p
	default:
		return fmt.Errorf("unknown pressure kind %q", *pressure)
	}
	if *daemon {
		d := hermes.DefaultDaemonConfig()
		cfg.Daemon = &d
	}

	load := hermes.DefaultLoadConfig()
	load.Requests = *requests
	load.RatePerSec = *rate
	load.Keys = *keys
	load.ZipfS = *zipf
	load.ReadFraction = *reads
	load.ValueBytes = *value
	load.Seed = *seed
	if err := load.Validate(); err != nil {
		return err
	}

	kinds, err := parseAllocators(*allocators)
	if err != nil {
		return err
	}

	if *scenarioPath != "" {
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		return runScenarioFile(cfg, kinds, scenarioOpts{
			path:          *scenarioPath,
			scale:         *scale,
			seed:          *seed,
			seedSet:       seedSet,
			json:          *jsonOut,
			static:        *static,
			metricsOut:    *metricsOut,
			metricsPeriod: *metricsPeriod,
		})
	}
	if *metricsOut != "" {
		return fmt.Errorf("-metrics-out requires -scenario (the time series rides the scenario path)")
	}

	if !*jsonOut {
		fmt.Printf("hermes-cluster nodes=%d shards=%d service=%s pressure=%s stats=%s parallel=%v seed=%d\n",
			*nodes, *shards, *service, *pressure, cfg.Stats, *parallel, *seed)
		fmt.Printf("load: %d requests at %.0f req/s, %d keys (zipf=%.2f), %.0f%% reads, %dB values\n\n",
			*requests, *rate, *keys, *zipf, *reads*100, *value)
	}

	var jsonReports []hermes.TimedReport
	for _, kind := range kinds {
		cfg.Allocator = kind
		if err := cfg.Validate(); err != nil {
			return err
		}
		start := time.Now()
		c := hermes.NewCluster(cfg)
		rep := c.Run(load)
		c.Close()
		wall := time.Since(start)
		if *jsonOut {
			jsonReports = append(jsonReports, hermes.TimedReport{Report: rep, WallMS: ms(wall)})
			continue
		}
		fmt.Printf("=== %s (wall %v) ===\n", cfg.Allocator, wall.Round(time.Millisecond))
		if *perShard {
			fmt.Println(rep.Render())
			continue
		}
		fmt.Printf("%v\n%v\nper node:\n", rep.Cluster, rep.Wait)
		for _, n := range rep.PerNode {
			fmt.Printf("  %s  shards=%-3d reclaims=%-6d swapouts=%-8d %v\n",
				n.Name, n.Shards, n.Kernel.DirectReclaims, n.Kernel.PagesSwapOut, n.Latency)
		}
		fmt.Println()
	}
	if *jsonOut {
		return hermes.WriteReportJSON(os.Stdout, struct {
			Load    hermes.LoadConfig    `json:"load"`
			Reports []hermes.TimedReport `json:"reports"`
		}{load, jsonReports})
	}
	return nil
}

type scenarioOpts struct {
	path          string
	scale         float64
	seed          uint64
	seedSet       bool
	json          bool
	static        bool
	metricsOut    string
	metricsPeriod time.Duration
}

// runScenarioFile loads, validates and runs a scenario spec for each
// allocator kind, printing the phase × class segmented reports.
func runScenarioFile(cfg hermes.ClusterConfig, kinds []hermes.AllocatorKind, opts scenarioOpts) error {
	if opts.metricsOut != "" {
		if opts.metricsPeriod <= 0 {
			return fmt.Errorf("-metrics-period %v must be > 0", opts.metricsPeriod)
		}
		cfg.Metrics = &hermes.MetricsConfig{Period: opts.metricsPeriod}
	}
	data, err := os.ReadFile(opts.path)
	if err != nil {
		return err
	}
	spec, err := hermes.ParseScenarioSpec(data)
	if err != nil {
		return err
	}
	cfg, err = spec.Overrides.Apply(cfg)
	if err != nil {
		return err
	}
	scn := spec.Scenario
	if err := workload.CheckScale("-scale", opts.scale); err != nil {
		return err
	}
	if opts.scale != 1 {
		scn = scn.Scaled(opts.scale)
	}
	if opts.static {
		// Same chaos, same SLO accounting, no controller: the baseline an
		// adaptive preset is measured against.
		scn.Policies = nil
	}
	if opts.seedSet {
		scn.Seed = opts.seed
		cfg.Seed = opts.seed
	} else {
		// The file's seed governs the whole run — workload and per-node
		// kernel streams — so the printed seed really reproduces it.
		cfg.Seed = scn.Seed
	}
	if spec.Overrides != nil && spec.Overrides.Allocator != "" {
		// The preset pins its allocator; -allocators is ignored.
		kinds = []hermes.AllocatorKind{spec.Overrides.Allocator}
	}

	if !opts.json {
		fmt.Printf("hermes-cluster scenario %q (%s, scale %g): nodes=%d shards=%d shard-replicas=%d service=%s stats=%s seed=%d\n",
			scn.Name, opts.path, opts.scale, cfg.Nodes, cfg.Shards, cfg.ShardReplicas, cfg.Service(), cfg.StatsBackend(), scn.Seed)
		fmt.Printf("phases=%d events=%d horizon=%v\n\n", len(scn.Phases), len(scn.Events), scn.End())
	}

	var jsonReports []hermes.TimedScenarioReport
	for _, kind := range kinds {
		cfg.Allocator = kind
		if err := cfg.Validate(); err != nil {
			return err
		}
		start := time.Now()
		c := hermes.NewCluster(cfg)
		rep, err := c.RunScenario(scn)
		c.Close()
		if err != nil {
			return err
		}
		wall := time.Since(start)
		if opts.metricsOut != "" {
			if err := writeMetrics(opts.metricsOut, kind, len(kinds) > 1, rep.Metrics); err != nil {
				return err
			}
		}
		if opts.json {
			jsonReports = append(jsonReports, hermes.TimedScenarioReport{ScenarioReport: rep, WallMS: ms(wall)})
			continue
		}
		fmt.Printf("=== %s (wall %v) ===\n%s\n", kind, wall.Round(time.Millisecond), rep.Render())
	}
	if opts.json {
		return hermes.WriteReportJSON(os.Stdout, struct {
			Scenario string                       `json:"scenario"`
			Scale    float64                      `json:"scale"`
			Reports  []hermes.TimedScenarioReport `json:"reports"`
		}{scn.Name, opts.scale, jsonReports})
	}
	return nil
}

// writeMetrics writes one run's time series to the -metrics-out path, in
// the format metrics.IsPrometheusPath picks from its extension.
// Multi-allocator runs suffix the allocator kind before the extension so
// each run keeps its own stream.
func writeMetrics(path string, kind hermes.AllocatorKind, multi bool, samples []hermes.MetricsSample) error {
	if multi {
		ext := filepath.Ext(path)
		path = strings.TrimSuffix(path, ext) + "-" + string(kind) + ext
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if metrics.IsPrometheusPath(path) {
		err = hermes.WriteMetricsPrometheus(f, samples)
	} else {
		err = hermes.WriteMetricsJSONL(f, samples)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d windows)\n", path, len(samples))
	return nil
}

func parseAllocators(s string) ([]hermes.AllocatorKind, error) {
	var kinds []hermes.AllocatorKind
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			kinds = append(kinds, hermes.AllocatorKind(name))
		}
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no allocators given")
	}
	return kinds, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
