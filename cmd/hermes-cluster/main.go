// hermes-cluster drives a sharded multi-node cluster simulation with an
// open-loop keyed workload — or a declarative multi-phase scenario — and
// prints per-shard, per-node and cluster-wide latency digests. With
// several -allocators it repeats the identical scenario per allocator,
// the paper's comparison at cluster scale.
//
// Usage:
//
//	hermes-cluster [-nodes 8] [-shards 16] [-shard-replicas 2]
//	               [-allocators glibc,hermes]
//	               [-service redis|rocksdb] [-requests 1000000] [-rate 50000]
//	               [-keys 100000] [-zipf 1.1] [-reads 0.5] [-value 1024]
//	               [-pressure none|anon|file] [-free-mb 300] [-mem-gb 8]
//	               [-daemon] [-seed 1] [-per-shard] [-parallel=true]
//	               [-stats raw|histogram] [-json] [-bench BENCH_cluster.json]
//	               [-bench-reps 3] [-bench-against committed.json]
//	               [-bench-gate-pct 15] [-gomaxprocs N]
//	               [-scenario file.json] [-scale 1.0]
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
// machine-readable reports instead of tables. -bench times Cluster.Run
// three ways on the identical load — baseline (sequential+raw), parity
// (parallel+raw) and new (parallel+histogram) — verifies that the raw
// reports are bit-identical, and writes the trajectory to the given JSON
// file; every wall is the median of -bench-reps repetitions with the
// min/max spread recorded. Bench mode pins GOMAXPROCS to 1 (override with
// -gomaxprocs) so the committed numbers are single-core apples-to-apples —
// the multi-core story is hermes-bench -bench-scaling's job. At one core
// both parallel entries take Run's flat partitioned path. -bench-against
// gates the run
// against a committed bench file, failing when the new engine's
// within-run speedup over the sequential baseline drops more than
// -bench-gate-pct below the committed speedup (a host-speed-invariant
// statistic; absolute walls are printed as an advisory only).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	hermes "github.com/hermes-sim/hermes"
	"github.com/hermes-sim/hermes/internal/stats"
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
	benchPath := flag.String("bench", "", "benchmark seed engine vs overhauled engine and write the JSON trajectory to this file")
	benchReps := flag.Int("bench-reps", 3, "repetitions per -bench measurement (median wall reported, min/max recorded)")
	benchAgainst := flag.String("bench-against", "", "committed -bench JSON to gate against: fail when the new engine's within-run speedup regresses beyond -bench-gate-pct")
	benchGatePct := flag.Float64("bench-gate-pct", 15, "allowed new-engine speedup regression vs -bench-against, percent")
	gomaxprocs := flag.Int("gomaxprocs", 0, "pin GOMAXPROCS (0 = pin 1 in bench mode, runtime default otherwise)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	scenarioPath := flag.String("scenario", "", "run the scenario spec in this JSON file instead of the flat flag-built load")
	scale := flag.Float64("scale", 1, "multiply the loaded scenario's durations and request budgets by this factor")
	static := flag.Bool("static", false, "strip the scenario's policies block: the static baseline for adaptive comparisons")
	metricsOut := flag.String("metrics-out", "", "write the scenario run's per-window time series to this file (.prom/.txt = Prometheus text exposition, else JSON-lines)")
	metricsPeriod := flag.Duration("metrics-period", time.Second, "virtual-time window width for -metrics-out samples")
	flag.Parse()

	// Benchmarks default to a single-core pin so committed BENCH numbers are
	// comparable across hosts (the multi-core story is -bench-scaling's job);
	// ordinary runs keep the runtime default unless pinned explicitly.
	if *gomaxprocs > 0 {
		runtime.GOMAXPROCS(*gomaxprocs)
	} else if *benchPath != "" {
		runtime.GOMAXPROCS(1)
	}

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
		if *benchPath != "" {
			return fmt.Errorf("-scenario and -bench are mutually exclusive (the bench drives its own flat load)")
		}
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		if *metricsOut != "" {
			cfg.Metrics = &hermes.MetricsConfig{Period: *metricsPeriod}
		}
		return runScenarioFile(cfg, kinds, scenarioOpts{
			path:       *scenarioPath,
			scale:      *scale,
			seed:       *seed,
			seedSet:    seedSet,
			json:       *jsonOut,
			static:     *static,
			metricsOut: *metricsOut,
		})
	}
	if *metricsOut != "" {
		return fmt.Errorf("-metrics-out requires -scenario (the time series rides the scenario path)")
	}

	if *benchPath != "" {
		return runBench(cfg, load, kinds, benchOpts{
			path:    *benchPath,
			reps:    *benchReps,
			against: *benchAgainst,
			gatePct: *benchGatePct,
		})
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
	path       string
	scale      float64
	seed       uint64
	seedSet    bool
	json       bool
	static     bool
	metricsOut string
}

// runScenarioFile loads, validates and runs a scenario spec for each
// allocator kind, printing the phase × class segmented reports.
func runScenarioFile(cfg hermes.ClusterConfig, kinds []hermes.AllocatorKind, opts scenarioOpts) error {
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
	// NaN fails every comparison, so the guard must demand the positive
	// range explicitly rather than reject <= 0.
	if !(opts.scale > 0) || math.IsInf(opts.scale, 1) {
		return fmt.Errorf("-scale must be a positive, finite number (got %v)", opts.scale)
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

// writeMetrics writes one run's time series to the -metrics-out path: the
// .prom/.txt extensions select Prometheus text exposition, everything else
// JSON-lines. Multi-allocator runs suffix the allocator kind before the
// extension so each run keeps its own stream.
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
	switch filepath.Ext(path) {
	case ".prom", ".txt":
		err = hermes.WriteMetricsPrometheus(f, samples)
	default:
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

// benchRun is one timed engine measurement inside a bench entry: the
// median wall of -bench-reps repetitions, with the min/max spread recorded
// so a noise-dominated median is visible in the committed file instead of
// masquerading as signal.
type benchRun struct {
	Engine    string  `json:"engine"`  // "sequential" or "parallel"
	Stats     string  `json:"stats"`   // "raw" or "histogram"
	WallMS    float64 `json:"wall_ms"` // median of reps
	WallMinMS float64 `json:"wall_min_ms"`
	WallMaxMS float64 `json:"wall_max_ms"`
	Reps      int     `json:"reps"`
	MeanNS    int64   `json:"mean_ns"`
	P50NS     int64   `json:"p50_ns"`
	P99NS     int64   `json:"p99_ns"`
	MaxNS     int64   `json:"max_ns"`
	Requests  int64   `json:"requests"`
}

// benchEntry compares the sequential oracle against the parallel engine
// for one allocator on the identical (config, load) pair.
type benchEntry struct {
	Allocator  string   `json:"allocator"`
	Baseline   benchRun `json:"baseline"` // sequential engine, raw samples (the seed hot path)
	Parity     benchRun `json:"parity"`   // parallel engine, raw samples (bit-identity check vs baseline)
	New        benchRun `json:"new"`      // parallel engine, streaming histograms (the overhauled default)
	Equivalent bool     `json:"equivalent"`
	Speedup    float64  `json:"speedup"` // baseline wall / new wall
}

// benchFile is the -bench JSON document.
type benchFile struct {
	Generated  string       `json:"generated"`
	GoMaxProcs int          `json:"gomaxprocs"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	Nodes      int          `json:"nodes"`
	Shards     int          `json:"shards"`
	Requests   int64        `json:"requests"`
	RatePerSec float64      `json:"rate_per_sec"`
	Seed       uint64       `json:"seed"`
	Entries    []benchEntry `json:"entries"`
}

// benchOpts carries the -bench invocation.
type benchOpts struct {
	path    string
	reps    int
	against string
	gatePct float64
}

func runBench(cfg hermes.ClusterConfig, load hermes.LoadConfig, kinds []hermes.AllocatorKind, opts benchOpts) error {
	if opts.reps < 1 {
		opts.reps = 1
	}
	out := benchFile{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Nodes:      cfg.Nodes,
		Shards:     cfg.Shards,
		Requests:   load.Requests,
		RatePerSec: load.RatePerSec,
		Seed:       cfg.Seed,
	}

	timed := func(engine string, sequential bool, mode hermes.StatsMode) (hermes.ClusterReport, benchRun) {
		c := cfg
		c.Sequential = sequential
		c.Stats = mode
		var rep hermes.ClusterReport
		walls := make([]float64, opts.reps)
		for i := range walls {
			start := time.Now()
			cl := hermes.NewCluster(c)
			rep = cl.Run(load) // deterministic: every rep yields the identical report
			cl.Close()
			walls[i] = ms(time.Since(start))
		}
		med, lo, hi := stats.MedianSpread(walls)
		return rep, benchRun{
			Engine:    engine,
			Stats:     string(mode),
			WallMS:    med,
			WallMinMS: lo,
			WallMaxMS: hi,
			Reps:      opts.reps,
			MeanNS:    rep.Cluster.Mean.Nanoseconds(),
			P50NS:     rep.Cluster.P50.Nanoseconds(),
			P99NS:     rep.Cluster.P99.Nanoseconds(),
			MaxNS:     rep.Cluster.Max.Nanoseconds(),
			Requests:  rep.Requests,
		}
	}
	for _, kind := range kinds {
		cfg.Allocator = kind
		if err := cfg.Validate(); err != nil {
			return err
		}
		fmt.Printf("bench %s: %d requests on %d nodes...\n", kind, load.Requests, cfg.Nodes)
		baseRep, base := timed("sequential", true, hermes.StatsRaw)
		parRep, parity := timed("parallel", false, hermes.StatsRaw)
		_, novel := timed("parallel", false, hermes.StatsHistogram)
		entry := benchEntry{
			Allocator:  string(kind),
			Baseline:   base,
			Parity:     parity,
			New:        novel,
			Equivalent: reflect.DeepEqual(baseRep, parRep),
			Speedup:    base.WallMS / novel.WallMS,
		}
		if !entry.Equivalent {
			return fmt.Errorf("engine equivalence violated for %s:\nseq %v\npar %v",
				kind, baseRep.Cluster, parRep.Cluster)
		}
		fmt.Printf("  baseline (sequential+raw)  %8.1f ms  [%.1f–%.1f, %d reps]\n", base.WallMS, base.WallMinMS, base.WallMaxMS, base.Reps)
		fmt.Printf("  parity   (parallel+raw)    %8.1f ms  [%.1f–%.1f]  bit-identical report\n", parity.WallMS, parity.WallMinMS, parity.WallMaxMS)
		fmt.Printf("  new      (parallel+hist)   %8.1f ms  [%.1f–%.1f]  speedup %.2fx\n", novel.WallMS, novel.WallMinMS, novel.WallMaxMS, entry.Speedup)
		out.Entries = append(out.Entries, entry)
	}

	if opts.against != "" {
		if err := gateAgainst(out, opts.against, opts.gatePct); err != nil {
			return err
		}
	}

	f, err := os.Create(opts.path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := hermes.WriteReportJSON(f, out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", opts.path)
	return nil
}

// gateAgainst fails the bench when the parallel engine regressed beyond
// gatePct relative to a committed bench file — the CI tripwire that keeps a
// perf PR from quietly giving back what an earlier one earned.
//
// The gated statistic is the within-run speedup (sequential baseline wall /
// new-engine wall, both measured in the same process seconds apart), not
// the absolute wall: wall clocks are only comparable on the same host in
// the same load phase, and back-to-back identical-binary runs on
// CPU-quota-throttled containers swing ±30% — an absolute gate at any
// useful threshold would flake constantly and never survive a CI runner
// hardware change. The speedup ratio cancels host speed while still
// catching the failure the gate exists for: the parallel engine losing
// ground against the sequential one. Absolute min walls are printed as an
// advisory so drift stays visible in logs. (A regression in code shared by
// both engines cancels out here; that is what the committed BENCH
// trajectories and the tier-1 equivalence tests are for.)
//
// It compares like configurations only and is deliberately one-sided:
// being faster than the committed file is always fine.
func gateAgainst(cur benchFile, path string, gatePct float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading -bench-against file: %w", err)
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing -bench-against file %s: %w", path, err)
	}
	if base.Nodes != cur.Nodes || base.Shards != cur.Shards || base.Requests != cur.Requests ||
		base.Seed != cur.Seed || base.GoMaxProcs != cur.GoMaxProcs {
		return fmt.Errorf("-bench-against config mismatch: committed (nodes=%d shards=%d requests=%d seed=%d gomaxprocs=%d) vs current (nodes=%d shards=%d requests=%d seed=%d gomaxprocs=%d)",
			base.Nodes, base.Shards, base.Requests, base.Seed, base.GoMaxProcs,
			cur.Nodes, cur.Shards, cur.Requests, cur.Seed, cur.GoMaxProcs)
	}
	for _, b := range base.Entries {
		for _, c := range cur.Entries {
			if b.Allocator != c.Allocator {
				continue
			}
			if b.Speedup <= 0 || c.Speedup <= 0 {
				continue
			}
			pct := (b.Speedup - c.Speedup) / b.Speedup * 100
			if pct > gatePct {
				return fmt.Errorf("bench regression: %s new-engine speedup %.2fx vs committed %.2fx (-%.1f%% > %.0f%% gate)",
					c.Allocator, c.Speedup, b.Speedup, pct, gatePct)
			}
			fmt.Printf("  gate %s speedup %.2fx vs committed %.2fx (%+.1f%%, gate %.0f%%); advisory min walls: baseline %.1f vs %.1f ms, new %.1f vs %.1f ms\n",
				c.Allocator, c.Speedup, b.Speedup, -pct, gatePct,
				c.Baseline.WallMinMS, b.Baseline.WallMinMS, c.New.WallMinMS, b.New.WallMinMS)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
