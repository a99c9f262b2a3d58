// Single-node hot-path benchmarks: one node, one shard, the default
// open-loop load — the (near-)zero-allocation per-request path: flat
// service tables, pooled Blocks with inline meta, intrusive LRU spans.
//
// CI runs these with -benchtime=1x as a smoke test; locally,
// `go test -bench=BenchmarkNode -benchmem` gives the per-allocator
// comparison: ns/op for the wall, allocs/op and B/op for the Go
// allocator churn of the whole node path.
package hermes_test

import (
	"testing"

	hermes "github.com/hermes-sim/hermes"
)

const benchNodeRequests = 100_000

func runNodeBench(b *testing.B, kind hermes.AllocatorKind) {
	cfg := hermes.DefaultClusterConfig()
	cfg.Nodes = 1
	cfg.Shards = 1
	cfg.Allocator = kind
	cfg.Stats = hermes.StatsHistogram
	load := hermes.DefaultLoadConfig()
	load.Requests = benchNodeRequests
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := hermes.NewCluster(cfg)
		rep := c.Run(load)
		c.Close()
		if rep.Requests != load.Requests {
			b.Fatalf("served %d requests, want %d", rep.Requests, load.Requests)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Cluster.P99.Nanoseconds()), "p99-ns")
		}
	}
}

// BenchmarkNodeGlibc drives the Glibc-backed single-node path.
func BenchmarkNodeGlibc(b *testing.B) { runNodeBench(b, hermes.AllocGlibc) }

// BenchmarkNodeJemalloc drives the jemalloc-backed single-node path.
func BenchmarkNodeJemalloc(b *testing.B) { runNodeBench(b, hermes.AllocJemalloc) }

// BenchmarkNodeTCMalloc drives the TCMalloc-backed single-node path.
func BenchmarkNodeTCMalloc(b *testing.B) { runNodeBench(b, hermes.AllocTCMalloc) }

// BenchmarkNodeHermes drives the Hermes-backed single-node path.
func BenchmarkNodeHermes(b *testing.B) { runNodeBench(b, hermes.AllocHermes) }
