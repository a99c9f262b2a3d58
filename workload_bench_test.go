// Workload-generator benchmark: the open-loop LoadDriver on the randgen
// samplers (splittable splitmix64 streams, alias-table Zipf, ziggurat
// exponentials).
//
// CI runs it with -benchtime=1x as a smoke test. Per-primitive and
// per-draw comparisons against the stdlib algorithms (Zipf, exp, normal,
// FastExp, the Zipf+exp request draw and the log-normal jitter) live in
// internal/workload/randgen's benchmarks.
package hermes_test

import (
	"testing"

	hermes "github.com/hermes-sim/hermes"
)

// BenchmarkWorkloadDriver draws the default Zipf/Poisson stream — the
// per-request generation cost Cluster.Run pays.
func BenchmarkWorkloadDriver(b *testing.B) {
	load := hermes.DefaultLoadConfig()
	load.Requests = int64(b.N)
	// Construction (the alias-table build) stays outside the timer: it is
	// once per config, amortised over millions of draws.
	d := hermes.NewLoadDriver(load)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for {
		r, ok := d.Next()
		if !ok {
			break
		}
		sink += r.Key
	}
	if sink < 0 {
		b.Fatal("impossible: negative key sum")
	}
}
