package workload

import (
	"testing"

	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
)

func testLoadConfig() LoadConfig {
	cfg := DefaultLoadConfig()
	cfg.Requests = 20_000
	return cfg
}

func drain(d *LoadDriver) []Request {
	var out []Request
	for {
		r, ok := d.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestLoadDriverDeterministic(t *testing.T) {
	a := drain(NewLoadDriver(testLoadConfig()))
	b := drain(NewLoadDriver(testLoadConfig()))
	if len(a) != len(b) || int64(len(a)) != testLoadConfig().Requests {
		t.Fatalf("stream lengths %d vs %d, want %d", len(a), len(b), testLoadConfig().Requests)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical drivers: %+v vs %+v", i, a[i], b[i])
		}
	}

	diff := testLoadConfig()
	diff.Seed = 2
	c := drain(NewLoadDriver(diff))
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced the identical stream")
	}
}

// Domain separation: a node and a load driver handed the identical seed
// (both default to 1) must not split the same stream — otherwise jitter
// noise would replay the request stream's draws bit for bit.
func TestLoadStreamDistinctFromKernelStream(t *testing.T) {
	kcfg := kernel.DefaultConfig()
	kcfg.Seed = 1
	k := kernel.New(simtime.NewScheduler(), kcfg)
	cfg := testLoadConfig()
	cfg.Seed = 1
	d := NewLoadDriver(cfg)
	same := 0
	for i := 0; i < 16; i++ {
		if k.RNG().Uint64() == d.rng.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("kernel and load driver share %d of 16 draws under the same seed", same)
	}
}

func TestLoadDriverArrivalsMonotoneAtRate(t *testing.T) {
	cfg := testLoadConfig()
	reqs := drain(NewLoadDriver(cfg))
	var last simtime.Time
	for i, r := range reqs {
		if r.At.Before(last) {
			t.Fatalf("request %d arrives at %v before predecessor %v", i, r.At, last)
		}
		last = r.At
	}
	// Open loop: n arrivals at rate r span ~n/r seconds of virtual time.
	wantSpan := float64(cfg.Requests) / cfg.RatePerSec
	gotSpan := float64(last) / float64(simtime.Second)
	if gotSpan < wantSpan/2 || gotSpan > wantSpan*2 {
		t.Errorf("stream spans %.2fs of virtual time, want ≈%.2fs", gotSpan, wantSpan)
	}
}

func TestLoadDriverMixAndSkew(t *testing.T) {
	cfg := testLoadConfig()
	cfg.ReadFraction = 0.25
	reqs := drain(NewLoadDriver(cfg))
	reads, hot := 0, 0
	for _, r := range reqs {
		if r.Op == OpRead {
			if r.ValueBytes != 0 {
				t.Fatalf("read carries payload: %+v", r)
			}
			reads++
		} else if r.ValueBytes != cfg.ValueBytes {
			t.Fatalf("write payload %d, want %d", r.ValueBytes, cfg.ValueBytes)
		}
		if r.Key == 0 {
			hot++
		}
		if r.Key < 0 || r.Key >= cfg.Keys {
			t.Fatalf("key %d outside [0,%d)", r.Key, cfg.Keys)
		}
	}
	frac := float64(reads) / float64(len(reqs))
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("read fraction %.3f, want ≈0.25", frac)
	}
	// Zipf s=1.1: key 0 is the hottest, far above uniform's 1/Keys share.
	if uniformShare := float64(len(reqs)) / float64(cfg.Keys); float64(hot) < 10*uniformShare {
		t.Errorf("Zipf hot key hit %d times; uniform share would be %.1f — skew missing", hot, uniformShare)
	}

	cfg.ZipfS = 0 // uniform
	hot = 0
	for _, r := range drain(NewLoadDriver(cfg)) {
		if r.Key == 0 {
			hot++
		}
	}
	if hot > 40 { // E[hot] = 20000/100000 = 0.2
		t.Errorf("uniform keys hit key 0 %d times — still skewed", hot)
	}
}
