package hermes_test

import (
	"testing"
	"time"

	hermes "github.com/hermes-sim/hermes"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	node := hermes.NewNode(hermes.DefaultNodeConfig())
	a := node.NewHermesAllocator("svc")
	defer a.Close()
	node.Advance(10 * time.Millisecond)

	if a.Stats().ReservedBytes == 0 {
		t.Fatal("management thread reserved nothing")
	}
	b, cost := a.Malloc(node.Now(), 1024)
	if b == nil || cost <= 0 {
		t.Fatal("malloc failed")
	}
	cost += a.Touch(node.Now().Add(cost), b)
	node.Advance(cost)
	if cost <= 0 {
		t.Fatal("no latency observed")
	}
}

// TestPublicAPIAllAllocators: every allocator kind runs the
// micro-benchmark through the public API, and the next Malloc after a Drop
// returns the dropped Block, on the heap path and on the mmap path.
func TestPublicAPIAllAllocators(t *testing.T) {
	node := hermes.NewNode(hermes.DefaultNodeConfig())
	for _, a := range []hermes.Allocator{
		node.NewGlibcAllocator("g"),
		node.NewJemallocAllocator("j"),
		node.NewTCMallocAllocator("t"),
		node.NewHermesAllocator("h"),
	} {
		rec := hermes.NewRecorder(a.Name())
		node.RunMicroBench(a, 1024, 1<<20, rec)
		if rec.Count() != 1024 {
			t.Errorf("%s: recorded %d requests", a.Name(), rec.Count())
		}
		for _, size := range []int64{1024, 256 << 10} {
			b, _ := a.Malloc(node.Now(), size)
			a.Drop(b)
			if next, _ := a.Malloc(node.Now(), size); next != b {
				t.Errorf("%s: the %d-byte Malloc after a Drop did not reuse the dropped Block", a.Name(), size)
			}
		}
		a.Close()
	}
}

func TestPublicAPIServicesAndDaemon(t *testing.T) {
	cfg := hermes.DefaultNodeConfig()
	cfg.Kernel.TotalMemory = 2 << 30
	node := hermes.NewNode(cfg)

	reg := node.NewRegistry()
	h := node.NewHermesAllocatorWith("svc", hermes.DefaultHermesConfig(), reg, true)
	defer h.Close()
	daemon := node.StartDaemon(reg, hermes.DefaultDaemonConfig())
	defer daemon.Stop()

	redis := node.NewRedis(h)
	defer redis.Close()
	for i := int64(0); i < 100; i++ {
		total, _, _ := redis.Query(i, 1024)
		if total <= 0 {
			t.Fatal("query without latency")
		}
	}

	g := node.NewGlibcAllocator("rocks")
	defer g.Close()
	rocks := node.NewRocksdb(g, "api-test")
	defer rocks.Close()
	if total, _, _ := rocks.Query(1, 4096); total <= 0 {
		t.Fatal("rocksdb query without latency")
	}
	node.Kernel().CheckInvariants()
}

func TestPublicAPIPressure(t *testing.T) {
	node := hermes.NewNode(hermes.DefaultNodeConfig())
	pcfg := hermes.DefaultPressureConfig(hermes.PressureAnon)
	p := node.StartPressure(pcfg)
	if node.Kernel().FreeBytes() > 400<<20 {
		t.Fatal("pressure generator did not consume memory")
	}
	p.Stop()
}
