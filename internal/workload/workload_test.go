package workload

import (
	"testing"

	"github.com/hermes-sim/hermes/internal/alloc/glibcmalloc"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/stats"
)

func newNode(t *testing.T) (*kernel.Kernel, *simtime.Scheduler) {
	t.Helper()
	s := simtime.NewScheduler()
	cfg := kernel.DefaultConfig()
	cfg.TotalMemory = 2 << 30
	cfg.SwapBytes = 1 << 30
	return kernel.New(s, cfg), s
}

func TestMicroBenchRecordsEveryRequest(t *testing.T) {
	k, s := newNode(t)
	a := glibcmalloc.New(k, "mb", glibcmalloc.DefaultConfig())
	rec := stats.NewRecorder("mb")
	RunMicroBench(k, a, MicroBenchConfig{RequestSize: 1024, TotalBytes: 1 << 20}, rec)
	if rec.Count() != 1024 {
		t.Fatalf("recorded %d requests, want 1024", rec.Count())
	}
	if s.Now() <= 0 {
		t.Fatal("benchmark must advance virtual time")
	}
	if rec.Mean() <= 0 {
		t.Fatal("latencies must be positive")
	}
	k.CheckInvariants()
}

func TestMicroBenchInvalidConfigPanics(t *testing.T) {
	k, _ := newNode(t)
	a := glibcmalloc.New(k, "mb", glibcmalloc.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config must panic")
		}
	}()
	RunMicroBench(k, a, MicroBenchConfig{RequestSize: 0, TotalBytes: 1}, stats.NewRecorder("x"))
}

func TestJitterPreservesScale(t *testing.T) {
	k, _ := newNode(t)
	base := 10 * simtime.Microsecond
	var sum simtime.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += JitterRequest(k, base, false)
	}
	mean := sum / n
	// Log-normal with σ=0.13 keeps the mean within a few percent.
	if mean < base*9/10 || mean > base*12/10 {
		t.Fatalf("jittered mean %v strayed from base %v", mean, base)
	}
}

func TestJitterAmbientAppliesOnlyUnderReclaim(t *testing.T) {
	k, s := newNode(t)
	base := 100 * simtime.Microsecond
	if f := k.AmbientFactor(s.Now()); f != 0 {
		t.Fatalf("idle ambient factor = %v, want 0", f)
	}
	// Push below the low watermark to wake kswapd with anon-only memory.
	p := k.CreateProcess("hog")
	_, low, _ := k.Watermarks()
	r, _ := k.Mmap(s.Now(), p, k.FreePages()-low+16)
	k.FaultIn(s.Now(), r, r.Pages())
	s.Advance(10 * simtime.Millisecond)
	if !k.KswapdActive() {
		t.Skip("kswapd finished too fast on this configuration")
	}
	if f := k.AmbientFactor(s.Now()); f <= 0 {
		t.Fatal("ambient factor must be positive while reclaim runs")
	}
	// Pre-mapped requests bypass it.
	var withAmb, preMapped simtime.Duration
	for i := 0; i < 2000; i++ {
		withAmb += JitterRequest(k, base, false)
		preMapped += JitterRequest(k, base, true)
	}
	if withAmb <= preMapped {
		t.Fatal("ambient-exposed requests must average slower than pre-mapped ones")
	}
}

func TestAnonPressureLeavesConfiguredBuffer(t *testing.T) {
	k, _ := newNode(t)
	cfg := DefaultPressureConfig(PressureAnon)
	cfg.FreeBytes = 256 << 20
	p := StartPressure(k, cfg)
	defer p.Stop()
	free := k.FreeBytes()
	if free < 200<<20 || free > 320<<20 {
		t.Fatalf("free after fill = %d MB, want ~256 MB", free>>20)
	}
	if p.AnonPages == 0 {
		t.Fatal("generator allocated nothing")
	}
	k.CheckInvariants()
}

func TestAnonPressureClampsAboveWatermarks(t *testing.T) {
	k, _ := newNode(t)
	cfg := DefaultPressureConfig(PressureAnon)
	cfg.FreeBytes = 1 << 20 // below the watermark floor
	p := StartPressure(k, cfg)
	defer p.Stop()
	min, _, _ := k.Watermarks()
	if k.FreePages() <= min {
		t.Fatalf("pressure left free %d below min watermark %d", k.FreePages(), min)
	}
}

func TestFilePressurePopulatesCache(t *testing.T) {
	k, s := newNode(t)
	cfg := DefaultPressureConfig(PressureFile)
	cfg.FileBytes = 512 << 20
	cfg.FreeBytes = 128 << 20
	p := StartPressure(k, cfg)
	defer p.Stop()
	if got := k.FileCachePages() * k.PageSize(); got < 400<<20 {
		t.Fatalf("file cache %d MB, want ~512 MB", got>>20)
	}
	// The generator keeps re-reading: dropping the cache gets repaired.
	for _, f := range k.Files() {
		k.FadviseDontNeed(s.Now(), f)
	}
	s.Advance(200 * simtime.Millisecond)
	if got := k.FileCachePages(); got == 0 {
		t.Fatal("file generator must re-read its working set")
	}
	k.CheckInvariants()
}

func TestPressureStopReleasesAnon(t *testing.T) {
	k, _ := newNode(t)
	cfg := DefaultPressureConfig(PressureAnon)
	cfg.FreeBytes = 256 << 20
	p := StartPressure(k, cfg)
	p.Stop()
	if k.FreePages() != k.TotalPages() {
		t.Fatalf("free = %d pages after stop, want all %d", k.FreePages(), k.TotalPages())
	}
}

func TestBadPressureConfigPanics(t *testing.T) {
	k, _ := newNode(t)
	for i, cfg := range []PressureConfig{
		{Kind: PressureKind(99), FreeBytes: 1 << 20, Period: simtime.Millisecond},
		{Kind: PressureAnon, FreeBytes: 0, Period: simtime.Millisecond},
		{Kind: PressureAnon, FreeBytes: 1 << 20, Period: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid pressure config must panic", i)
				}
			}()
			StartPressure(k, cfg)
		}()
	}
}
