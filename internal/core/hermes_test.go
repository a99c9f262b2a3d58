package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
)

func newTestHermes(t *testing.T, cfg Config) (*Hermes, *kernel.Kernel, *simtime.Scheduler) {
	t.Helper()
	s := simtime.NewScheduler()
	kcfg := kernel.DefaultConfig()
	kcfg.TotalMemory = 2 << 30
	kcfg.SwapBytes = 512 << 20
	k := kernel.New(s, kcfg)
	h := New(k, "lc-service", cfg)
	t.Cleanup(h.Close)
	return h, k, s
}

func TestHeapReservationPreMapsTopChunk(t *testing.T) {
	h, k, s := newTestHermes(t, DefaultConfig())
	// Let the management thread run a few intervals.
	s.Advance(10 * simtime.Millisecond)
	heap := h.Glibc().HeapRegion()
	if heap.Locked() == 0 {
		t.Fatal("management thread must reserve mlocked heap memory")
	}
	// The reserve honours min_rsv (5 MB) even with no traffic.
	if got := h.Stats().ReservedBytes; got < h.cfg.MinReserve {
		t.Fatalf("reserved %d bytes, want ≥ min_rsv %d", got, h.cfg.MinReserve)
	}
	// A small malloc is now served from the pre-mapped top chunk: no
	// faults at touch.
	faults0 := k.Stats().MinorFaults
	b, _ := h.Malloc(s.Now(), 1024)
	h.Touch(s.Now(), b)
	if !b.PreMapped {
		t.Fatal("block from reserved top chunk must be pre-mapped")
	}
	if k.Stats().MinorFaults != faults0 {
		t.Fatal("touch of reserved memory must not fault")
	}
	k.CheckInvariants()
}

func TestSmallMallocFasterThanGlibcSteadyState(t *testing.T) {
	// After warm-up, Hermes' 1KB allocations must be cheaper on average
	// than Glibc's, because faulting happens in the management thread.
	run := func(useHermes bool) simtime.Duration {
		s := simtime.NewScheduler()
		kcfg := kernel.DefaultConfig()
		kcfg.TotalMemory = 2 << 30
		k := kernel.New(s, kcfg)
		var a alloc.Allocator
		if useHermes {
			a = New(k, "svc", DefaultConfig())
		} else {
			a = glibcNew(k)
		}
		defer a.Close()
		var total simtime.Duration
		const n = 2000
		for i := 0; i < n; i++ {
			b, c1 := a.Malloc(s.Now(), 1024)
			c2 := a.Touch(s.Now().Add(c1), b)
			total += c1 + c2
			s.Advance(c1 + c2 + 2*simtime.Microsecond)
		}
		return total / n
	}
	hermes := run(true)
	glibc := run(false)
	if hermes >= glibc {
		t.Fatalf("Hermes avg %v not faster than Glibc %v", hermes, glibc)
	}
}

func glibcNew(k *kernel.Kernel) alloc.Allocator {
	return newHermesDisabled(k)
}

// newHermesDisabled builds a Hermes with no management thread: it behaves
// exactly like the Glibc model (the paper's non-registered process).
func newHermesDisabled(k *kernel.Kernel) alloc.Allocator {
	return newHermes(k, "glibc", DefaultConfig())
}

func TestLargeMallocServedFromPool(t *testing.T) {
	h, k, s := newTestHermes(t, DefaultConfig())
	// Warm up: tell the thresholds large requests are coming.
	for i := 0; i < 8; i++ {
		b, _ := h.Malloc(s.Now(), 256<<10)
		h.Touch(s.Now(), b)
		h.Free(s.Now(), b)
		s.Advance(2 * simtime.Millisecond)
	}
	st0 := h.MgmtStats()
	if st0.MmapReservations == 0 {
		t.Fatal("management thread must pre-reserve mmapped chunks")
	}
	faults0 := k.Stats().MinorFaults
	b, cost := h.Malloc(s.Now(), 256<<10)
	if !b.PreMapped {
		t.Fatal("pooled chunk must be pre-mapped")
	}
	h.Touch(s.Now().Add(cost), b)
	if k.Stats().MinorFaults != faults0 {
		t.Fatal("touch of a pooled chunk must not fault")
	}
	if got := h.MgmtStats().PoolHits; got != st0.PoolHits+1 {
		t.Fatalf("pool hits = %d, want %d", got, st0.PoolHits+1)
	}
	k.CheckInvariants()
}

func TestFreedLargeChunksReturnToPool(t *testing.T) {
	h, _, s := newTestHermes(t, DefaultConfig())
	b, _ := h.Malloc(s.Now(), 256<<10)
	h.Touch(s.Now(), b)
	pool0 := h.PoolPages()
	h.Free(s.Now(), b)
	if h.PoolPages() <= pool0 {
		t.Fatal("freed mmapped chunk must return to the pool")
	}
	// And the VMA must still exist (not munmapped like Glibc).
	if h.Process().VMACount() == 0 {
		t.Fatal("pooled chunk's VMA must stay alive")
	}
}

func TestDelayReleaseShrinksOversizedHandout(t *testing.T) {
	cfg := DefaultConfig()
	h, k, s := newTestHermes(t, cfg)
	// Prime the pool with large chunks by requesting 1MB repeatedly.
	for i := 0; i < 6; i++ {
		b, _ := h.Malloc(s.Now(), 1<<20)
		h.Free(s.Now(), b)
		s.Advance(2 * simtime.Millisecond)
	}
	// Now request 300KB: served by an oversized (≥1MB) pooled chunk.
	b, _ := h.Malloc(s.Now(), 300<<10)
	if h.MgmtStats().PoolHits == 0 {
		t.Skip("pool did not serve the request in this configuration")
	}
	before := b.Region.Pages()
	need := (int64(300<<10) + 32 + k.PageSize() - 1) / k.PageSize()
	if before <= need {
		t.Skipf("chunk %d pages not oversized vs need %d", before, need)
	}
	// Next management round shrinks it to size.
	s.Advance(3 * simtime.Millisecond)
	if got := b.Region.Pages(); got != need {
		t.Fatalf("handout not shrunk: %d pages, want %d", got, need)
	}
	if h.MgmtStats().Shrinks == 0 {
		t.Fatal("shrink not counted")
	}
	k.CheckInvariants()
}

func TestPoolExpandOnlyFaultsDelta(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableHeapMgmt = true
	h, k, s := newTestHermes(t, cfg)
	// Prime with 256KB requests so pooled chunks are 65 pages, touching
	// each so every pooled chunk is fully mapped.
	for i := 0; i < 6; i++ {
		b, _ := h.Malloc(s.Now(), 256<<10)
		h.Touch(s.Now(), b)
		h.Free(s.Now(), b)
		s.Advance(2 * simtime.Millisecond)
	}
	if h.PoolPages() == 0 {
		t.Fatal("pool empty after priming")
	}
	// Request 1MB: bigger than any pooled chunk → expand path.
	st0 := h.MgmtStats()
	faults0 := k.Stats().MinorFaults
	b, _ := h.Malloc(s.Now(), 1<<20)
	if h.MgmtStats().PoolExpands != st0.PoolExpands+1 {
		t.Fatalf("expected expand path, stats %+v", h.MgmtStats())
	}
	h.Touch(s.Now(), b)
	faulted := k.Stats().MinorFaults - faults0
	total := (int64(1<<20) + 32 + k.PageSize() - 1) / k.PageSize()
	if faulted >= total {
		t.Fatalf("expand faulted %d pages, want < %d (delta only)", faulted, total)
	}
	if faulted == 0 {
		t.Fatal("expand must fault the delta")
	}
	k.CheckInvariants()
}

func TestPoolMissFallsBackToDefaultRoute(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableMmapMgmt = true // pool never refilled
	h, k, s := newTestHermes(t, cfg)
	faults0 := k.Stats().MinorFaults
	b, _ := h.Malloc(s.Now(), 256<<10)
	if h.MgmtStats().PoolMisses != 1 {
		t.Fatalf("want a pool miss, stats %+v", h.MgmtStats())
	}
	h.Touch(s.Now(), b)
	if k.Stats().MinorFaults == faults0 {
		t.Fatal("default route must fault at touch")
	}
	k.CheckInvariants()
}

func TestHeapTrimWhenTopExceedsThreshold(t *testing.T) {
	h, k, s := newTestHermes(t, DefaultConfig())
	// Build a big heap footprint, then free everything: the top chunk
	// balloons past TRIM_THR and the management thread trims it.
	var blocks []*alloc.Block
	for i := 0; i < 2000; i++ {
		b, _ := h.Malloc(s.Now(), 16<<10)
		h.Touch(s.Now(), b)
		blocks = append(blocks, b)
		s.Advance(10 * simtime.Microsecond)
	}
	for i := len(blocks) - 1; i >= 0; i-- {
		h.Free(s.Now(), blocks[i])
	}
	topBefore := h.Glibc().TopBytes()
	s.Advance(20 * simtime.Millisecond)
	topAfter := h.Glibc().TopBytes()
	if topAfter >= topBefore {
		t.Fatalf("management thread did not trim: top %d -> %d", topBefore, topAfter)
	}
	if h.MgmtStats().HeapTrims == 0 {
		t.Fatal("trim not counted")
	}
	k.CheckInvariants()
}

func TestLazyInitViaRegistry(t *testing.T) {
	s := simtime.NewScheduler()
	kcfg := kernel.DefaultConfig()
	kcfg.TotalMemory = 1 << 30
	k := kernel.New(s, kcfg)
	reg := monitor.NewRegistry()

	// Not registered: behaves as default Glibc, no management thread.
	plain := NewWithRegistry(k, "batch-ish", DefaultConfig(), reg, false)
	defer plain.Close()
	if plain.Enabled() {
		t.Fatal("unregistered process must not start the management thread")
	}
	s.Advance(10 * simtime.Millisecond)
	if plain.Stats().ReservedBytes != 0 {
		t.Fatal("unregistered process must reserve nothing")
	}

	// Registered: management thread runs.
	lc := NewWithRegistry(k, "lc", DefaultConfig(), reg, true)
	defer lc.Close()
	if !lc.Enabled() {
		t.Fatal("registered process must start the management thread")
	}
	if !reg.IsLatencyCritical(lc.Process().PID) {
		t.Fatal("registration not recorded")
	}
	s.Advance(10 * simtime.Millisecond)
	if lc.Stats().ReservedBytes == 0 {
		t.Fatal("registered process must reserve memory")
	}
}

func TestGradualReservationBoundsLockHold(t *testing.T) {
	// The gradual strategy must bound single break-lock holds (Fig 6):
	// compare the longest hold between gradual (bounded chunks) and
	// at-once mode.
	maxHold := func(atOnce bool) simtime.Duration {
		s := simtime.NewScheduler()
		kcfg := kernel.DefaultConfig()
		kcfg.TotalMemory = 2 << 30
		k := kernel.New(s, kcfg)
		cfg := DefaultConfig()
		cfg.DisableMmapMgmt = true
		if atOnce {
			cfg.GradualChunkCeil = 0 // single-step reservation
		}
		h := New(k, "svc", cfg)
		defer h.Close()
		for i := 0; i < 40; i++ {
			s.Advance(2 * simtime.Millisecond)
			// Keep demand up so the thread keeps reserving.
			b, _ := h.Malloc(s.Now(), 32<<10)
			h.Touch(s.Now(), b)
		}
		return h.MgmtStats().MaxLockHold
	}
	gradual := maxHold(false)
	atOnce := maxHold(true)
	if gradual == 0 || atOnce == 0 {
		t.Fatalf("no lock holds observed: gradual=%v atOnce=%v", gradual, atOnce)
	}
	if gradual*2 >= atOnce {
		t.Fatalf("gradual hold %v not well below at-once hold %v", gradual, atOnce)
	}
}

func TestMgmtOverheadIsSmall(t *testing.T) {
	// §5.5: the management thread costs ~0.4% CPU under the
	// micro-benchmark. Measured over a steady-state window (the one-off
	// min_rsv build-up amortises away); allow generous headroom but fail
	// on runaway cost.
	h, _, s := newTestHermes(t, DefaultConfig())
	for i := 0; i < 20000; i++ {
		b, c := h.Malloc(s.Now(), 1024)
		h.Touch(s.Now().Add(c), b)
		s.Advance(100 * simtime.Microsecond)
	}
	util := h.MgmtUtilization(s.Now())
	if util > 0.02 {
		t.Fatalf("management thread utilisation %.2f%%, want < 2%%", util*100)
	}
	if util == 0 {
		t.Fatal("management thread did no work")
	}
}

func TestReservedMemoryIsModest(t *testing.T) {
	// §5.5: reserved-but-unused memory ≈ 6–6.4 MB for the micro-benchmark.
	h, _, s := newTestHermes(t, DefaultConfig())
	for i := 0; i < 2000; i++ {
		b, c := h.Malloc(s.Now(), 1024)
		h.Touch(s.Now().Add(c), b)
		s.Advance(4 * simtime.Microsecond)
	}
	got := h.Stats().ReservePeak
	if got > 64<<20 {
		t.Fatalf("peak reservation %d bytes, want tens of MB at most", got)
	}
	if got < 1<<20 {
		t.Fatalf("peak reservation %d bytes implausibly small", got)
	}
}

func TestDoubleFreeLargePanics(t *testing.T) {
	h, _, s := newTestHermes(t, DefaultConfig())
	b, _ := h.Malloc(s.Now(), 256<<10)
	h.Free(s.Now(), b)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	h.Free(s.Now(), b)
}

func TestHermesStatsCounters(t *testing.T) {
	h, _, s := newTestHermes(t, DefaultConfig())
	b1, _ := h.Malloc(s.Now(), 1024)
	b2, _ := h.Malloc(s.Now(), 256<<10)
	h.Free(s.Now(), b1)
	h.Free(s.Now(), b2)
	st := h.Stats()
	if st.Mallocs != 2 || st.Frees != 2 {
		t.Fatalf("counters: %+v", st)
	}
	if st.BytesRequested != 1024+256<<10 {
		t.Fatalf("bytes requested: %d", st.BytesRequested)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	s := simtime.NewScheduler()
	k := kernel.New(s, kernel.DefaultConfig())
	// Each case names a word its panic message must carry.
	cases := []struct {
		word   string
		mutate func(*Config)
	}{
		{"interval", func(c *Config) { c.Interval = 0 }},
		{"ReservationFactor", func(c *Config) { c.ReservationFactor = 0 }},
		{"ReservationFactor", func(c *Config) { c.ReservationFactor = math.NaN() }},
		{"ReservationFactor", func(c *Config) { c.ReservationFactor = math.Inf(1) }},
		{"RsvThrFraction", func(c *Config) { c.RsvThrFraction = math.NaN() }},
		{"floor", func(c *Config) { c.GradualChunkFloor = 0 }},
		{"table", func(c *Config) { c.TableSize = 0 }},
	}
	for i, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.word) {
					t.Errorf("case %d: invalid config must panic naming %q (got %q)", i, tc.word, msg)
				}
			}()
			New(k, "x", cfg)
		}()
	}
}
