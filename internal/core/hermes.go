package core

import (
	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/alloc/glibcmalloc"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/monitor"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// Hermes is the paper's modified Glibc (§3.2): the default ptmalloc
// routines plus a per-process management thread that keeps the top chunk
// and a segregated pool of mmapped chunks pre-reserved with their
// virtual-physical mappings constructed, so incoming requests are served
// without faulting.
type Hermes struct {
	cfg Config
	g   *glibcmalloc.Allocator
	k   *kernel.Kernel

	enabled bool
	closed  bool
	task    *simtime.PeriodicTask
	// mgmtBusy accumulates all management-thread virtual CPU time (ticks
	// plus reservation-chain steps).
	mgmtBusy simtime.Duration
	// heapReserving marks an in-flight gradual reservation chain;
	// reserveGoal is its remaining bytes. everLarge records that the
	// process has used the mmap path at least once.
	heapReserving bool
	reserveGoal   int64
	everLarge     bool

	pool *segregatedPool
	// handouts tracks mmapped chunks given to the process that are larger
	// than the request; the next management round shrinks them to size
	// (Algorithm 2's DelayRelease). shrinkScratch is the reusable sort
	// buffer for that round's deterministic region order.
	handouts      map[*kernel.Region]int64 // region → pages actually needed
	shrinkScratch []*kernel.Region

	// Interval metrics (reset each tick) drive the thresholds.
	smallBytes, smallCount int64
	largePages, largeCount int64

	// Heap thresholds, in bytes (Algorithm 1).
	heapTarget, heapRsvThr, heapTrimThr int64
	heapChunk                           int64
	// Mmap thresholds, in pages (Algorithm 2).
	mmapTarget, mmapRsvThr, mmapTrimThr int64
	mmapChunk                           int64

	reservePeak int64
	mgmtStats   MgmtStats

	// Own malloc/free counters: the pool and MallocSmall paths bypass the
	// glibc model's accounting.
	mallocs, frees, bytesReq, bytesFreed int64

	// blocks recycles the mmap-path Block objects (heap blocks recycle
	// through the underlying glibc model's pool).
	blocks alloc.BlockPool
}

// MgmtStats counts management-thread activity for the overhead experiment.
type MgmtStats struct {
	Ticks            int64
	HeapReservations int64
	HeapTrims        int64
	MmapReservations int64
	PoolHits         int64
	PoolExpands      int64
	PoolMisses       int64
	Shrinks          int64
	// MaxLockHold is the longest single break-lock hold by a reservation
	// step — the bound gradual reservation exists to keep small (Fig 6).
	MaxLockHold simtime.Duration
}

var _ alloc.Allocator = (*Hermes)(nil)

// New creates a Hermes allocator with the management thread enabled — the
// configuration of a registered latency-critical service.
func New(k *kernel.Kernel, name string, cfg Config) *Hermes {
	h := newHermes(k, name, cfg)
	h.enable()
	return h
}

// NewWithRegistry performs the paper's lazy initialisation (§3.3): the
// management thread starts only if the process's PID is registered as
// latency-critical in the monitor daemon's shared-memory registry;
// otherwise the process behaves exactly like default Glibc.
func NewWithRegistry(k *kernel.Kernel, name string, cfg Config, reg *monitor.Registry, register bool) *Hermes {
	h := newHermes(k, name, cfg)
	if register {
		reg.AddLatencyCritical(h.g.Process().PID)
	}
	if reg.IsLatencyCritical(h.g.Process().PID) {
		h.enable()
	}
	return h
}

func newHermes(k *kernel.Kernel, name string, cfg Config) *Hermes {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	gcfg := glibcmalloc.DefaultConfig()
	gcfg.TrimThreshold = 0 // Hermes trims from the management thread.
	h := &Hermes{
		cfg:      cfg,
		g:        glibcmalloc.New(k, name, gcfg),
		k:        k,
		pool:     newSegregatedPool(cfg.MinMmapSize, k.PageSize(), cfg.TableSize),
		handouts: make(map[*kernel.Region]int64),
	}
	h.heapChunk = cfg.GradualChunkFloor
	h.mmapChunk = cfg.MinMmapSize / k.PageSize()
	return h
}

func (h *Hermes) enable() {
	if h.enabled {
		return
	}
	h.enabled = true
	h.task = simtime.NewPeriodicTask(h.k.Scheduler(), h.cfg.Interval, h.mgmtTick)
}

// Enabled reports whether the management thread is running.
func (h *Hermes) Enabled() bool { return h.enabled }

// Name implements alloc.Allocator.
func (h *Hermes) Name() string { return "Hermes" }

// Process returns the backing kernel process.
func (h *Hermes) Process() *kernel.Process { return h.g.Process() }

// Glibc exposes the underlying ptmalloc model (tests, diagnostics).
func (h *Hermes) Glibc() *glibcmalloc.Allocator { return h.g }

// PoolPages returns the pages currently parked in the segregated pool.
func (h *Hermes) PoolPages() int64 { return h.pool.totalPages }

// ReservationFactor returns the current RSV_FACTOR.
func (h *Hermes) ReservationFactor() float64 { return h.cfg.ReservationFactor }

// SetReservationFactor retunes RSV_FACTOR mid-run; the management thread
// reads it on its next tick, so the switch takes effect within one mgmt
// period. Non-positive factors are ignored (the config contract). The
// adaptive control plane's allocator-policy action drives this.
func (h *Hermes) SetReservationFactor(f float64) {
	if f > 0 {
		h.cfg.ReservationFactor = f
	}
}

// MgmtStats returns management-thread counters.
func (h *Hermes) MgmtStats() MgmtStats { return h.mgmtStats }

// MgmtBusy returns the management thread's total virtual CPU time.
func (h *Hermes) MgmtBusy() simtime.Duration { return h.mgmtBusy }

// MgmtUtilization returns the management thread's virtual-CPU share
// (§5.5 reports ~0.4%), counting both periodic ticks and reservation steps.
func (h *Hermes) MgmtUtilization(now simtime.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(h.mgmtBusy) / float64(now)
}

// Malloc implements alloc.Allocator. Small requests go through the shared
// Glibc heap path — which now finds a pre-mapped top chunk — plus the
// munlock handshake; large requests are served from the segregated pool.
func (h *Hermes) Malloc(at simtime.Time, size int64) (*alloc.Block, simtime.Duration) {
	if !h.enabled {
		return h.g.Malloc(at, size)
	}
	if size <= 0 {
		panic("core: malloc of non-positive size")
	}
	h.mallocs++
	h.bytesReq += size
	if size+32 >= h.cfg.MinMmapSize { // mirror glibc's chunk rounding
		return h.mallocLarge(at, size)
	}
	return h.mallocSmall(at, size)
}

func (h *Hermes) mallocSmall(at simtime.Time, size int64) (*alloc.Block, simtime.Duration) {
	h.smallBytes += size
	h.smallCount++
	b, cost := h.g.MallocSmall(at, size)
	// Hand-out handshake: reserved pages were mlocked at reservation time;
	// pages leaving the reserve are munlocked so the kernel may reclaim
	// them again (§4).
	heap := h.g.HeapRegion()
	if locked := heap.Locked(); locked > 0 {
		ps := h.k.PageSize()
		n := (b.ChunkSize + ps - 1) / ps
		if n > locked {
			n = locked
		}
		cost += h.k.Munlock(at.Add(cost), heap, n)
	}
	b.PreMapped = b.EndPage <= heap.Mapped()
	return b, cost
}

// Free implements alloc.Allocator. Freed mmapped chunks return to the pool
// (most requests from latency-critical services are same-sized, so pooled
// chunks fit future requests exactly — §6 "Fragmentation"); heap frees take
// the default path.
func (h *Hermes) Free(at simtime.Time, b *alloc.Block) simtime.Duration {
	if !h.enabled {
		return h.g.Free(at, b)
	}
	h.frees++
	h.bytesFreed += b.Size
	if b.Kind != alloc.BlockMmap {
		return h.g.Free(at, b)
	}
	b.MarkFreed()
	delete(h.handouts, b.Region)
	h.pool.add(poolChunk{region: b.Region, locked: false})
	h.blocks.Put(b)
	return h.g.Config().FreeCost
}

// Drop implements alloc.Allocator, routing the handle as Free would:
// mmap-path blocks to Hermes' own pool while the management thread runs,
// everything else to the Glibc model. The chunk stays handed out, so an
// oversized one is still shrunk by the next management round.
func (h *Hermes) Drop(b *alloc.Block) {
	if h.enabled && b.Kind == alloc.BlockMmap {
		h.blocks.Put(b)
		return
	}
	h.g.Drop(b)
}

// Touch implements alloc.Allocator.
func (h *Hermes) Touch(at simtime.Time, b *alloc.Block) simtime.Duration {
	return alloc.TouchBlock(h.k, at, b)
}

// Access implements alloc.Allocator.
func (h *Hermes) Access(at simtime.Time, b *alloc.Block, bytes int64) simtime.Duration {
	return alloc.AccessBlock(h.k, at, b, bytes)
}

// Stats implements alloc.Allocator.
func (h *Hermes) Stats() alloc.Stats {
	st := h.g.Stats()
	if h.enabled {
		st.Mallocs = h.mallocs
		st.Frees = h.frees
		st.BytesRequested = h.bytesReq
		st.BytesFreed = h.bytesFreed
	}
	st.ReservedBytes = h.reservedBytes()
	st.ReservePeak = h.reservePeak
	return st
}

// reservedBytes is memory reserved but not yet handed out: locked heap
// pages plus the pooled chunks (§5.5 reports ~6–6.4 MB at runtime).
func (h *Hermes) reservedBytes() int64 {
	return (h.g.HeapRegion().Locked() + h.pool.totalPages) * h.k.PageSize()
}

// Close implements alloc.Allocator.
func (h *Hermes) Close() {
	h.closed = true
	if h.task != nil {
		h.task.Stop()
	}
}
