// Package jemalloc is a behavioural model of jemalloc 5.x, one of the two
// baseline allocators of the paper's evaluation (§5: "jemalloc is the
// default memory allocator for Redis"). The model captures the mechanisms
// that produce jemalloc's latency signature in Figures 7 and 8:
//
//   - size-class rounding with slab-based small allocation — stable
//     bookkeeping costs, internal fragmentation instead of searching;
//   - per-class extent caching for large allocations — frees do not
//     munmap, so a steady-state workload reuses mapped memory, giving
//     "longer but more stable" large-allocation latency on a dedicated
//     system (Fig 8a);
//   - time-based decay purging: cached extents are MADV_FREEd after a
//     decay interval, so under memory pressure reuse refaults pages through
//     the kernel slow path — jemalloc's long tail in Figs 7b/8b.
//
// The model is calibrated, not line-faithful: arena/tcache locking, rtree
// lookup and so on are folded into per-operation constants.
package jemalloc

import (
	"math/bits"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// Config tunes the model.
type Config struct {
	// SmallMax is the largest size served from slabs (14 KiB in jemalloc's
	// default class table).
	SmallMax int64
	// SlabBytes is the slab size used for small classes.
	SlabBytes int64
	// DecayInterval is how often the decay task runs; DecayTime is how
	// long a cached extent stays mapped before being purged.
	DecayInterval simtime.Duration
	DecayTime     simtime.Duration

	// SmallCost is the fast-path cost (tcache-style hit or slab carve);
	// LargeCost is the large-allocation bookkeeping cost on top of any
	// kernel work (extent tree, rtree updates) — the constant that makes
	// jemalloc's large path "longer but stable" next to Glibc's;
	// FreeCost prices free bookkeeping.
	SmallCost simtime.Duration
	LargeCost simtime.Duration
	FreeCost  simtime.Duration
}

// DefaultConfig returns the calibrated model parameters.
func DefaultConfig() Config {
	return Config{
		SmallMax:      14 << 10,
		SlabBytes:     64 << 10,
		DecayInterval: 10 * simtime.Millisecond,
		DecayTime:     100 * simtime.Millisecond,
		SmallCost:     180 * simtime.Nanosecond,
		LargeCost:     220 * simtime.Microsecond,
		FreeCost:      150 * simtime.Nanosecond,
	}
}

// slab is the current carving slab of one small size class.
type slab struct {
	region *kernel.Region
	carved int64 // bytes carved so far
	size   int64 // slab bytes
}

// extent is a cached large extent.
type extent struct {
	region *kernel.Region
	purged bool
	since  simtime.Time
}

// Allocator is the jemalloc model for one process.
type Allocator struct {
	k    *kernel.Kernel
	proc *kernel.Process
	cfg  Config

	// Small classes: current slab and free-object list per class index.
	slabs    map[int]*slab
	freeObjs map[int][]*kernel.Region

	// Large classes: cached extents per page count.
	extents map[int64][]extent

	decay *simtime.PeriodicTask

	mmapBytes int64
	stats     alloc.Stats

	// blocks recycles Block objects across malloc/free cycles.
	blocks alloc.BlockPool
}

var _ alloc.Allocator = (*Allocator)(nil)

// jemallocMeta tags blocks with their class for free-path routing; it is
// carried inline in the Block's two meta words.
type jemallocMeta struct {
	classIdx   int   // small class index, -1 for large
	extentPage int64 // large: extent size in pages
}

func (m jemallocMeta) encode() alloc.BlockMeta {
	return alloc.BlockMeta{Tag: alloc.MetaJemalloc, A: int64(m.classIdx), B: m.extentPage}
}

func decodeMeta(b *alloc.Block) jemallocMeta {
	if b.Meta.Tag != alloc.MetaJemalloc {
		panic("jemalloc: foreign block")
	}
	return jemallocMeta{classIdx: int(b.Meta.A), extentPage: b.Meta.B}
}

// New creates a jemalloc-model allocator for a fresh process.
func New(k *kernel.Kernel, name string, cfg Config) *Allocator {
	if cfg.SmallMax <= 0 || cfg.SlabBytes <= 0 || cfg.DecayInterval <= 0 {
		panic("jemalloc: invalid config")
	}
	a := &Allocator{
		k:        k,
		proc:     k.CreateProcess(name),
		cfg:      cfg,
		slabs:    make(map[int]*slab),
		freeObjs: make(map[int][]*kernel.Region),
		extents:  make(map[int64][]extent),
	}
	a.decay = simtime.NewPeriodicTask(k.Scheduler(), cfg.DecayInterval, a.decayTick)
	return a
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "jemalloc" }

// Process returns the backing kernel process.
func (a *Allocator) Process() *kernel.Process { return a.proc }

// classFor returns (class index, class size) for a small request, using
// jemalloc's 4-classes-per-doubling spacing.
func classFor(size int64) (int, int64) {
	if size <= 16 {
		return 0, 16
	}
	// Class sizes: 16, 32, 48, 64, 80, 96, 112, 128, 160, ... (quantum 16
	// up to 128, then 4 per power of two).
	if size <= 128 {
		idx := int((size + 15) / 16)
		return idx - 1, int64(idx) * 16
	}
	log := bits.Len64(uint64(size - 1)) // size > 128
	base := int64(1) << (log - 1)
	step := base / 4
	idx := (size - base + step - 1) / step
	classSize := base + idx*step
	classIdx := 8 + (log-8)*4 + int(idx) - 1
	return classIdx, classSize
}

// largePagesFor rounds a large request to its page-granular class (4 per
// doubling above the slab ceiling).
func (a *Allocator) largePagesFor(size int64) int64 {
	ps := a.k.PageSize()
	pages := (size + ps - 1) / ps
	if pages <= 4 {
		return pages
	}
	log := bits.Len64(uint64(pages - 1))
	base := int64(1) << (log - 1)
	step := base / 4
	if step == 0 {
		step = 1
	}
	n := (pages - base + step - 1) / step
	return base + n*step
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(at simtime.Time, size int64) (*alloc.Block, simtime.Duration) {
	if size <= 0 {
		panic("jemalloc: malloc of non-positive size")
	}
	a.stats.Mallocs++
	a.stats.BytesRequested += size
	if size <= a.cfg.SmallMax {
		return a.mallocSmall(at, size)
	}
	return a.mallocLarge(at, size)
}

func (a *Allocator) mallocSmall(at simtime.Time, size int64) (*alloc.Block, simtime.Duration) {
	idx, classSize := classFor(size)
	cost := a.cfg.SmallCost

	// Recycled object: already-touched memory.
	if list := a.freeObjs[idx]; len(list) != 0 {
		region := list[len(list)-1]
		a.freeObjs[idx] = list[:len(list)-1]
		b := a.blocks.Get()
		*b = alloc.Block{
			Size:      size,
			ChunkSize: classSize,
			Kind:      alloc.BlockMmap,
			Region:    region,
			EndPage:   0, // fully below the region's touched watermark
			Meta:      jemallocMeta{classIdx: idx}.encode(),
		}
		return b, cost
	}

	// Carve from the class's current slab, mapping a new one when needed.
	sl := a.slabs[idx]
	if sl == nil || sl.size-sl.carved < classSize {
		slabBytes := a.cfg.SlabBytes
		if slabBytes < 4*classSize {
			slabBytes = 4 * classSize
		}
		ps := a.k.PageSize()
		pages := (slabBytes + ps - 1) / ps
		region, c := a.k.Mmap(at.Add(cost), a.proc, pages)
		cost += c
		sl = &slab{region: region, size: pages * ps}
		a.slabs[idx] = sl
		a.mmapBytes += pages * ps
	}
	start := sl.carved
	sl.carved += classSize
	ps := a.k.PageSize()
	b := a.blocks.Get()
	*b = alloc.Block{
		Size:      size,
		ChunkSize: classSize,
		Kind:      alloc.BlockMmap,
		Region:    sl.region,
		EndPage:   (start + classSize + ps - 1) / ps,
		Meta:      jemallocMeta{classIdx: idx}.encode(),
	}
	return b, cost
}

func (a *Allocator) mallocLarge(at simtime.Time, size int64) (*alloc.Block, simtime.Duration) {
	pages := a.largePagesFor(size)
	cost := a.cfg.LargeCost

	if cache := a.extents[pages]; len(cache) != 0 {
		e := cache[len(cache)-1]
		a.extents[pages] = cache[:len(cache)-1]
		endPage := pages
		if !e.purged {
			endPage = 0 // mapped extent: no faults at touch
		}
		b := a.blocks.Get()
		*b = alloc.Block{
			Size:      size,
			ChunkSize: pages * a.k.PageSize(),
			Kind:      alloc.BlockMmap,
			Region:    e.region,
			EndPage:   endPage,
			Meta:      jemallocMeta{classIdx: -1, extentPage: pages}.encode(),
		}
		return b, cost
	}

	region, c := a.k.Mmap(at.Add(cost), a.proc, pages)
	cost += c
	a.mmapBytes += pages * a.k.PageSize()
	b := a.blocks.Get()
	*b = alloc.Block{
		Size:      size,
		ChunkSize: pages * a.k.PageSize(),
		Kind:      alloc.BlockMmap,
		Region:    region,
		EndPage:   pages,
		Meta:      jemallocMeta{classIdx: -1, extentPage: pages}.encode(),
	}
	return b, cost
}

// Free implements alloc.Allocator: small objects recycle through the class
// free list; large extents park in the extent cache awaiting decay.
func (a *Allocator) Free(at simtime.Time, b *alloc.Block) simtime.Duration {
	b.MarkFreed()
	a.stats.Frees++
	a.stats.BytesFreed += b.Size
	meta := decodeMeta(b)
	if meta.classIdx >= 0 {
		a.freeObjs[meta.classIdx] = append(a.freeObjs[meta.classIdx], b.Region)
		a.blocks.Put(b)
		return a.cfg.FreeCost
	}
	a.extents[meta.extentPage] = append(a.extents[meta.extentPage], extent{
		region: b.Region,
		since:  a.k.Scheduler().Now(),
	})
	a.blocks.Put(b)
	return a.cfg.FreeCost
}

// Drop implements alloc.Allocator: the object or extent stays allocated.
func (a *Allocator) Drop(b *alloc.Block) { a.blocks.Put(b) }

// decayTick purges cached extents older than the decay time: their pages go
// back to the kernel (madvise), the VMA stays for reuse.
func (a *Allocator) decayTick(now simtime.Time) simtime.Duration {
	var busy simtime.Duration
	for pages, cache := range a.extents {
		for i := range cache {
			e := &cache[i]
			if e.purged || now.Sub(e.since) < a.cfg.DecayTime {
				continue
			}
			if n := e.region.Mapped() - e.region.Locked(); n > 0 {
				busy += a.k.MadviseFree(now.Add(busy), e.region, n)
			}
			e.purged = true
		}
		a.extents[pages] = cache
	}
	return busy
}

// Touch implements alloc.Allocator.
func (a *Allocator) Touch(at simtime.Time, b *alloc.Block) simtime.Duration {
	return alloc.TouchBlock(a.k, at, b)
}

// Access implements alloc.Allocator.
func (a *Allocator) Access(at simtime.Time, b *alloc.Block, bytes int64) simtime.Duration {
	return alloc.AccessBlock(a.k, at, b, bytes)
}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats {
	st := a.stats
	st.MmapBytes = a.mmapBytes
	return st
}

// CachedExtentPages returns the pages currently parked in the extent cache
// (diagnostics/tests), split into (mapped, purged).
func (a *Allocator) CachedExtentPages() (mapped, purged int64) {
	for _, cache := range a.extents {
		for _, e := range cache {
			if e.purged {
				purged += e.region.Pages()
			} else {
				mapped += e.region.Pages()
			}
		}
	}
	return mapped, purged
}

// Close implements alloc.Allocator.
func (a *Allocator) Close() { a.decay.Stop() }
