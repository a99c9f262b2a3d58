// Package tcmalloc is a behavioural model of TCMalloc, the second baseline
// of the paper's evaluation. It captures the mechanisms behind TCMalloc's
// latency signature in Figures 7 and 8 — "low latency on average... very
// high tail latency in all three cases":
//
//   - a per-thread cache of free objects per size class: the common case is
//     a near-free list pop, giving the lowest average of all four
//     allocators;
//   - batched refills from a central free list when the thread cache runs
//     dry: every ~batch-th allocation pays a multi-microsecond fetch — a
//     built-in high percentile spike;
//   - span allocation from a page heap that grows the arena in large
//     increments: rarer still, more expensive, and under memory pressure
//     the big fresh-page demand lands in the kernel's direct-reclaim path
//     in one request, producing the extreme tail;
//   - no scavenging in steady state: freed memory cycles between thread
//     and central caches and is not returned to the OS (TCMalloc's release
//     rate defaults to very lazy), keeping residency high under pressure.
package tcmalloc

import (
	"math/bits"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// Config tunes the model.
type Config struct {
	// SmallMax is the largest thread-cache size class (256 KiB in
	// TCMalloc).
	SmallMax int64
	// BatchBytes sizes central-list refill batches: a refill moves about
	// BatchBytes/classSize objects (clamped to [2, 32]).
	BatchBytes int64
	// ArenaGrowBytes is the page-heap growth increment.
	ArenaGrowBytes int64

	// HitCost is a thread-cache hit; CentralFetchCost a central-list
	// refill (lock + list surgery); SpanAllocCost the page-heap span
	// carve; FreeCost the free fast path.
	HitCost          simtime.Duration
	CentralFetchCost simtime.Duration
	SpanAllocCost    simtime.Duration
	FreeCost         simtime.Duration
}

// DefaultConfig returns the calibrated model parameters.
func DefaultConfig() Config {
	return Config{
		SmallMax:         256 << 10,
		BatchBytes:       64 << 10,
		ArenaGrowBytes:   1 << 20,
		HitCost:          60 * simtime.Nanosecond,
		CentralFetchCost: 11 * simtime.Microsecond,
		SpanAllocCost:    25 * simtime.Microsecond,
		FreeCost:         60 * simtime.Nanosecond,
	}
}

// arena is the page heap's current growth region, carved linearly.
type arena struct {
	region *kernel.Region
	carved int64 // bytes
	size   int64
}

// tcmallocMeta routes frees back to the right cache; it is carried inline
// in the Block's two meta words.
type tcmallocMeta struct {
	classSize int64 // 0 for page-heap (large) spans
	spanPages int64 // large spans: page count class
}

func (m tcmallocMeta) encode() alloc.BlockMeta {
	return alloc.BlockMeta{Tag: alloc.MetaTCMalloc, A: m.classSize, B: m.spanPages}
}

func decodeMeta(b *alloc.Block) tcmallocMeta {
	if b.Meta.Tag != alloc.MetaTCMalloc {
		panic("tcmalloc: foreign block")
	}
	return tcmallocMeta{classSize: b.Meta.A, spanPages: b.Meta.B}
}

// Allocator is the TCMalloc model for one process.
type Allocator struct {
	k    *kernel.Kernel
	proc *kernel.Process
	cfg  Config

	// threadCache and central hold recycled objects per class size; both
	// store backing regions (objects are fully-touched memory).
	threadCache map[int64][]*kernel.Region
	central     map[int64][]*kernel.Region

	// spanCache holds freed large spans per page count.
	spanCache map[int64][]*kernel.Region

	cur *arena

	mmapBytes int64
	stats     alloc.Stats

	// blocks recycles Block objects across malloc/free cycles.
	blocks alloc.BlockPool

	// Fetches/SpanAllocs are exposed for the latency-signature tests.
	Fetches    int64
	SpanAllocs int64
}

var _ alloc.Allocator = (*Allocator)(nil)

// New creates a TCMalloc-model allocator for a fresh process.
func New(k *kernel.Kernel, name string, cfg Config) *Allocator {
	if cfg.SmallMax <= 0 || cfg.BatchBytes <= 0 || cfg.ArenaGrowBytes <= 0 {
		panic("tcmalloc: invalid config")
	}
	return &Allocator{
		k:           k,
		proc:        k.CreateProcess(name),
		cfg:         cfg,
		threadCache: make(map[int64][]*kernel.Region),
		central:     make(map[int64][]*kernel.Region),
		spanCache:   make(map[int64][]*kernel.Region),
	}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "TCMalloc" }

// Process returns the backing kernel process.
func (a *Allocator) Process() *kernel.Process { return a.proc }

// classSizeFor rounds a small request to its size class (8-byte granularity
// below 1 KiB, then 4 classes per doubling — close enough to TCMalloc's
// table for cost purposes).
func classSizeFor(size int64) int64 {
	if size <= 8 {
		return 8
	}
	if size <= 1024 {
		return (size + 7) / 8 * 8
	}
	log := bits.Len64(uint64(size - 1))
	base := int64(1) << (log - 1)
	step := base / 4
	n := (size - base + step - 1) / step
	return base + n*step
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(at simtime.Time, size int64) (*alloc.Block, simtime.Duration) {
	if size <= 0 {
		panic("tcmalloc: malloc of non-positive size")
	}
	a.stats.Mallocs++
	a.stats.BytesRequested += size
	if size <= a.cfg.SmallMax {
		return a.mallocSmall(at, size)
	}
	return a.mallocLarge(at, size)
}

func (a *Allocator) mallocSmall(at simtime.Time, size int64) (*alloc.Block, simtime.Duration) {
	class := classSizeFor(size)
	cost := a.cfg.HitCost

	// Thread-cache hit: recycled, fully-touched object.
	if list := a.threadCache[class]; len(list) != 0 {
		region := list[len(list)-1]
		a.threadCache[class] = list[:len(list)-1]
		return a.recycledBlock(size, class, region), cost
	}

	// Refill from the central list.
	cost += a.cfg.CentralFetchCost
	a.Fetches++
	batch := a.cfg.BatchBytes / class
	if batch < 2 {
		batch = 2
	}
	if batch > 32 {
		batch = 32
	}
	if list := a.central[class]; len(list) != 0 {
		take := int64(len(list))
		if take > batch {
			take = batch
		}
		moved := list[int64(len(list))-take:]
		a.central[class] = list[:int64(len(list))-take]
		region := moved[len(moved)-1]
		a.threadCache[class] = append(a.threadCache[class], moved[:len(moved)-1]...)
		return a.recycledBlock(size, class, region), cost
	}

	// Central empty: carve a fresh span for the whole batch from the page
	// heap. The requesting allocation pays for all of it — TCMalloc's
	// tail-latency spike.
	cost += a.cfg.SpanAllocCost
	a.SpanAllocs++
	spanBytes := class * batch
	region, start, c := a.carve(at.Add(cost), spanBytes)
	cost += c
	ps := a.k.PageSize()
	// Hand out the first object; the rest stock the thread cache. The
	// block's EndPage covers the whole span: the touch faults the span in,
	// matching TCMalloc handing out span-backed objects that the app
	// faults progressively (charged here as one spike for modelling
	// economy — it is the rare path).
	blk := a.blocks.Get()
	*blk = alloc.Block{
		Size:      size,
		ChunkSize: class,
		Kind:      alloc.BlockMmap,
		Region:    region,
		EndPage:   (start + spanBytes + ps - 1) / ps,
		Meta:      tcmallocMeta{classSize: class}.encode(),
	}
	for i := int64(1); i < batch; i++ {
		a.threadCache[class] = append(a.threadCache[class], region)
	}
	return blk, cost
}

func (a *Allocator) recycledBlock(size, class int64, region *kernel.Region) *alloc.Block {
	b := a.blocks.Get()
	*b = alloc.Block{
		Size:      size,
		ChunkSize: class,
		Kind:      alloc.BlockMmap,
		Region:    region,
		EndPage:   0, // below the touched watermark: no faults
		Meta:      tcmallocMeta{classSize: class}.encode(),
	}
	return b
}

// carve takes bytes from the current arena, growing the page heap by
// ArenaGrowBytes increments when it runs out.
func (a *Allocator) carve(at simtime.Time, bytes int64) (*kernel.Region, int64, simtime.Duration) {
	var cost simtime.Duration
	if a.cur == nil || a.cur.size-a.cur.carved < bytes {
		grow := a.cfg.ArenaGrowBytes
		if grow < bytes {
			grow = bytes
		}
		ps := a.k.PageSize()
		pages := (grow + ps - 1) / ps
		region, c := a.k.Mmap(at, a.proc, pages)
		cost += c
		a.cur = &arena{region: region, size: pages * ps}
		a.mmapBytes += pages * ps
	}
	start := a.cur.carved
	a.cur.carved += bytes
	return a.cur.region, start, cost
}

func (a *Allocator) mallocLarge(at simtime.Time, size int64) (*alloc.Block, simtime.Duration) {
	ps := a.k.PageSize()
	pages := (size + ps - 1) / ps
	cost := a.cfg.HitCost + a.cfg.SpanAllocCost

	if cache := a.spanCache[pages]; len(cache) != 0 {
		region := cache[len(cache)-1]
		a.spanCache[pages] = cache[:len(cache)-1]
		b := a.blocks.Get()
		*b = alloc.Block{
			Size:      size,
			ChunkSize: pages * ps,
			Kind:      alloc.BlockMmap,
			Region:    region,
			EndPage:   0,
			Meta:      tcmallocMeta{spanPages: pages}.encode(),
		}
		return b, cost
	}
	a.SpanAllocs++
	region, start, c := a.carve(at.Add(cost), pages*ps)
	cost += c
	b := a.blocks.Get()
	*b = alloc.Block{
		Size:      size,
		ChunkSize: pages * ps,
		Kind:      alloc.BlockMmap,
		Region:    region,
		EndPage:   (start + pages*ps + ps - 1) / ps,
		Meta:      tcmallocMeta{spanPages: pages}.encode(),
	}
	return b, cost
}

// Free implements alloc.Allocator: objects recycle through the caches;
// nothing returns to the OS (lazy release).
func (a *Allocator) Free(at simtime.Time, b *alloc.Block) simtime.Duration {
	b.MarkFreed()
	a.stats.Frees++
	a.stats.BytesFreed += b.Size
	meta := decodeMeta(b)
	region := b.Region
	a.blocks.Put(b)
	cost := a.cfg.FreeCost
	if meta.classSize > 0 {
		class := meta.classSize
		a.threadCache[class] = append(a.threadCache[class], region)
		// Over-capacity thread caches spill a batch back to the central
		// list (cheap, amortised).
		batch := a.cfg.BatchBytes / class
		if batch < 2 {
			batch = 2
		}
		if int64(len(a.threadCache[class])) > 2*batch {
			list := a.threadCache[class]
			spill := list[int64(len(list))-batch:]
			a.threadCache[class] = list[:int64(len(list))-batch]
			a.central[class] = append(a.central[class], spill...)
			cost += a.cfg.CentralFetchCost / 2
		}
		return cost
	}
	a.spanCache[meta.spanPages] = append(a.spanCache[meta.spanPages], region)
	return cost
}

// Drop implements alloc.Allocator: the object or span stays allocated.
func (a *Allocator) Drop(b *alloc.Block) { a.blocks.Put(b) }

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

// Close implements alloc.Allocator (no background machinery).
func (a *Allocator) Close() {}
