// Package alloc defines the allocator abstraction shared by the Glibc,
// jemalloc, TCMalloc models and Hermes. An Allocator owns one simulated
// process's dynamic memory and translates malloc/free/touch traffic into
// kernel operations (sbrk, mmap, faults, mlock) in virtual time.
//
// The split between Malloc and Touch mirrors the paper's measurement
// methodology (§2.1): malloc returns a virtual range quickly; the expensive
// part — constructing the virtual-physical mapping — happens when the
// application first writes the memory. The micro-benchmark and both
// services write right after allocating, so workloads call Malloc and then
// Touch and report the sum as "memory allocation latency", exactly as the
// paper measures it.
package alloc

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// MmapThreshold is Glibc's default M_MMAP_THRESHOLD: requests at or above
// 128 KiB take the mmap path (§2.1).
const MmapThreshold = 128 << 10

// BlockKind says which path produced a block.
type BlockKind int

const (
	// BlockHeap blocks live in the brk-managed main heap.
	BlockHeap BlockKind = iota + 1
	// BlockMmap blocks have their own (or a shared) mmapped region.
	BlockMmap
)

// Block is an allocated range handed to the application.
type Block struct {
	// Size is the usable size the caller asked for, in bytes.
	Size int64
	// ChunkSize is the rounded size the allocator actually reserved.
	ChunkSize int64
	// Kind records the allocation path.
	Kind BlockKind
	// Region is the kernel region backing the block.
	Region *kernel.Region
	// EndPage is the exclusive page index of the block's end within its
	// region (heap blocks: offset from heap start). First-touch fault
	// counts are derived from it against the region's touched watermark.
	EndPage int64
	// PreMapped marks blocks whose pages are resident at handout and were
	// protected from reclaim until then (Hermes' mlocked reservations):
	// such requests complete without entering the kernel at all, so the
	// ambient reclaim slowdown does not apply to them (workload.
	// JitterRequest). Allocator-cache reuse (jemalloc extents, TCMalloc
	// thread caches) avoids faults too but its memory is reclaimable, so
	// it does not get this flag.
	PreMapped bool

	touched bool
	freed   bool

	// Meta carries allocator-private bookkeeping inline (e.g. the heap
	// chunk's byte range for coalescing-with-top on free). It used to be an
	// `any`: boxing the per-allocator meta struct into an interface heap-
	// allocated on every malloc, which the zero-allocation request path
	// cannot afford (see docs/ARCHITECTURE.md, "Hot path & memory
	// discipline").
	Meta BlockMeta
}

// BlockMeta is two opaque words of allocator-private bookkeeping plus a tag
// identifying the allocator path that wrote them, so free-path routing can
// still reject foreign blocks.
type BlockMeta struct {
	Tag  MetaTag
	A, B int64
}

// MetaTag identifies the allocator path that owns a block's Meta words.
type MetaTag uint8

// The meta tags of the allocator models. Hermes shares MetaGlibcHeap for
// its heap blocks (its small path is literally the Glibc model's).
const (
	MetaNone MetaTag = iota
	MetaGlibcHeap
	MetaJemalloc
	MetaTCMalloc
)

// BlockPool recycles Block objects within one allocator, so steady-state
// malloc/free cycles stop producing garbage: a freed Block returns to the
// pool and the next Malloc reuses it. Reuse resets the object, which
// retires the double-free safety net for handles freed before the reuse —
// the price of a zero-allocation steady state (stale handles still panic
// until the object is reused).
//
// New Blocks are carved from a slab of blockSlab Blocks, so a stream of
// mallocs that never frees (the paper's micro-benchmark) costs one Go
// allocation per slab instead of one per malloc. A live Block keeps its
// whole slab reachable; freed Blocks already stay in the pool, so that
// holds no memory the pool would have released.
type BlockPool struct {
	free []*Block
	slab []Block
}

// blockSlab is the number of Blocks one slab holds.
const blockSlab = 256

// Get returns a Block for reuse. The Block's contents are unspecified —
// the caller must fully assign it (`*b = Block{...}`) before handing it
// out; every allocator's construction site does exactly that, so Get does
// not pay for a redundant zeroing on the hot path.
func (p *BlockPool) Get() *Block {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return b
	}
	if len(p.slab) == 0 {
		p.slab = make([]Block, blockSlab)
	}
	b := &p.slab[0]
	p.slab = p.slab[1:]
	return b
}

// Put parks a freed Block for reuse. Callers must not touch the Block
// afterwards.
func (p *BlockPool) Put(b *Block) { p.free = append(p.free, b) }

// Touched reports whether the block has been written at least once.
func (b *Block) Touched() bool { return b.touched }

// MarkTouched records the first write; used by the shared touch helper.
func (b *Block) MarkTouched() { b.touched = true }

// Freed reports whether the block has been released.
func (b *Block) Freed() bool { return b.freed }

// MarkFreed records the release. Double frees are programming errors.
func (b *Block) MarkFreed() {
	if b.freed {
		panic("alloc: double free")
	}
	b.freed = true
}

// Stats aggregates an allocator's activity for the experiment reports.
type Stats struct {
	Mallocs        int64
	Frees          int64
	BytesRequested int64
	BytesFreed     int64
	HeapBytes      int64 // current heap (brk) size
	MmapBytes      int64 // current mmapped bytes
	ReservedBytes  int64 // Hermes: currently reserved, not yet handed out
	ReservePeak    int64 // Hermes: peak reservation (overhead accounting)
}

// Allocator is the malloc-library abstraction.
type Allocator interface {
	// Name identifies the allocator in experiment output ("Glibc",
	// "Hermes", ...).
	Name() string
	// Malloc reserves size bytes and returns the block plus the latency
	// the calling thread observed.
	Malloc(at simtime.Time, size int64) (*Block, simtime.Duration)
	// Free releases a block, returning the observed latency.
	Free(at simtime.Time, b *Block) simtime.Duration
	// Touch models the application's first write of the whole block
	// (faulting unmapped pages, swapping in reclaimed ones) and returns
	// the observed latency.
	Touch(at simtime.Time, b *Block) simtime.Duration
	// Access models a later read/write of n bytes of the block (possible
	// swap-ins, no first-touch faults).
	Access(at simtime.Time, b *Block, bytes int64) simtime.Duration
	// Stats returns a snapshot of the allocator's counters.
	Stats() Stats
	// Close tears down background machinery (management threads).
	Close()
}

// TouchBlock is the shared Touch implementation: application write cost
// plus first-touch faulting against the backing region's touched watermark.
func TouchBlock(k *kernel.Kernel, at simtime.Time, b *Block) simtime.Duration {
	if b.Freed() {
		panic("alloc: touch after free")
	}
	costs := k.Costs()
	cost := costs.TouchBase + simtime.Duration((b.Size*int64(costs.TouchPerKB))/1024)
	if b.Touched() {
		return cost + AccessBlock(k, at.Add(cost), b, b.Size)
	}
	b.MarkTouched()
	if b.PreMapped {
		// Reserved memory: mapping already constructed; at worst the pages
		// were unlocked and since swapped (handled by Access on re-use).
		return cost
	}
	r := b.Region
	touched := r.Mapped() + r.Swapped()
	newPages := b.EndPage - touched
	if newPages > r.Untouched() {
		panic(fmt.Sprintf("alloc: block wants %d new pages but region has %d untouched", newPages, r.Untouched()))
	}
	if newPages > 0 {
		cost += k.FaultIn(at.Add(cost), r, newPages)
	} else {
		// Fully reused memory: possible swap-ins only.
		cost += k.Access(at.Add(cost), r, pagesFor(k, b.Size))
	}
	return cost
}

// AccessBlock models re-reading/re-writing bytes of an already-touched
// block: copy cost plus possible swap-ins.
func AccessBlock(k *kernel.Kernel, at simtime.Time, b *Block, bytes int64) simtime.Duration {
	if b.Freed() {
		panic("alloc: access after free")
	}
	if bytes <= 0 {
		return 0
	}
	if bytes > b.Size {
		bytes = b.Size
	}
	costs := k.Costs()
	cost := simtime.Duration((bytes * int64(costs.TouchPerKB)) / 1024)
	cost += k.Access(at.Add(cost), b.Region, pagesFor(k, bytes))
	return cost
}

func pagesFor(k *kernel.Kernel, bytes int64) int64 {
	ps := k.PageSize()
	return (bytes + ps - 1) / ps
}

// PagesFor converts a byte count to pages for the given kernel geometry.
func PagesFor(k *kernel.Kernel, bytes int64) int64 { return pagesFor(k, bytes) }
