// Package glibcmalloc models Glibc 2.23's ptmalloc as the paper describes
// it (§2.1): one brk-managed main heap split into an allocated area and a
// top chunk, small requests (< 128 KiB) served from bins or carved from the
// top chunk (growing the break on demand), large requests mmapped and
// munmapped directly, and heap trimming when the top chunk exceeds the trim
// threshold. Virtual-physical mappings are constructed lazily at first
// touch — the kernel's on-demand behaviour the paper identifies as the
// latency problem.
//
// The model exposes the heap internals (top chunk, break lock, grow/trim
// primitives) that Hermes' management thread manipulates, so the Hermes
// implementation in internal/core is literally a delta on this package,
// mirroring how the paper patches Glibc.
package glibcmalloc

import (
	"fmt"
	"sort"

	"github.com/hermes-sim/hermes/internal/alloc"
	"github.com/hermes-sim/hermes/internal/flatmap"
	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// Config carries the tunables of the model; defaults are Glibc's.
type Config struct {
	// MmapThreshold routes requests of at least this many bytes to mmap
	// (M_MMAP_THRESHOLD, 128 KiB).
	MmapThreshold int64
	// TopPad is extra space requested on each sbrk growth (M_TOP_PAD).
	TopPad int64
	// TrimThreshold: when the top chunk exceeds it, the heap is trimmed
	// back (M_TRIM_THRESHOLD). Hermes disables this and trims from its
	// management thread instead.
	TrimThreshold int64
	// Align is the chunk alignment; HeaderBytes the per-chunk overhead.
	Align       int64
	HeaderBytes int64

	// MallocFastCost is the bookkeeping cost of a bin hit or top-chunk
	// carve; BinProbeCost the cost per bin size inspected during best-fit
	// search; FreeCost the bookkeeping cost of free.
	MallocFastCost simtime.Duration
	BinProbeCost   simtime.Duration
	FreeCost       simtime.Duration
}

// DefaultConfig returns Glibc 2.23 defaults.
func DefaultConfig() Config {
	return Config{
		MmapThreshold:  alloc.MmapThreshold,
		TopPad:         128 << 10,
		TrimThreshold:  128 << 10,
		Align:          16,
		HeaderBytes:    16,
		MallocFastCost: 150 * simtime.Nanosecond,
		BinProbeCost:   25 * simtime.Nanosecond,
		FreeCost:       120 * simtime.Nanosecond,
	}
}

// freeChunk is a free range inside the allocated area.
type freeChunk struct {
	start int64 // byte offset within the heap
	size  int64
}

// heapMeta is the Block.Meta payload for heap blocks, carried inline in the
// Block's two meta words.
type heapMeta struct {
	start int64
	size  int64
}

func (m heapMeta) encode() alloc.BlockMeta {
	return alloc.BlockMeta{Tag: alloc.MetaGlibcHeap, A: m.start, B: m.size}
}

func decodeHeapMeta(b *Block) heapMeta {
	if b.Meta.Tag != alloc.MetaGlibcHeap {
		panic("glibcmalloc: heap block without heap metadata")
	}
	return heapMeta{start: b.Meta.A, size: b.Meta.B}
}

// Allocator is the ptmalloc model for one process.
type Allocator struct {
	k    *kernel.Kernel
	proc *kernel.Process
	cfg  Config

	// usedEnd is the byte offset of the end of the allocated area; the
	// top chunk spans [usedEnd, BreakBytes).
	usedEnd int64

	// bins maps chunk size → free chunks of exactly that size; sizes
	// holds the distinct sizes sorted ascending for best-fit search;
	// byEnd indexes free chunks by their end offset for coalescing with
	// the top chunk; binPos maps a free chunk's start offset to its index
	// in its bin list, so coalescing removals are O(1) instead of a scan
	// over every same-sized chunk. All three indexes are flat tables: the
	// free/malloc cycle probes them on every request, so they must not
	// churn Go maps.
	bins   *flatmap.Map[[]freeChunk]
	sizes  []int64
	byEnd  *flatmap.Map[freeChunk]
	binPos *flatmap.Map[int32]

	binnedBytes int64

	// breakLock serialises program-break manipulation; Hermes' management
	// thread holds it while reserving (paper Fig. 6).
	breakLock simtime.Lock

	// embargoUntil/embargoBytes hide in-flight reservation space from the
	// process until the reserving step's lock hold expires: the discrete-
	// event step mutates state instantly, but a real malloc racing it
	// would not see the new top chunk until the expansion completes.
	embargoUntil simtime.Time
	embargoBytes int64

	mmapBytes int64
	stats     alloc.Stats

	// blocks recycles Block objects across malloc/free cycles.
	blocks alloc.BlockPool
}

var _ alloc.Allocator = (*Allocator)(nil)

// New creates the allocator for a fresh process registered with the kernel.
func New(k *kernel.Kernel, name string, cfg Config) *Allocator {
	if cfg.MmapThreshold <= 0 || cfg.Align <= 0 {
		panic(fmt.Sprintf("glibcmalloc: invalid config %+v", cfg))
	}
	return &Allocator{
		k:      k,
		proc:   k.CreateProcess(name),
		cfg:    cfg,
		bins:   flatmap.New[[]freeChunk](0),
		byEnd:  flatmap.New[freeChunk](0),
		binPos: flatmap.New[int32](0),
	}
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "Glibc" }

// Process returns the backing kernel process.
func (a *Allocator) Process() *kernel.Process { return a.proc }

// Kernel returns the kernel this allocator runs against.
func (a *Allocator) Kernel() *kernel.Kernel { return a.k }

// BreakLock exposes the program-break lock for the Hermes management
// thread.
func (a *Allocator) BreakLock() *simtime.Lock { return &a.breakLock }

// BreakBytes returns the current program break as a byte offset.
func (a *Allocator) BreakBytes() int64 {
	return a.proc.Heap().Pages() * a.k.PageSize()
}

// TopBytes returns the free space in the top chunk.
func (a *Allocator) TopBytes() int64 { return a.BreakBytes() - a.usedEnd }

// SetTopEmbargo hides `bytes` of the top chunk until instant `until` — the
// window during which the management thread's expansion is still under
// construction behind the break lock.
func (a *Allocator) SetTopEmbargo(until simtime.Time, bytes int64) {
	a.embargoUntil = until
	a.embargoBytes = bytes
}

// visibleTop returns the top-chunk space a process thread can use at
// instant at.
func (a *Allocator) visibleTop(at simtime.Time) int64 {
	top := a.TopBytes()
	if at.Before(a.embargoUntil) {
		top -= a.embargoBytes
		if top < 0 {
			top = 0
		}
	}
	return top
}

// UsedEnd returns the end offset of the allocated area.
func (a *Allocator) UsedEnd() int64 { return a.usedEnd }

// HeapRegion returns the kernel region backing the main heap.
func (a *Allocator) HeapRegion() *kernel.Region { return a.proc.Heap() }

// Config returns the active configuration.
func (a *Allocator) Config() Config { return a.cfg }

// SetTrimThreshold overrides the trim threshold (Hermes passes MaxInt64 to
// take trimming over).
func (a *Allocator) SetTrimThreshold(v int64) { a.cfg.TrimThreshold = v }

// chunkSize rounds a request to the allocator's chunk granularity.
func (a *Allocator) chunkSize(size int64) int64 {
	c := size + a.cfg.HeaderBytes
	if rem := c % a.cfg.Align; rem != 0 {
		c += a.cfg.Align - rem
	}
	const minChunk = 32
	if c < minChunk {
		c = minChunk
	}
	return c
}

// Malloc implements alloc.Allocator.
func (a *Allocator) Malloc(at simtime.Time, size int64) (*Block, simtime.Duration) {
	return a.mallocImpl(at, size)
}

// Block is an alias re-export so callers of this package read naturally.
type Block = alloc.Block

func (a *Allocator) mallocImpl(at simtime.Time, size int64) (*Block, simtime.Duration) {
	if size <= 0 {
		panic("glibcmalloc: malloc of non-positive size")
	}
	a.stats.Mallocs++
	a.stats.BytesRequested += size
	if a.chunkSize(size) >= a.cfg.MmapThreshold {
		return a.mallocMmap(at, size)
	}
	return a.MallocSmall(at, size)
}

// MallocSmall serves a sub-threshold request from the bins or the top
// chunk, growing the heap when needed. Exported for Hermes, which shares
// this exact path (its management thread only changes what the top chunk
// already contains when the request arrives).
func (a *Allocator) MallocSmall(at simtime.Time, size int64) (*Block, simtime.Duration) {
	chunk := a.chunkSize(size)
	cost := a.cfg.MallocFastCost

	// 1. Exact-fit bin. Emptied bins keep their (empty) slice in the map so
	// the steady-state free/malloc cycle reuses its capacity instead of
	// reallocating it; the sizes index alone says which bins are live.
	if list, _ := a.bins.Get(chunk); len(list) != 0 {
		fc := list[len(list)-1]
		a.bins.Put(chunk, list[:len(list)-1])
		if len(list) == 1 {
			a.dropSize(chunk)
		}
		a.byEnd.Delete(fc.start + fc.size)
		a.binPos.Delete(fc.start)
		a.binnedBytes -= fc.size
		return a.heapBlock(size, fc.start, fc.size), cost
	}

	// 2. Best-fit: smallest binned chunk ≥ chunk, splitting the remainder.
	if idx := sort.Search(len(a.sizes), func(i int) bool { return a.sizes[i] >= chunk }); idx < len(a.sizes) {
		cost += simtime.Duration(idx+1) * a.cfg.BinProbeCost
		sz := a.sizes[idx]
		list, _ := a.bins.Get(sz)
		fc := list[len(list)-1]
		a.bins.Put(sz, list[:len(list)-1])
		if len(list) == 1 {
			a.dropSize(sz)
		}
		a.byEnd.Delete(fc.start + fc.size)
		a.binPos.Delete(fc.start)
		a.binnedBytes -= fc.size
		if rem := fc.size - chunk; rem >= 32 {
			a.insertFree(freeChunk{start: fc.start + chunk, size: rem})
			fc.size = chunk
		}
		return a.heapBlock(size, fc.start, fc.size), cost
	}
	cost += simtime.Duration(len(a.sizes)) * a.cfg.BinProbeCost

	// 3. Top chunk. Growing the break requires the break lock; if the
	// management thread (Hermes) holds it mid-expansion, the request waits
	// — and after the wait the top chunk has usually been refilled (paper
	// Fig. 5 "wait on routine").
	if a.visibleTop(at.Add(cost)) < chunk {
		lockAt := at.Add(cost)
		grant := a.breakLock.AcquireAt(lockAt)
		cost += grant.Sub(lockAt)
		if a.visibleTop(at.Add(cost)) < chunk {
			need := chunk - a.TopBytes() + a.cfg.TopPad
			cost += a.GrowHeap(at.Add(cost), need)
		}
	}
	start := a.usedEnd
	a.usedEnd += chunk
	return a.heapBlock(size, start, chunk), cost
}

// heapBlock builds the Block for a heap range (pooled, so the steady state
// allocates nothing).
func (a *Allocator) heapBlock(size, start, chunk int64) *Block {
	ps := a.k.PageSize()
	b := a.blocks.Get()
	*b = Block{
		Size:      size,
		ChunkSize: chunk,
		Kind:      alloc.BlockHeap,
		Region:    a.proc.Heap(),
		EndPage:   (start + chunk + ps - 1) / ps,
		Meta:      heapMeta{start: start, size: chunk}.encode(),
	}
	return b
}

// GrowHeap expands the break by at least `bytes` (rounded up to pages) and
// returns the sbrk cost. The caller must hold or have just acquired the
// break lock conceptually; in the simulation that means having waited on
// BreakLock if it was held.
func (a *Allocator) GrowHeap(at simtime.Time, bytes int64) simtime.Duration {
	ps := a.k.PageSize()
	pages := (bytes + ps - 1) / ps
	cost := a.k.Sbrk(at, a.proc, pages)
	a.stats.HeapBytes = a.BreakBytes()
	return cost
}

// TrimHeap shrinks the break so the top chunk keeps exactly keepTopBytes
// (rounded up to a page); no-op if the top chunk is already that small.
func (a *Allocator) TrimHeap(at simtime.Time, keepTopBytes int64) simtime.Duration {
	ps := a.k.PageSize()
	keepBreak := a.usedEnd + keepTopBytes
	if rem := keepBreak % ps; rem != 0 {
		keepBreak += ps - rem
	}
	pages := (a.BreakBytes() - keepBreak) / ps
	if pages <= 0 {
		return 0
	}
	cost := a.k.Sbrk(at, a.proc, -pages)
	a.stats.HeapBytes = a.BreakBytes()
	return cost
}

// mallocMmap serves a large request with a dedicated anonymous mapping.
func (a *Allocator) mallocMmap(at simtime.Time, size int64) (*Block, simtime.Duration) {
	ps := a.k.PageSize()
	chunk := a.chunkSize(size)
	pages := (chunk + ps - 1) / ps
	region, cost := a.k.Mmap(at, a.proc, pages)
	cost += a.cfg.MallocFastCost
	a.mmapBytes += pages * ps
	a.stats.MmapBytes = a.mmapBytes
	b := a.blocks.Get()
	*b = Block{
		Size:      size,
		ChunkSize: pages * ps,
		Kind:      alloc.BlockMmap,
		Region:    region,
		EndPage:   pages,
	}
	return b, cost
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(at simtime.Time, b *Block) simtime.Duration {
	b.MarkFreed()
	a.stats.Frees++
	a.stats.BytesFreed += b.Size
	if b.Kind == alloc.BlockMmap {
		// Glibc releases mmapped chunks straight back to the OS (§2.1).
		pages := b.Region.Pages()
		cost := a.k.Munmap(at, b.Region, pages)
		a.mmapBytes -= pages * a.k.PageSize()
		a.stats.MmapBytes = a.mmapBytes
		a.blocks.Put(b)
		return cost + a.cfg.FreeCost
	}
	return a.freeHeap(at, b)
}

// Drop implements alloc.Allocator: the chunk or mapping stays allocated.
func (a *Allocator) Drop(b *Block) { a.blocks.Put(b) }

func (a *Allocator) freeHeap(at simtime.Time, b *Block) simtime.Duration {
	meta := decodeHeapMeta(b)
	a.blocks.Put(b)
	cost := a.cfg.FreeCost
	if meta.start+meta.size == a.usedEnd {
		// Chunk borders the top: merge into the top chunk, then cascade
		// any binned chunks that now border it (glibc's coalescing).
		a.usedEnd = meta.start
		for {
			fc, ok := a.byEnd.Get(a.usedEnd)
			if !ok {
				break
			}
			a.removeFree(fc)
			a.usedEnd = fc.start
		}
	} else {
		a.insertFree(freeChunk{start: meta.start, size: meta.size})
	}
	// Trim when the top chunk exceeds the threshold (M_TRIM_THRESHOLD).
	if a.cfg.TrimThreshold > 0 && a.TopBytes() > a.cfg.TrimThreshold+a.cfg.TopPad {
		lockAt := at.Add(cost)
		grant := a.breakLock.AcquireAt(lockAt)
		cost += grant.Sub(lockAt)
		cost += a.TrimHeap(at.Add(cost), a.cfg.TopPad)
	}
	return cost
}

func (a *Allocator) insertFree(fc freeChunk) {
	list, _ := a.bins.Get(fc.size)
	if len(list) == 0 {
		// The size is absent from the sorted index (emptied bins keep an
		// empty slice in the table but leave the index).
		idx := sort.Search(len(a.sizes), func(i int) bool { return a.sizes[i] >= fc.size })
		a.sizes = append(a.sizes, 0)
		copy(a.sizes[idx+1:], a.sizes[idx:])
		a.sizes[idx] = fc.size
	}
	list = append(list, fc)
	a.bins.Put(fc.size, list)
	a.binPos.Put(fc.start, int32(len(list)-1))
	a.byEnd.Put(fc.start+fc.size, fc)
	a.binnedBytes += fc.size
}

// removeFree deletes a specific free chunk (found via byEnd) in O(1): the
// binPos index locates it inside its bin list, and the vacated slot is
// back-filled by the list's last chunk.
func (a *Allocator) removeFree(fc freeChunk) {
	list, _ := a.bins.Get(fc.size)
	pos, ok := a.binPos.Get(fc.start)
	i := int(pos)
	if !ok || i >= len(list) || list[i] != fc {
		panic(fmt.Sprintf("glibcmalloc: free-chunk index out of sync for chunk at %d", fc.start))
	}
	last := len(list) - 1
	if i != last {
		list[i] = list[last]
		a.binPos.Put(list[i].start, int32(i))
	}
	a.bins.Put(fc.size, list[:last])
	a.binPos.Delete(fc.start)
	if last == 0 {
		a.dropSize(fc.size)
	}
	a.byEnd.Delete(fc.start + fc.size)
	a.binnedBytes -= fc.size
}

func (a *Allocator) dropSize(sz int64) {
	idx := sort.Search(len(a.sizes), func(i int) bool { return a.sizes[i] >= sz })
	if idx < len(a.sizes) && a.sizes[idx] == sz {
		a.sizes = append(a.sizes[:idx], a.sizes[idx+1:]...)
	}
}

// BinnedBytes returns the bytes parked in free bins (tests/diagnostics).
func (a *Allocator) BinnedBytes() int64 { return a.binnedBytes }

// Touch implements alloc.Allocator.
func (a *Allocator) Touch(at simtime.Time, b *Block) simtime.Duration {
	return alloc.TouchBlock(a.k, at, b)
}

// Access implements alloc.Allocator.
func (a *Allocator) Access(at simtime.Time, b *Block, bytes int64) simtime.Duration {
	return alloc.AccessBlock(a.k, at, b, bytes)
}

// Stats implements alloc.Allocator.
func (a *Allocator) Stats() alloc.Stats {
	st := a.stats
	st.HeapBytes = a.BreakBytes()
	st.MmapBytes = a.mmapBytes
	return st
}

// Close implements alloc.Allocator (no background machinery in Glibc).
func (a *Allocator) Close() {}
