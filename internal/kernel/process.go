package kernel

import "fmt"

// PID identifies a simulated process.
type PID int

// RegionID identifies a memory region (heap or mmapped VMA) within the
// kernel. IDs are node-global so tooling can refer to any region directly.
type RegionID int64

// RegionKind distinguishes the single brk-managed heap from mmapped VMAs.
type RegionKind int

const (
	// RegionHeap is the process's main heap, grown and shrunk with Sbrk.
	RegionHeap RegionKind = iota + 1
	// RegionAnon is an anonymous mmapped VMA.
	RegionAnon
)

func (k RegionKind) String() string {
	switch k {
	case RegionHeap:
		return "heap"
	case RegionAnon:
		return "anon"
	default:
		return fmt.Sprintf("RegionKind(%d)", int(k))
	}
}

// Region is a contiguous range of a process's virtual address space, tracked
// at page-count granularity. Page-count (rather than per-page) state keeps a
// 128 GB simulation cheap; the heap's linear growth and VMAs'
// touch-once-then-free lifecycle make counts exact for every workload in the
// paper (see DESIGN.md §1 for the one approximation: swap-in selection
// within a region is fractional).
type Region struct {
	ID   RegionID
	Proc *Process
	Kind RegionKind

	// pages is the region's current virtual size.
	pages int64
	// mapped counts pages resident in RAM (including locked).
	mapped int64
	// swapped counts pages currently in the swap area.
	swapped int64
	// locked counts mlocked pages; locked pages are resident but off the
	// LRU lists and immune to reclaim.
	locked int64

	// dead marks a region that has been fully unmapped or whose process
	// exited; late operations on it are programming errors.
	dead bool

	// lruChain holds the region's per-list span chains (index 0: active
	// anon, 1: inactive anon) — its resumable cursors into the kernel's LRU
	// arena. Maintained by the lruList operations.
	lruChain [2]ownerChain
}

// Pages returns the region's virtual size in pages.
func (r *Region) Pages() int64 { return r.pages }

// Mapped returns the resident page count (locked included).
func (r *Region) Mapped() int64 { return r.mapped }

// Swapped returns the count of pages in swap.
func (r *Region) Swapped() int64 { return r.swapped }

// Locked returns the mlocked page count.
func (r *Region) Locked() int64 { return r.locked }

// Untouched returns pages never faulted in (no RAM, no swap).
func (r *Region) Untouched() int64 { return r.pages - r.mapped - r.swapped }

// unlockedMapped is the page count eligible for the LRU lists.
func (r *Region) unlockedMapped() int64 { return r.mapped - r.locked }

func (r *Region) check() {
	if r.pages < 0 || r.mapped < 0 || r.swapped < 0 || r.locked < 0 ||
		r.locked > r.mapped || r.mapped+r.swapped > r.pages {
		panic(fmt.Sprintf("kernel: region %d inconsistent: pages=%d mapped=%d swapped=%d locked=%d",
			r.ID, r.pages, r.mapped, r.swapped, r.locked))
	}
}

// Process is a simulated OS process: one heap region plus any number of
// anonymous VMAs.
type Process struct {
	PID  PID
	Name string

	heap *Region
	vmas map[RegionID]*Region

	dead bool
}

// Heap returns the process's brk-managed heap region.
func (p *Process) Heap() *Region { return p.heap }

// VMACount returns the number of live mmapped regions.
func (p *Process) VMACount() int { return len(p.vmas) }

// RSSPages returns resident pages across heap and VMAs.
func (p *Process) RSSPages() int64 {
	n := p.heap.mapped
	for _, r := range p.vmas {
		n += r.mapped
	}
	return n
}

// Dead reports whether the process has exited.
func (p *Process) Dead() bool { return p.dead }
