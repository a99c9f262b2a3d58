package kernel

import (
	"fmt"
	"slices"

	"github.com/hermes-sim/hermes/internal/simtime"
)

// This file is the virtual-memory syscall surface the allocators sit on:
// process lifecycle, Sbrk, Mmap/Munmap, first-touch faulting, access (with
// possible swap-in), and Mlock/Munlock for Hermes' bulk mapping
// construction. Every call takes the caller's current instant and returns
// the latency the caller observes.

// CreateProcess registers a new process with an empty heap.
func (k *Kernel) CreateProcess(name string) *Process {
	k.nextPID++
	k.nextRegion++
	p := &Process{
		PID:  k.nextPID,
		Name: name,
		vmas: make(map[RegionID]*Region),
	}
	p.heap = &Region{ID: k.nextRegion, Proc: p, Kind: RegionHeap}
	k.procs[p.PID] = p
	return p
}

// Process returns the live process with the given pid, or nil.
func (k *Kernel) Process(pid PID) *Process {
	p := k.procs[pid]
	if p == nil || p.dead {
		return nil
	}
	return p
}

// Processes returns the live process count.
func (k *Kernel) Processes() int { return len(k.procs) }

// ExitProcess tears a process down: anonymous pages are freed immediately
// and swap slots released, but file-cache pages the process populated stay
// resident — exactly the behaviour the paper calls out as the source of
// lingering file-cache pressure after batch jobs finish (§2.3).
func (k *Kernel) ExitProcess(p *Process) {
	if p.dead {
		return
	}
	k.releaseRegion(p.heap, p.heap.pages)
	// Release VMAs in ascending RegionID order: releaseRegion mutates the
	// LRU lists, the free-page pool and the swap accounting, so the release
	// order must not depend on Go map iteration for seed replay to be
	// bit-identical.
	ids := make([]RegionID, 0, len(p.vmas))
	for id := range p.vmas {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		r := p.vmas[id]
		k.releaseRegion(r, r.pages)
		r.dead = true
	}
	p.heap.dead = true
	p.vmas = make(map[RegionID]*Region)
	p.dead = true
	delete(k.procs, p.PID)
}

// Sbrk grows (deltaPages > 0) or shrinks (deltaPages < 0) the heap and
// returns the syscall cost. Growth maps nothing — pages fault in on first
// touch, the on-demand construction of §2.1. Shrink releases the trimmed
// pages back to the kernel.
func (k *Kernel) Sbrk(at simtime.Time, p *Process, deltaPages int64) simtime.Duration {
	k.mustLive(p)
	cost := k.cfg.Costs.SyscallBase + k.cfg.Costs.SbrkExtra
	h := p.heap
	if deltaPages >= 0 {
		h.pages += deltaPages
		return cost
	}
	shrink := -deltaPages
	if shrink > h.pages {
		panic(fmt.Sprintf("kernel: sbrk shrink %d exceeds heap size %d", shrink, h.pages))
	}
	k.releaseRegion(h, shrink)
	return cost
}

// Mmap creates an anonymous VMA of the given size. Nothing is mapped until
// first touch (or PopulateLocked).
func (k *Kernel) Mmap(at simtime.Time, p *Process, pages int64) (*Region, simtime.Duration) {
	k.mustLive(p)
	if pages <= 0 {
		panic("kernel: mmap of non-positive size")
	}
	k.nextRegion++
	r := &Region{ID: k.nextRegion, Proc: p, Kind: RegionAnon, pages: pages}
	p.vmas[r.ID] = r
	return r, k.cfg.Costs.SyscallBase + k.cfg.Costs.MmapExtra
}

// Munmap releases the trailing `pages` of the VMA (the whole VMA when pages
// equals its size, which removes it). Hermes' delayed shrink uses the
// partial form.
func (k *Kernel) Munmap(at simtime.Time, r *Region, pages int64) simtime.Duration {
	k.mustLiveRegion(r)
	if r.Kind != RegionAnon {
		panic("kernel: munmap on heap region")
	}
	if pages <= 0 || pages > r.pages {
		panic(fmt.Sprintf("kernel: munmap %d pages of %d-page region", pages, r.pages))
	}
	cost := k.cfg.Costs.SyscallBase + k.cfg.Costs.MunmapExtra
	k.releaseRegion(r, pages)
	if r.pages == 0 {
		r.dead = true
		delete(r.Proc.vmas, r.ID)
	}
	return cost
}

// releaseRegion gives `pages` of the region back to the kernel, consuming
// untouched, then locked, then mapped, then swapped pages — the order in
// which a trailing trim meets page states in practice (fresh reservation at
// the break, then older resident data).
func (k *Kernel) releaseRegion(r *Region, pages int64) {
	if pages <= 0 {
		return
	}
	if pages > r.pages {
		panic(fmt.Sprintf("kernel: releasing %d pages of %d-page region", pages, r.pages))
	}
	remaining := pages

	take := min64(remaining, r.Untouched())
	remaining -= take

	if remaining > 0 && r.locked > 0 {
		n := min64(remaining, r.locked)
		r.locked -= n
		r.mapped -= n
		k.freePagesBack(n)
		remaining -= n
	}
	if remaining > 0 && r.unlockedMapped() > 0 {
		n := min64(remaining, r.unlockedMapped())
		removed := k.lru.activeAnon.removeOwner(r, nil, n)
		if removed < n {
			removed += k.lru.inactiveAnon.removeOwner(r, nil, n-removed)
		}
		if removed != n {
			panic(fmt.Sprintf("kernel: region %d LRU accounting lost pages: want %d got %d", r.ID, n, removed))
		}
		r.mapped -= n
		k.freePagesBack(n)
		remaining -= n
	}
	if remaining > 0 && r.swapped > 0 {
		n := min64(remaining, r.swapped)
		r.swapped -= n
		k.swapFree += n
		remaining -= n
	}
	if remaining > 0 {
		panic(fmt.Sprintf("kernel: region %d release shortfall %d", r.ID, remaining))
	}
	r.pages -= pages
}

// FaultIn maps n never-touched pages of the region (first-touch minor
// faults): the on-demand virtual-physical mapping construction of §2.1.
// perPage selects the heap or mmap fault cost. When the OOM policy that
// the allocation invoked killed the faulting process itself, the pages go
// back to the free pool and nothing is mapped.
func (k *Kernel) FaultIn(at simtime.Time, r *Region, n int64) simtime.Duration {
	k.mustLiveRegion(r)
	if n <= 0 {
		return 0
	}
	if n > r.Untouched() {
		panic(fmt.Sprintf("kernel: fault-in %d pages but only %d untouched in region %d", n, r.Untouched(), r.ID))
	}
	cost := k.allocPages(at, n)
	if r.dead || r.Proc.dead {
		k.freePagesBack(n)
		return cost
	}
	perPage := k.cfg.Costs.MmapFaultPerPage
	if r.Kind == RegionHeap {
		perPage = k.cfg.Costs.HeapFaultPerPage
	}
	cost += simtime.Duration(n) * perPage
	r.mapped += n
	k.lru.activeAnon.push(span{region: r, pages: n})
	k.stats.MinorFaults += n
	return cost
}

// Access models the application touching n pages of previously-faulted
// memory. Pages that were swapped out come back in via major faults; the
// share of swapped pages hit is the region's swapped fraction (see DESIGN.md
// for this single fractional approximation).
func (k *Kernel) Access(at simtime.Time, r *Region, n int64) simtime.Duration {
	k.mustLiveRegion(r)
	if n <= 0 {
		return 0
	}
	touched := r.mapped + r.swapped
	if touched == 0 {
		return 0
	}
	if n > touched {
		n = touched
	}
	if r.swapped == 0 {
		return 0
	}
	hitSwap := k.probRound(float64(n) * float64(r.swapped) / float64(touched))
	if hitSwap > r.swapped {
		hitSwap = r.swapped
	}
	return k.swapIn(at, r, hitSwap)
}

// PopulateLocked is Hermes' mapping-construction primitive: allocate and map
// n untouched pages in one bulk mlock call (≥40% cheaper per page than
// touch-by-iteration, §4) and pin them so they cannot be swapped before the
// reservation is handed out.
func (k *Kernel) PopulateLocked(at simtime.Time, r *Region, n int64) simtime.Duration {
	k.mustLiveRegion(r)
	if n <= 0 {
		return 0
	}
	if n > r.Untouched() {
		panic(fmt.Sprintf("kernel: mlock-populate %d pages but only %d untouched in region %d", n, r.Untouched(), r.ID))
	}
	cost := k.cfg.Costs.SyscallBase + k.cfg.Costs.MlockBase
	cost += k.allocPages(at.Add(cost), n)
	cost += simtime.Duration(n) * k.cfg.Costs.MlockPerPage
	r.mapped += n
	r.locked += n
	k.stats.MinorFaults += n
	return cost
}

// MremapGrow extends an anonymous VMA in place by extraPages (mremap with
// MREMAP_MAYMOVE). The new tail is untouched and faults on first access —
// Hermes uses this to expand a pooled chunk to a larger request so only the
// delta needs mapping construction (§3.2.2).
func (k *Kernel) MremapGrow(at simtime.Time, r *Region, extraPages int64) simtime.Duration {
	k.mustLiveRegion(r)
	if r.Kind != RegionAnon {
		panic("kernel: mremap on heap region")
	}
	if extraPages <= 0 {
		panic("kernel: mremap grow by non-positive size")
	}
	r.pages += extraPages
	return k.cfg.Costs.SyscallBase + k.cfg.Costs.MmapExtra
}

// MadviseFree releases n resident, unlocked pages of the region back to the
// kernel while keeping the virtual range mapped — jemalloc's decay-purge
// primitive (madvise MADV_FREE/MADV_DONTNEED). The pages become untouched:
// the next access re-faults them.
func (k *Kernel) MadviseFree(at simtime.Time, r *Region, n int64) simtime.Duration {
	k.mustLiveRegion(r)
	if n <= 0 {
		return 0
	}
	if n > r.unlockedMapped() {
		panic(fmt.Sprintf("kernel: madvise-free %d pages but only %d unlocked mapped in region %d",
			n, r.unlockedMapped(), r.ID))
	}
	removed := k.lru.activeAnon.removeOwner(r, nil, n)
	if removed < n {
		removed += k.lru.inactiveAnon.removeOwner(r, nil, n-removed)
	}
	if removed != n {
		panic(fmt.Sprintf("kernel: region %d LRU accounting lost pages in madvise: want %d got %d", r.ID, n, removed))
	}
	r.mapped -= n
	k.freePagesBack(n)
	return k.cfg.Costs.SyscallBase + simtime.Duration(n)*k.cfg.Costs.FadvisePerPage
}

// Munlock unpins n locked pages, making them reclaimable again. Hermes calls
// this when reserved memory is handed to the process (§4).
func (k *Kernel) Munlock(at simtime.Time, r *Region, n int64) simtime.Duration {
	k.mustLiveRegion(r)
	if n <= 0 {
		return 0
	}
	if n > r.locked {
		panic(fmt.Sprintf("kernel: munlock %d pages but only %d locked in region %d", n, r.locked, r.ID))
	}
	r.locked -= n
	k.lru.activeAnon.push(span{region: r, pages: n})
	return k.cfg.Costs.SyscallBase + k.cfg.Costs.MunlockBase +
		simtime.Duration(n)*k.cfg.Costs.MunlockPerPage
}

func (k *Kernel) mustLive(p *Process) {
	if p == nil || p.dead {
		panic("kernel: operation on dead process")
	}
}

func (k *Kernel) mustLiveRegion(r *Region) {
	if r == nil || r.dead || r.Proc == nil || r.Proc.dead {
		panic("kernel: operation on dead region")
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
