package kernel

import "github.com/hermes-sim/hermes/internal/simtime"

// This file implements the page-reclaim state machine the paper analyses in
// §2.3: scan the inactive lists from the LRU tail, age active pages into the
// inactive lists when they run dry, prefer dropping (clean) file cache, and
// fall back to swapping anonymous pages out to the HDD. Direct reclaim
// charges the full cost to the faulting caller; kswapd absorbs it in the
// background but still occupies the shared disk.

// directReclaim synchronously frees up to target pages on behalf of a
// faulting caller and returns the caller-visible cost.
func (k *Kernel) directReclaim(at simtime.Time, target int64) simtime.Duration {
	k.stats.DirectReclaims++
	cost := k.cfg.Costs.DirectReclaimBase
	_, c := k.reclaim(at.Add(cost), target, true)
	return cost + c
}

// reclaim frees up to target pages, returning (pages freed, time consumed).
// direct distinguishes caller-charged reclaim from kswapd work for the
// event counters; the algorithm is identical, as in Linux.
func (k *Kernel) reclaim(at simtime.Time, target int64, direct bool) (int64, simtime.Duration) {
	var freed int64
	var cost simtime.Duration

	for freed < target {
		remaining := target - freed
		switch {
		case k.lru.inactiveFile.pages > 0 && k.FileCachePages() > k.cfg.MinFilePages:
			n, c := k.reclaimFile(at.Add(cost), remaining, direct)
			freed += n
			cost += c
		case k.lru.activeFile.pages > 0 && k.FileCachePages() > k.cfg.MinFilePages:
			// Age: move tail spans from active_file to inactive_file.
			cost += k.age(k.lru.activeFile, k.lru.inactiveFile, remaining)
		case k.lru.inactiveAnon.pages > 0 && k.swapFree > 0:
			if !direct && k.disk.QueueDelay(at.Add(cost)) > 16*k.cfg.KswapdPeriod {
				// Background writeback throttling: kswapd must not queue
				// swap-out arbitrarily far ahead of the device.
				return freed, cost
			}
			n, c := k.reclaimAnon(at.Add(cost), remaining, direct)
			freed += n
			cost += c
		case k.lru.activeAnon.pages > 0 && k.swapFree > 0:
			cost += k.age(k.lru.activeAnon, k.lru.inactiveAnon, remaining)
		default:
			// Nothing reclaimable: everything is locked, swap is full, or
			// the file floor is reached with no anon to swap.
			return freed, cost
		}
	}
	k.stats.PagesReclaimed += freed
	return freed, cost
}

// age moves up to n pages from the tail of src to the head of dst, charging
// only scan cost (no I/O). Src and dst share the arena, so each aged span's
// node is recycled straight into dst.
func (k *Kernel) age(src, dst *lruList, n int64) simtime.Duration {
	pages := src.takeTail(n, dst.push)
	return simtime.Duration(pages) * k.cfg.Costs.ReclaimScanPerPage
}

// reclaimFile drops up to n pages from the inactive_file tail. Clean pages
// are released for only scan+drop cost; dirty pages are written back to the
// shared disk first — the paper's explanation for why file-cache pressure is
// mild next to anonymous pressure. Direct (caller-synchronous) writeback
// gets I/O priority.
func (k *Kernel) reclaimFile(at simtime.Time, n int64, direct bool) (int64, simtime.Duration) {
	var freed int64
	var cost simtime.Duration
	costs := &k.cfg.Costs
	k.lru.inactiveFile.takeTail(n, func(sp span) {
		f := sp.file
		cost += simtime.Duration(sp.pages) * (costs.ReclaimScanPerPage + costs.FileDropPerPage)
		// Dirty pages are spread across the file's cached pages; reclaim
		// writes back its proportional share before dropping.
		if f.dirty > 0 && f.cached > 0 {
			dirtyHere := k.probRound(float64(sp.pages) * float64(f.dirty) / float64(f.cached))
			if dirtyHere > f.dirty {
				dirtyHere = f.dirty
			}
			if dirtyHere > 0 {
				cost += k.diskIO(at.Add(cost), dirtyHere, true, direct)
				f.dirty -= dirtyHere
			}
		}
		f.cached -= sp.pages
		k.freePagesBack(sp.pages)
		freed += sp.pages
		k.stats.FileDropped += sp.pages
	})
	return freed, cost
}

// diskIO routes a reclaim transfer: synchronous (direct) reclaim gets
// head-of-line priority, kswapd queues behind its own earlier writes.
func (k *Kernel) diskIO(at simtime.Time, pages int64, write, urgent bool) simtime.Duration {
	if urgent {
		return k.disk.IOUrgent(at, pages, write)
	}
	return k.disk.IO(at, pages, write)
}

// reclaimAnon swaps up to n pages out from the inactive_anon tail. Swap-out
// occupies the HDD in cluster-sized writes; direct reclaim's writes get
// I/O priority.
func (k *Kernel) reclaimAnon(at simtime.Time, n int64, direct bool) (int64, simtime.Duration) {
	if n > k.swapFree {
		n = k.swapFree
	}
	var freed int64
	var cost simtime.Duration
	costs := &k.cfg.Costs
	k.lru.inactiveAnon.takeTail(n, func(sp span) {
		k.lastSwapOut = at
		r := sp.region
		cost += simtime.Duration(sp.pages) * costs.ReclaimScanPerPage
		cost += k.diskIO(at.Add(cost), sp.pages, true, direct)
		r.mapped -= sp.pages
		r.swapped += sp.pages
		k.swapFree -= sp.pages
		k.freePagesBack(sp.pages)
		freed += sp.pages
		k.stats.PagesSwapOut += sp.pages
	})
	return freed, cost
}

// swapIn brings n of region r's swapped pages back into RAM on behalf of a
// faulting caller (a major fault): allocate pages, read from the swap area
// with synchronous-I/O priority.
func (k *Kernel) swapIn(at simtime.Time, r *Region, n int64) simtime.Duration {
	if n <= 0 {
		return 0
	}
	if n > r.swapped {
		n = r.swapped
	}
	cost := k.allocPages(at, n)
	cost += k.disk.IOUrgent(at.Add(cost), n, false)
	cost += simtime.Duration(n) * k.cfg.Costs.SwapInPerPageCPU
	r.swapped -= n
	r.mapped += n
	k.swapFree += n
	k.lru.activeAnon.push(span{region: r, pages: n})
	k.stats.MajorFaults += n
	k.stats.PagesSwappedIn += n
	return cost
}
