package kernel

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/simtime"
)

// This file is the page-cache/file surface: reads populate the cache
// (inactive_file first, promotion to active_file on re-reference), writes
// dirty it, fsync writes it back, fadvise(DONTNEED) drops it — the monitor
// daemon's proactive-reclamation primitive.

// CreateFile registers a file of the given size owned by pid. The content
// is assumed to exist on disk (loading it is what ReadFile simulates).
func (k *Kernel) CreateFile(name string, sizePages int64, owner PID) *File {
	if sizePages < 0 {
		panic("kernel: negative file size")
	}
	if _, ok := k.files[name]; ok {
		panic(fmt.Sprintf("kernel: file %q already exists", name))
	}
	f := &File{Name: name, OwnerPID: owner, sizePages: sizePages}
	k.files[name] = f
	return f
}

// File returns the file with the given name, or nil.
func (k *Kernel) File(name string) *File { return k.files[name] }

// Files returns all live files; order is unspecified.
func (k *Kernel) Files() []*File {
	out := make([]*File, 0, len(k.files))
	for _, f := range k.files {
		out = append(out, f)
	}
	return out
}

// ReadFile reads n pages of the file at instant at. The cached share is
// served from the page cache (and promoted to active_file); misses cost a
// disk read and populate inactive_file, allocating pages — under pressure
// that allocation itself goes through the slow path.
func (k *Kernel) ReadFile(at simtime.Time, f *File, n int64) simtime.Duration {
	k.mustLiveFile(f)
	if n <= 0 {
		return 0
	}
	if n > f.sizePages {
		n = f.sizePages
	}
	hitRatio := float64(f.cached) / float64(f.sizePages)
	hits := k.probRound(float64(n) * hitRatio)
	if hits > f.cached {
		hits = f.cached
	}
	misses := n - hits

	var cost simtime.Duration
	if hits > 0 {
		// Promote the referenced share from inactive to active.
		moved := k.lru.inactiveFile.removeOwner(nil, f, hits)
		if moved > 0 {
			k.lru.activeFile.push(span{file: f, pages: moved})
		}
	}
	if misses > 0 {
		cost += k.allocPages(at, misses)
		cost += k.disk.IO(at.Add(cost), misses, false)
		f.cached += misses
		k.lru.inactiveFile.push(span{file: f, pages: misses})
	}
	return cost
}

// WriteFile appends/overwrites n pages through the page cache: pages are
// dirtied in cache and written back later (fsync, reclaim, or fadvise).
// extend grows the file when writing past the current end.
func (k *Kernel) WriteFile(at simtime.Time, f *File, n int64, extend bool) simtime.Duration {
	k.mustLiveFile(f)
	if n <= 0 {
		return 0
	}
	cost := simtime.Duration(n) * k.cfg.Costs.FileWritePerPage
	uncached := f.sizePages - f.cached
	if extend {
		f.sizePages += n
		uncached += n
	}
	newPages := min64(n, uncached)
	if newPages > 0 {
		cost += k.allocPages(at, newPages)
		f.cached += newPages
		k.lru.inactiveFile.push(span{file: f, pages: newPages})
	}
	f.dirty += newPages
	if f.dirty > f.cached {
		f.dirty = f.cached
	}
	return cost
}

// Fsync writes back all dirty pages of the file.
func (k *Kernel) Fsync(at simtime.Time, f *File) simtime.Duration {
	k.mustLiveFile(f)
	if f.dirty == 0 {
		return k.cfg.Costs.SyscallBase
	}
	cost := k.cfg.Costs.SyscallBase + k.disk.IO(at, f.dirty, true)
	f.dirty = 0
	return cost
}

// FadviseDontNeed releases the file's cached pages (writing back dirty ones
// first) and returns (pages released, cost). This is the proactive
// reclamation path: the monitor daemon pays this cost, not the
// latency-critical service.
func (k *Kernel) FadviseDontNeed(at simtime.Time, f *File) (int64, simtime.Duration) {
	k.mustLiveFile(f)
	cost := k.cfg.Costs.FadviseBase
	if f.cached == 0 {
		return 0, cost
	}
	released := f.cached
	cost += simtime.Duration(released) * k.cfg.Costs.FadvisePerPage
	if f.dirty > 0 {
		cost += k.disk.IO(at.Add(cost), f.dirty, true)
		f.dirty = 0
	}
	k.dropFileFromLRU(f, released)
	f.cached = 0
	k.freePagesBack(released)
	k.stats.FadvisedPages += released
	return released, cost
}

// DeleteFile removes the file, dropping its cache without writeback.
func (k *Kernel) DeleteFile(f *File) {
	k.mustLiveFile(f)
	if f.cached > 0 {
		k.dropFileFromLRU(f, f.cached)
		k.freePagesBack(f.cached)
		f.cached = 0
		f.dirty = 0
	}
	f.deleted = true
	delete(k.files, f.Name)
}

func (k *Kernel) dropFileFromLRU(f *File, n int64) {
	removed := k.lru.inactiveFile.removeOwner(nil, f, n)
	if removed < n {
		removed += k.lru.activeFile.removeOwner(nil, f, n-removed)
	}
	if removed != n {
		panic(fmt.Sprintf("kernel: file %q LRU accounting lost pages: want %d got %d", f.Name, n, removed))
	}
}

func (k *Kernel) mustLiveFile(f *File) {
	if f == nil || f.deleted {
		panic("kernel: operation on deleted file")
	}
}
