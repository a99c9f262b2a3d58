// Package kernel simulates the Linux memory-management subsystem that the
// paper's analysis targets (§2.1, §2.3): on-demand virtual-physical mapping
// construction, the four-list LRU page reclaim machinery with its high/low/
// minimum watermarks, kswapd background reclaim, synchronous direct reclaim,
// swapping to an HDD, and the page cache with fadvise-driven release.
//
// The simulation is page-accurate in aggregate (counts per region and file,
// spans on the LRU lists) and runs in virtual time on a simtime.Scheduler.
// Every operation takes the caller's current instant and returns the
// latency the caller observes, so foreground stalls, background reclaim and
// disk queueing compose exactly as they do on a real node.
package kernel

import (
	"fmt"
	"math"

	"github.com/hermes-sim/hermes/internal/simtime"
	"github.com/hermes-sim/hermes/internal/workload/randgen"
)

// Config describes the simulated node. The defaults mirror the paper's
// testbed: 128 GB DRAM, HDD swap, Linux 4.4-style watermarks at roughly 1‰
// of the zone (§2.3: "low and high watermarks are 53 MB and 64 MB" on a
// 60 GB zone).
type Config struct {
	// TotalMemory is DRAM capacity in bytes.
	TotalMemory int64
	// SwapBytes is the swap-area capacity in bytes.
	SwapBytes int64
	// PageSize in bytes; 4 KiB everywhere in the paper.
	PageSize int64
	// Disk is the HDD cost model (swap and file I/O share the device).
	Disk DiskConfig
	// Costs is the virtual-time cost table.
	Costs CostModel
	// Seed drives all stochastic choices (jitter, fractional rounding).
	Seed uint64

	// KswapdPeriod is the background-reclaim scan interval.
	KswapdPeriod simtime.Duration
	// KswapdBatchPages caps pages reclaimed per kswapd tick. File-cache
	// drops hit this cap; anon reclaim is further throttled by the disk.
	KswapdBatchPages int64

	// MinFilePages protects a floor of file-cache pages from reclaim,
	// standing in for the kernel's working-set protection. Below this the
	// reclaimer turns to anonymous memory (swap).
	MinFilePages int64

	// DirectReclaimMarginPages is the extra headroom direct reclaim
	// restores beyond the minimum watermark (Linux reclaims in
	// SWAP_CLUSTER_MAX batches until the watermark is safe). Small values
	// keep individual direct-reclaim stalls in the low-millisecond range.
	DirectReclaimMarginPages int64

	// KswapdBoostPages extends kswapd's stop target beyond the high
	// watermark once it has been woken: under sustained pressure it
	// rebuilds a rolling free reserve instead of stopping at the bare
	// watermark (Linux's watermark boosting). This is the mechanism
	// behind the paper's observation that available memory "could not
	// further drop below 300 MB due to the indirect and direct reclaim
	// mechanisms" (§2.2) — the default keeps roughly that reserve.
	KswapdBoostPages int64
}

// DefaultConfig returns the paper-testbed node configuration.
func DefaultConfig() Config {
	const gib = int64(1) << 30
	return Config{
		TotalMemory:              128 * gib,
		SwapBytes:                64 * gib,
		PageSize:                 4096,
		Disk:                     DefaultDiskConfig(),
		Costs:                    DefaultCostModel(),
		Seed:                     1,
		KswapdPeriod:             500 * simtime.Microsecond,
		KswapdBatchPages:         512,
		MinFilePages:             (64 * (1 << 20)) / 4096, // 64 MiB
		DirectReclaimMarginPages: 64,
		KswapdBoostPages:         (256 * (1 << 20)) / 4096, // 256 MiB reserve
	}
}

// Validate reports whether the configuration is well-formed; New panics
// on a configuration it rejects.
func (c Config) Validate() error {
	if c.TotalMemory <= 0 || c.PageSize <= 0 || c.TotalMemory%c.PageSize != 0 {
		return fmt.Errorf("kernel: bad memory geometry: total=%d page=%d", c.TotalMemory, c.PageSize)
	}
	if c.SwapBytes < 0 || c.SwapBytes%c.PageSize != 0 {
		return fmt.Errorf("kernel: bad swap size %d", c.SwapBytes)
	}
	if c.KswapdPeriod <= 0 || c.KswapdBatchPages <= 0 || c.DirectReclaimMarginPages < 0 {
		return fmt.Errorf("kernel: bad kswapd config")
	}
	return c.Disk.validate()
}

// Stats counts kernel events for the experiment reports.
type Stats struct {
	MinorFaults    int64
	MajorFaults    int64
	SlowPathPages  int64
	DirectReclaims int64
	KswapdRuns     int64
	PagesReclaimed int64
	PagesSwappedIn int64
	PagesSwapOut   int64
	FileDropped    int64
	FadvisedPages  int64
	OOMKills       int64
}

// OOMHandler is invoked when an allocation cannot be satisfied even after
// direct reclaim. It should release memory (e.g. kill a batch container) and
// report whether it did; returning false lets the kernel panic, which in a
// deterministic simulation is the correct "the experiment is misconfigured"
// signal.
type OOMHandler func(k *Kernel, at simtime.Time, needPages int64) bool

// Kernel is the simulated memory-management subsystem of one node.
type Kernel struct {
	cfg   Config
	sched *simtime.Scheduler
	rng   *randgen.Stream
	disk  *Disk

	totalPages int64
	freePages  int64
	swapTotal  int64
	swapFree   int64

	minWM  int64 // pages
	lowWM  int64
	highWM int64
	// wmScale multiplies the boot-time watermark heuristic (0 reads as 1);
	// SetWatermarkScale retunes it mid-run.
	wmScale float64

	lru lruSet

	procs      map[PID]*Process
	files      map[string]*File
	nextPID    PID
	nextRegion RegionID

	kswapdOn   bool
	kswapdTask *simtime.PeriodicTask
	// lastSwapOut remembers when reclaim last had to swap, distinguishing
	// swap-bound from file-bound pressure for the ambient factor.
	lastSwapOut simtime.Time

	oom OOMHandler

	stats Stats
}

// New creates a kernel on the given scheduler.
func New(sched *simtime.Scheduler, cfg Config) *Kernel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	k := &Kernel{
		cfg:        cfg,
		sched:      sched,
		rng:        randgen.Split(cfg.Seed, streamKernel),
		disk:       NewDisk(cfg.Disk),
		totalPages: cfg.TotalMemory / cfg.PageSize,
		swapTotal:  cfg.SwapBytes / cfg.PageSize,
		lru:        newLRUSet(),
		procs:      make(map[PID]*Process),
		files:      make(map[string]*File),
	}
	k.freePages = k.totalPages
	k.swapFree = k.swapTotal
	k.setWatermarks()
	return k
}

// setWatermarks follows the Linux min_free_kbytes heuristic:
// min ≈ 4·sqrt(mem_kb) KB, low = 1.25·min, high = 1.5·min. On 128 GB this
// yields ≈45/56/68 MB, matching the paper's observation that watermarks sit
// near 1‰ of the zone and are "too small to timely trigger" reclaim.
func (k *Kernel) setWatermarks() {
	memKB := float64(k.cfg.TotalMemory) / 1024
	minKB := 4 * math.Sqrt(memKB)
	minPages := int64(minKB*1024) / k.cfg.PageSize
	if minPages < 16 {
		minPages = 16
	}
	if k.wmScale > 1 {
		minPages = int64(float64(minPages) * k.wmScale)
	}
	k.minWM = minPages
	k.lowWM = minPages * 5 / 4
	k.highWM = minPages * 3 / 2
}

// SetWatermarkScale retunes the zone watermarks to scale × the boot-time
// heuristic (clamped to >= 1) — the min_free_kbytes knob the paper's §2.2
// discussion turns: higher watermarks wake kswapd earlier and keep a
// larger free reserve, trading effective capacity for fewer direct-reclaim
// stalls. When the raised low watermark is already breached, kswapd wakes
// immediately. The adaptive control plane's watermark action drives this.
func (k *Kernel) SetWatermarkScale(scale float64) {
	if scale < 1 {
		scale = 1
	}
	k.wmScale = scale
	k.setWatermarks()
	if k.freePages < k.lowWM {
		k.wakeKswapd()
	}
}

// WatermarkScale returns the current watermark scale (1 when never tuned).
func (k *Kernel) WatermarkScale() float64 {
	if k.wmScale < 1 {
		return 1
	}
	return k.wmScale
}

// Scheduler returns the kernel's scheduler (shared by the whole node).
func (k *Kernel) Scheduler() *simtime.Scheduler { return k.sched }

// Disk returns the node's disk device.
func (k *Kernel) Disk() *Disk { return k.disk }

// Costs returns the kernel's cost table, borrowed read-only: the hot paths
// read a field or two per call, and a pointer spares them copying the whole
// table. Callers must not modify it.
func (k *Kernel) Costs() *CostModel { return &k.cfg.Costs }

// PageSize returns the page size in bytes.
func (k *Kernel) PageSize() int64 { return k.cfg.PageSize }

// Stream IDs under a node's Config.Seed: every node-local subsystem derives
// its own independent randgen stream from (Seed, id), so subsystems never
// perturb each other's draw sequences. IDs are registered here — the one
// place per-node randomness is rooted — to keep them collision-free.
const (
	// streamKernel drives the kernel's own stochastic choices and the
	// request-latency jitter (workload.JitterRequest draws from Kernel.RNG).
	streamKernel uint64 = iota
	// StreamPressure drives workload.StartPressure's co-tenant behaviour.
	StreamPressure
)

// RNG exposes the kernel's deterministic random stream: request jitter and
// the kernel's own stochastic choices share it, so a single seed reproduces
// a whole experiment.
func (k *Kernel) RNG() *randgen.Stream { return k.rng }

// NewStream derives an independent stream (id, instance) from the node's
// seed (ids are registered in the Stream* table; instance distinguishes
// coexisting subsystems of one kind — e.g. a generator's PID). Subsystems
// that draw outside the kernel's own sequence — pressure generators,
// future co-tenants — take their stream here instead of sharing RNG, so
// their draws never shift the kernel's, nor each other's.
func (k *Kernel) NewStream(id, instance uint64) *randgen.Stream {
	return randgen.Split(randgen.SplitSeed(k.cfg.Seed, id), instance)
}

// Stats returns a copy of the event counters.
func (k *Kernel) Stats() Stats { return k.stats }

// TotalPages returns DRAM capacity in pages.
func (k *Kernel) TotalPages() int64 { return k.totalPages }

// FreePages returns the free-page count.
func (k *Kernel) FreePages() int64 { return k.freePages }

// FreeBytes returns free memory in bytes.
func (k *Kernel) FreeBytes() int64 { return k.freePages * k.cfg.PageSize }

// SwapFreePages returns free swap slots.
func (k *Kernel) SwapFreePages() int64 { return k.swapFree }

// SwapUsedPages returns occupied swap slots.
func (k *Kernel) SwapUsedPages() int64 { return k.swapTotal - k.swapFree }

// FileCachePages returns the page-cache size.
func (k *Kernel) FileCachePages() int64 {
	return k.lru.activeFile.pages + k.lru.inactiveFile.pages
}

// AvailableBytes estimates /proc/meminfo's MemAvailable: free pages plus
// cleanly reclaimable file cache. The paper's pressure generators push this
// to ~300 MB.
func (k *Kernel) AvailableBytes() int64 {
	var dirty int64
	for _, f := range k.files {
		dirty += f.dirty
	}
	avail := k.freePages + k.FileCachePages() - dirty
	if avail < 0 {
		avail = 0
	}
	return avail * k.cfg.PageSize
}

// UsedFraction returns 1 - free/total, the monitor daemon's trigger metric.
func (k *Kernel) UsedFraction() float64 {
	return 1 - float64(k.freePages)/float64(k.totalPages)
}

// Watermarks returns (min, low, high) in pages.
func (k *Kernel) Watermarks() (min, low, high int64) {
	return k.minWM, k.lowWM, k.highWM
}

// SetOOMHandler installs the out-of-memory policy hook.
func (k *Kernel) SetOOMHandler(h OOMHandler) { k.oom = h }

// AmbientFactor returns the uniform foreground slowdown caused by active
// reclaim at instant now: zero when kswapd is idle, the swap factor while
// reclaim is swap-bound (it swapped within the last 50 ms), the milder file
// factor while reclaim survives on clean file drops. Workloads multiply
// their request latencies by 1+factor (see workload.JitterRequest).
func (k *Kernel) AmbientFactor(now simtime.Time) float64 {
	if !k.kswapdOn {
		return 0
	}
	if k.lastSwapOut > 0 && now.Sub(k.lastSwapOut) < 50*simtime.Millisecond {
		return k.cfg.Costs.AmbientSwapFactor
	}
	return k.cfg.Costs.AmbientFileFactor
}

// probRound converts a fractional page count into an integer page count with
// unbiased probabilistic rounding, keeping aggregate behaviour exact while
// staying deterministic under the seed.
func (k *Kernel) probRound(x float64) int64 {
	n := int64(x)
	// Callers pass products; converting x rounds the inlined product, so
	// no platform fuses it into the subtract.
	if k.rng.Float64() < float64(x)-float64(n) {
		n++
	}
	return n
}

// allocPages obtains n physical pages for a faulting caller at instant at,
// returning the caller-visible cost. This is the paper's central slow path:
// below the low watermark kswapd is woken and the buddy-allocator slow path
// is charged; below the minimum watermark the caller performs synchronous
// direct reclaim, which may swap to the HDD.
func (k *Kernel) allocPages(at simtime.Time, n int64) simtime.Duration {
	if n <= 0 {
		return 0
	}
	var cost simtime.Duration
	entryFree := k.freePages

	if k.freePages-n < k.lowWM {
		k.wakeKswapd()
	}
	if k.freePages-n < k.minWM {
		// Synchronous direct reclaim: restore the minimum watermark plus a
		// small margin so the very next fault does not immediately repeat
		// the work.
		need := k.minWM + n + k.cfg.DirectReclaimMarginPages - k.freePages
		cost += k.directReclaim(at.Add(cost), need)
	}
	if k.freePages < n {
		// Reclaim could not keep up (e.g. everything locked or swap full):
		// invoke the OOM policy until the allocation fits.
		for k.freePages < n {
			if k.oom == nil || !k.oom(k, at.Add(cost), n-k.freePages) {
				panic(fmt.Sprintf("kernel: out of memory: need %d pages, free %d, no OOM handler progress", n, k.freePages))
			}
			k.stats.OOMKills++
		}
	}
	// Buddy-allocator slow-path surcharge when the zone was already
	// depleted at entry. The per-page rate depends on what reclaim has to
	// do: plentiful clean file cache keeps the path cheap (Fig 3 "file
	// cache pressure"); otherwise the anon/swap-bound rate applies
	// (Fig 3 "anonymous page pressure").
	if entryFree < k.lowWM {
		rate := k.cfg.Costs.AllocSlowPathPerPage
		if k.FileCachePages() > k.cfg.MinFilePages+4*n {
			rate = k.cfg.Costs.AllocSlowPathFilePerPage
		}
		cost += simtime.Duration(n) * rate
		k.stats.SlowPathPages += n
	}
	k.freePages -= n
	return cost
}

// freePagesBack returns n pages to the free pool.
func (k *Kernel) freePagesBack(n int64) {
	if n < 0 {
		panic("kernel: freeing negative pages")
	}
	k.freePages += n
	if k.freePages > k.totalPages {
		panic(fmt.Sprintf("kernel: free pages %d exceed total %d", k.freePages, k.totalPages))
	}
}

// wakeKswapd starts background reclaim if it is not already running.
func (k *Kernel) wakeKswapd() {
	if k.kswapdOn {
		return
	}
	k.kswapdOn = true
	k.stats.KswapdRuns++
	k.kswapdTask = simtime.NewPeriodicTask(k.sched, k.cfg.KswapdPeriod, k.kswapdTick)
}

// kswapdTick reclaims up to the batch cap, stopping once free memory clears
// the high watermark. Anon reclaim books real disk time, so a swap-bound
// kswapd also delays foreground I/O — deliberately. (The anon path of
// reclaim() additionally backs off when the disk queue is deep, mirroring
// writeback throttling, so background bookings cannot run unboundedly ahead
// of the clock.)
func (k *Kernel) kswapdTick(now simtime.Time) simtime.Duration {
	boost := k.cfg.KswapdBoostPages
	if max := k.totalPages / 16; boost > max {
		boost = max // small nodes cannot sustain a 256 MiB reserve
	}
	stopAt := k.highWM + boost
	if k.freePages >= stopAt {
		k.kswapdOn = false
		k.kswapdTask.Stop()
		return 0
	}
	target := stopAt - k.freePages
	if target > k.cfg.KswapdBatchPages {
		target = k.cfg.KswapdBatchPages
	}
	_, busy := k.reclaim(now, target, false)
	return busy
}

// KswapdActive reports whether background reclaim is currently running.
func (k *Kernel) KswapdActive() bool { return k.kswapdOn }

// CheckInvariants panics if page accounting is inconsistent. Tests call it
// after every mutation batch; experiments call it at phase boundaries.
func (k *Kernel) CheckInvariants() {
	var mapped, locked, swapped int64
	for _, p := range k.procs {
		regions := []*Region{p.heap}
		for _, r := range p.vmas {
			regions = append(regions, r)
		}
		for _, r := range regions {
			r.check()
			mapped += r.mapped
			locked += r.locked
			swapped += r.swapped
		}
	}
	var cached int64
	for _, f := range k.files {
		f.check()
		cached += f.cached
	}
	if k.freePages+mapped+cached != k.totalPages {
		panic(fmt.Sprintf("kernel: page accounting broken: free=%d mapped=%d cached=%d total=%d",
			k.freePages, mapped, cached, k.totalPages))
	}
	if k.swapTotal-k.swapFree != swapped {
		panic(fmt.Sprintf("kernel: swap accounting broken: used=%d regions=%d", k.swapTotal-k.swapFree, swapped))
	}
	anonLRU := k.lru.activeAnon.pages + k.lru.inactiveAnon.pages
	if anonLRU != mapped-locked {
		panic(fmt.Sprintf("kernel: anon LRU %d != unlocked mapped %d", anonLRU, mapped-locked))
	}
	fileLRU := k.lru.activeFile.pages + k.lru.inactiveFile.pages
	if fileLRU != cached {
		panic(fmt.Sprintf("kernel: file LRU %d != cached %d", fileLRU, cached))
	}
	for kind := listActiveAnon; kind <= listInactiveFile; kind++ {
		k.lru.byKind(kind).checkChains()
	}
}
