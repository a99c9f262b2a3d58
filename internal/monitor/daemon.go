package monitor

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/hermes-sim/hermes/internal/kernel"
	"github.com/hermes-sim/hermes/internal/simtime"
)

// Config tunes the daemon.
type Config struct {
	// Period is the monitoring interval.
	Period simtime.Duration
	// AdvThreshold is the node memory-usage fraction above which the
	// daemon starts advising file-cache release (adv_thr in §3.3).
	AdvThreshold float64
	// FileCacheTarget is the fraction of total memory the batch file
	// cache is driven below once advising starts.
	FileCacheTarget float64
}

// DefaultConfig returns the settings used in the evaluation.
func DefaultConfig() Config {
	return Config{
		Period:          100 * simtime.Millisecond,
		AdvThreshold:    0.90,
		FileCacheTarget: 0.05,
	}
}

// Validate reports whether the configuration is well-formed, naming the
// offending field so config loaders can surface the message verbatim.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("monitor: Period must be > 0 (got %v)", c.Period)
	}
	if !(0 < c.AdvThreshold && c.AdvThreshold <= 1) {
		return fmt.Errorf("monitor: AdvThreshold must be in (0, 1] (got %v)", c.AdvThreshold)
	}
	if !(0 <= c.FileCacheTarget && c.FileCacheTarget < 1) {
		return fmt.Errorf("monitor: FileCacheTarget must be in [0, 1) (got %v)", c.FileCacheTarget)
	}
	return nil
}

// Stats counts daemon activity for the overhead experiment (§5.5).
type Stats struct {
	Scans         int64
	AdviseCalls   int64
	PagesReleased int64
}

// Daemon is the memory monitor daemon. One runs per node.
type Daemon struct {
	k        *kernel.Kernel
	cfg      Config
	registry *Registry
	task     *simtime.PeriodicTask
	stats    Stats
	// advise is the kernel's fadvise(DONTNEED); tests wrap it to record
	// the release order.
	advise func(simtime.Time, *kernel.File) (int64, simtime.Duration)
}

// NewDaemon starts the daemon on the node's scheduler. Stop releases it.
func NewDaemon(k *kernel.Kernel, registry *Registry, cfg Config) *Daemon {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Daemon{k: k, cfg: cfg, registry: registry, advise: k.FadviseDontNeed}
	d.task = simtime.NewPeriodicTask(k.Scheduler(), cfg.Period, d.tick)
	return d
}

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() Stats { return d.stats }

// Utilization returns the daemon's virtual-CPU share (overhead reporting).
func (d *Daemon) Utilization(now simtime.Time) float64 { return d.task.Utilization(now) }

// Stop halts the daemon.
func (d *Daemon) Stop() { d.task.Stop() }

// tick is one monitoring pass: when used memory exceeds adv_thr, advise the
// kernel to drop batch jobs' file cache in largest-file-first order until
// the batch file cache is below target or exhausted (§3.3).
func (d *Daemon) tick(now simtime.Time) simtime.Duration {
	d.stats.Scans++
	// The bookkeeping scan itself is cheap but not free; the paper reports
	// ~2.4% CPU for the daemon.
	busy := 50 * simtime.Microsecond
	if d.k.UsedFraction() < d.cfg.AdvThreshold {
		return busy
	}
	files, cached := d.batchFilesLargestFirst()
	targetPages := int64(d.cfg.FileCacheTarget * float64(d.k.TotalPages()))
	at := now.Add(busy)
	for _, f := range files {
		if cached <= targetPages {
			break
		}
		// fadvise drops only f's cache, so the running total stays exact.
		released, cost := d.advise(at, f)
		cached -= released
		busy += cost
		at = at.Add(cost)
		d.stats.AdviseCalls++
		d.stats.PagesReleased += released
	}
	return busy
}

// batchFilesLargestFirst is the tick's one pass over the node's files: it
// keeps the registered batch jobs' files that hold cache, sorted by cached
// size descending (names break ties), and returns them with their total
// cache. Releasing the largest file first makes a large chunk of memory
// available at once and minimises advise calls (§3.3). The pass costs the
// same however many PIDs the registry holds.
func (d *Daemon) batchFilesLargestFirst() ([]*kernel.File, int64) {
	all := d.k.Files()
	files := all[:0]
	var cached int64
	for _, f := range all {
		if f.CachedPages() > 0 && d.registry.IsBatch(f.OwnerPID) {
			files = append(files, f)
			cached += f.CachedPages()
		}
	}
	slices.SortFunc(files, func(a, b *kernel.File) int {
		if c := cmp.Compare(b.CachedPages(), a.CachedPages()); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return files, cached
}
