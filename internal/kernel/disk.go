package kernel

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/simtime"
)

// Disk models the 7200 rpm HDD the paper's testbed used for both swap and
// the RocksDB data directory. It is a single-queue device: an I/O issued
// while an earlier one is in flight waits for it. This queueing is what
// couples background swap traffic (kswapd, direct reclaim) to foreground
// service I/O — the emergent effect behind RocksDB's tens-of-milliseconds
// large-request latency under anonymous-page pressure (paper Fig. 10b).
type Disk struct {
	cfg       DiskConfig
	busyUntil simtime.Time

	// Counters for experiment reporting.
	Reads      int64
	Writes     int64
	PagesRead  int64
	PagesWrite int64
	BusyTime   simtime.Duration
}

// DiskConfig holds the HDD cost model. Defaults are calibrated so that a
// 32-page swap cluster costs ~3 ms, putting direct-reclaim-with-swap events
// in the low-millisecond range the paper reports for pressured allocations.
type DiskConfig struct {
	// SeekTime is the positioning cost charged once per I/O operation.
	SeekTime simtime.Duration
	// TransferPerPage is the sequential transfer time per 4 KiB page
	// (~30 µs/page ≈ 136 MB/s, typical for a 7200 rpm disk).
	TransferPerPage simtime.Duration
	// ClusterPages is the maximum pages moved per I/O (Linux
	// SWAP_CLUSTER_MAX is 32).
	ClusterPages int64
}

// DefaultDiskConfig returns the HDD model used by all experiments.
// Swap writeback is mostly sequential into the swap partition, so the
// effective cluster is large and the per-cluster positioning cost modest:
// sustained swap-out lands near 190 MB/s (outer-track streaming rate),
// which is what lets kswapd keep pace with an allocating benchmark on the
// paper's testbed. Small random I/O (a major fault swapping one page in)
// still pays a full seek.
func DefaultDiskConfig() DiskConfig {
	return DiskConfig{
		SeekTime:        1 * simtime.Millisecond,
		TransferPerPage: 18 * simtime.Microsecond,
		ClusterPages:    512,
	}
}

func (c DiskConfig) validate() error {
	if c.SeekTime < 0 || c.TransferPerPage <= 0 || c.ClusterPages <= 0 {
		return fmt.Errorf("kernel: invalid disk config %+v", c)
	}
	return nil
}

// NewDisk returns a disk with the given cost model.
func NewDisk(cfg DiskConfig) *Disk {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Disk{cfg: cfg}
}

// IO performs a synchronous transfer of pages at instant at and returns the
// caller-observed latency (queue wait + seek + transfer). write selects the
// direction counter only; the cost model is symmetric.
func (d *Disk) IO(at simtime.Time, pages int64, write bool) simtime.Duration {
	if pages <= 0 {
		return 0
	}
	start := at
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start.Add(d.transfer(pages, write))
	return d.busyUntil.Sub(at)
}

// IOUrgent performs a synchronous transfer with head-of-line priority:
// it starts immediately (the I/O scheduler boosts synchronous requests past
// queued background writeback, as CFQ does for direct reclaim and major
// faults) while still consuming device capacity — queued background work is
// pushed back by the same amount.
func (d *Disk) IOUrgent(at simtime.Time, pages int64, write bool) simtime.Duration {
	if pages <= 0 {
		return 0
	}
	total := d.transfer(pages, write)
	if d.busyUntil < at {
		d.busyUntil = at
	}
	d.busyUntil = d.busyUntil.Add(total)
	return total
}

// transfer charges one seek plus the per-page transfer for every
// ClusterPages chunk of pages, bumps the busy-time and direction counters,
// and returns the device time the transfer takes.
func (d *Disk) transfer(pages int64, write bool) simtime.Duration {
	var total simtime.Duration
	for remaining := pages; remaining > 0; {
		chunk := min(remaining, d.cfg.ClusterPages)
		total += d.cfg.SeekTime + simtime.Duration(chunk)*d.cfg.TransferPerPage
		remaining -= chunk
		if write {
			d.Writes++
			d.PagesWrite += chunk
		} else {
			d.Reads++
			d.PagesRead += chunk
		}
	}
	d.BusyTime += total
	return total
}

// QueueDelay returns how long an I/O issued at instant at would wait before
// the device starts serving it. Exposed so background reclaim can throttle
// itself instead of building an unbounded queue.
func (d *Disk) QueueDelay(at simtime.Time) simtime.Duration {
	if d.busyUntil <= at {
		return 0
	}
	return d.busyUntil.Sub(at)
}
