// Package core implements Hermes, the paper's contribution (§3, §4): a
// library-level mechanism that reserves memory for latency-critical
// services and constructs virtual-physical mappings in advance. It consists
// of a per-process management thread — gradual heap reservation
// (Algorithm 1) and segregated-pool mmap reservation (Algorithm 2) — layered
// on the Glibc model in internal/alloc/glibcmalloc, plus the lazy
// initialisation handshake with the monitor daemon's registry.
package core

import (
	"fmt"
	"math"

	"github.com/hermes-sim/hermes/internal/simtime"
)

// Config holds Hermes' tunables; defaults are the paper's (§4).
type Config struct {
	// Interval is the management-thread wake period f; the paper sets 2 ms.
	Interval simtime.Duration

	// ReservationFactor is RSV_FACTOR: the reservation target is the last
	// interval's requested bytes multiplied by this factor. The paper
	// sweeps 0.5–3.0 (Figs 15, 16) and settles on 2.
	ReservationFactor float64

	// MinReserve is min_rsv: memory kept reserved even with no incoming
	// requests, so a burst after an idle period is served quickly. The
	// paper sets 5 MB.
	MinReserve int64

	// RsvThrFraction positions RSV_THR relative to the reservation target:
	// reservation starts once the top chunk (or pool) falls below this
	// fraction of the target. Lower values start reserving later, making
	// the Fig 6 race more likely — the ablation uses that.
	RsvThrFraction float64

	// GradualChunkFloor is the smallest gradual-reservation chunk. The
	// chunk size tracks the average request size of the last interval
	// (§3.2.1), but tiny requests would mean thousands of sbrk+mlock
	// calls per tick; the floor bounds both that overhead (§5.5: ~0.4%
	// CPU) and the maximum time the break lock is held per step.
	GradualChunkFloor int64

	// GradualChunkCeil caps a single reservation step; it bounds the
	// worst-case wait of a malloc that arrives while the break lock is
	// held (the whole point of gradual reservation, Fig 6). Zero means
	// "reserve the full target in one step" — the naive strawman used by
	// the Fig 6 ablation.
	GradualChunkCeil int64

	// TableSize is the number of buckets in the segregated free list for
	// mmapped chunks; the paper sets 8 (= 1 MB / 128 KB).
	TableSize int

	// MinMmapSize is the smallest mmap-path request (Glibc's
	// M_MMAP_THRESHOLD); the bucket function divides by it (Equation 1).
	MinMmapSize int64

	// PoolLookupCost prices the segregated-list bucket computation and
	// pop; MgmtTickCost the fixed metric-update work per tick.
	PoolLookupCost simtime.Duration
	MgmtTickCost   simtime.Duration

	// DisableHeapMgmt / DisableMmapMgmt turn off the respective
	// management routines (ablations).
	DisableHeapMgmt bool
	DisableMmapMgmt bool
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Interval:          2 * simtime.Millisecond,
		ReservationFactor: 2.0,
		MinReserve:        5 << 20,
		RsvThrFraction:    0.75,
		GradualChunkFloor: 64 << 10,
		GradualChunkCeil:  1 << 20,
		TableSize:         8,
		MinMmapSize:       128 << 10,
		PoolLookupCost:    400 * simtime.Nanosecond,
		MgmtTickCost:      2 * simtime.Microsecond,
	}
}

func (c Config) validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("core: non-positive interval %v", c.Interval)
	}
	if !(0 < c.ReservationFactor && c.ReservationFactor <= math.MaxFloat64) {
		return fmt.Errorf("core: ReservationFactor must be finite and > 0 (got %v)", c.ReservationFactor)
	}
	if c.MinReserve < 0 || c.GradualChunkFloor <= 0 {
		return fmt.Errorf("core: bad reserve sizes min=%d floor=%d", c.MinReserve, c.GradualChunkFloor)
	}
	if !(0 < c.RsvThrFraction && c.RsvThrFraction < 1) {
		return fmt.Errorf("core: RsvThrFraction must be in (0, 1) (got %v)", c.RsvThrFraction)
	}
	if c.TableSize <= 0 || c.MinMmapSize <= 0 {
		return fmt.Errorf("core: bad pool geometry table=%d minMmap=%d", c.TableSize, c.MinMmapSize)
	}
	return nil
}
