package stats

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// radixCutoff is the bucket size at and below which sortSamples hands a
// bucket to slices.Sort: another 256-way counting pass costs more than a
// comparison sort on so few elements.
const radixCutoff = 256

// countWindow is the width of sortSamples' counting window, [lo,
// lo+countWindow) for a slice whose minimum is lo. Its table of countWindow
// uint32s is 128 KiB, the largest variable the Go compiler keeps on the
// stack (ir.MaxStackVarSize). countCutoff is the shortest slice the window
// is used on: every count pass zeroes and scans the whole table.
const (
	countWindow = 1 << 15
	countCutoff = 8192
)

// sortSamples sorts s ascending in place without allocating. One OR/AND
// pass finds the highest byte that differs across s and the minimum lo.
//
// A slice of countCutoff or more samples first goes through the counting
// window, because latency digests crowd near their minimum: in each Fig 7
// cell, 96.9–100% of 524,288 samples lie within 2^15 ns of the fastest.
// countInWindow counts the samples in the window and writes them out in
// order, ahead of the rest; only the rest, all larger, is sorted as below.
// A slice longer than math.MaxUint32, whose counts could overflow, skips
// the window.
//
// The rest, or a shorter slice, goes through an American-flag MSD radix
// sort on 8-bit digits: each pass permutes the elements into 256 buckets by
// the current byte, in place, and recurses into every bucket on the next
// lower byte. Buckets of radixCutoff or fewer elements are finished with
// slices.Sort. The cost is O(n · bytes) where bytes is the number of
// significant bytes, at most 8.
//
// Ordering is by the uint64 bit pattern, which equals time.Duration order
// only for non-negative values — the Recorder's invariant, since Record
// panics on negative samples. Equal samples are indistinguishable, so the
// result is the same slice any other correct sort produces.
//
// Neither pass may allocate: a scratch-buffer (LSD) radix sort is faster,
// but its multi-megabyte garbage buffers raise a cluster run's peak RSS.
// The count table is a local of countInWindow, which is never inlined, so
// it sits on the stack only while the count pass runs and the radix
// recursion never carries it; a larger table, or one built with make,
// would be heap-allocated on every sort.
func sortSamples(s []time.Duration) {
	if len(s) <= radixCutoff {
		slices.Sort(s)
		return
	}
	or, and, lo := uint64(0), ^uint64(0), ^uint64(0)
	for _, v := range s {
		or |= uint64(v)
		and &= uint64(v)
		lo = min(lo, uint64(v))
	}
	diff := or ^ and
	if diff == 0 {
		return // all samples equal
	}
	if len(s) >= countCutoff && uint64(len(s)) <= math.MaxUint32 {
		s = s[len(s)-countInWindow(s, lo):]
		if len(s) <= radixCutoff {
			slices.Sort(s)
			return
		}
	}
	radixPass(s, uint(bits.Len64(diff)-1)&^7)
}

// countInWindow counts every sample of s in [lo, lo+countWindow), lo being
// s's minimum, and returns how many it did not count. Scanning from the
// back, it moves each uncounted sample to the back end of s, to a slot
// already read, so they end up, in their original order, behind the
// counted ones, which it then writes out ascending.
//
//go:noinline
func countInWindow(s []time.Duration, lo uint64) int {
	var counts [countWindow]uint32
	back := len(s)
	for i := len(s) - 1; i >= 0; i-- {
		v := s[i]
		if d := uint64(v) - lo; d < countWindow {
			counts[d]++
		} else {
			back--
			s[back] = v
		}
	}
	i := 0
	for d, c := range counts {
		v := time.Duration(lo + uint64(d))
		for ; c > 0; c-- {
			s[i] = v
			i++
		}
	}
	return len(s) - back
}

// radixPass permutes s into 256 buckets by the byte at shift, then sorts
// each bucket on the bytes below it. len(s) > radixCutoff.
func radixPass(s []time.Duration, shift uint) {
	var counts, heads [256]int
	for _, v := range s {
		counts[byte(uint64(v)>>shift)]++
	}
	off := 0
	for b, c := range counts {
		heads[b] = off
		off += c
	}
	// American-flag permutation: heads[b] is the next unplaced slot of
	// bucket b. Each misplaced element is swapped into its bucket's head,
	// following the displacement cycle until an element for bucket b comes
	// back; every element moves at most once.
	end := 0
	for b, c := range counts {
		end += c
		for heads[b] < end {
			v := s[heads[b]]
			d := byte(uint64(v) >> shift)
			for int(d) != b {
				dst := heads[d]
				heads[d]++
				s[dst], v = v, s[dst]
				d = byte(uint64(v) >> shift)
			}
			s[heads[b]] = v
			heads[b]++
		}
	}
	if shift == 0 {
		return
	}
	start := 0
	for _, c := range counts {
		bucket := s[start : start+c]
		start += c
		switch {
		case c <= 1:
		case c <= radixCutoff:
			slices.Sort(bucket)
		default:
			radixPass(bucket, shift-8)
		}
	}
}
