// Package flatmap provides the flat, allocation-free containers backing the
// simulator's per-request hot path: an open-addressed hash table keyed by
// int64 with inline values, and a slice-backed FIFO ring. Both exist to
// replace Go maps and growing slices in the single-node request loop, where
// per-event heap allocation and pointer-chasing dominate once the engine is
// parallel (see docs/ARCHITECTURE.md, "Hot path & memory discipline").
//
// The table uses linear probing with backward-shift deletion, so there are
// no tombstones and lookup cost stays bounded by the live load factor no
// matter how much the key set churns. Probing is cache-conscious: occupancy
// and a 7-bit hash fingerprint per slot live in a separate byte array (SoA,
// Swiss-table style) scanned eight slots at a time with uint64 word tricks,
// so a probe run touches one control word and then at most the key slots
// whose fingerprints match — instead of a key+flag cache line per step. The
// grouped scan preserves exact first-empty-stop linear-probe semantics, so
// the slot layout (and therefore Range order) is identical to a slot-by-slot
// probe of the same operation history. Iteration order over a Map is a pure
// function of the operation history — two runs that perform the identical
// operation sequence observe the identical order — which is what the
// simulator's seed-replay determinism requires. Code on the deterministic
// path that needs an order independent of table internals (e.g. freeing
// memtable blocks at flush) uses SortedKeys.
//
// The property and fuzz tests check every operation against a plain Go map
// oracle.
package flatmap

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

const minCapacity = 8

// groupWidth is how many control bytes one probe step scans (one uint64).
const groupWidth = 8

const (
	loBytes uint64 = 0x0101010101010101
	hiBytes uint64 = 0x8080808080808080
)

// Map is a hash table from int64 keys to inline values of type V.
// The zero value is not ready for use; call New.
type Map[V any] struct {
	// Parallel slot arrays, power-of-two sized. ctrl holds one byte per
	// slot — 0 for empty, else 0x80|top-7-hash-bits — plus groupWidth
	// mirror bytes of slots 0..groupWidth-1 at the end, so an unaligned
	// 8-byte load starting at any slot sees the wrapped-around window
	// without masking.
	keys []int64
	vals []V
	ctrl []byte
	mask uint64
	// growAt is the occupancy that triggers a doubling (7/8 load factor —
	// linear probing with backward-shift stays fast well past 3/4). It also
	// guarantees at least one empty slot, which terminates every group scan.
	growAt int

	n int

	// sink absorbs Prefetch loads so they cannot be optimized away. Written
	// only by the goroutine owning the Map; never read.
	sink uint64
}

// New creates a Map with capacity for about hint entries.
func New[V any](hint int) *Map[V] {
	m := &Map[V]{}
	capacity := minCapacity
	for capacity*7/8 <= hint {
		capacity *= 2
	}
	m.init(capacity)
	return m
}

func (m *Map[V]) init(capacity int) {
	m.keys = make([]int64, capacity)
	m.vals = make([]V, capacity)
	m.ctrl = make([]byte, capacity+groupWidth)
	m.mask = uint64(capacity - 1)
	m.growAt = capacity * 7 / 8
}

// hash is the splitmix64 finalizer — strong enough that linear probing
// stays near its ideal probe lengths on adversarial-ish key sets (sequential
// keys, pointers, region IDs).
func hash(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fingerprint derives the control byte from the top hash bits (disjoint
// from the slot-index bits for all practical table sizes). The occupied bit
// keeps it nonzero, so 0 unambiguously means empty.
func fingerprint(h uint64) byte { return byte(h>>57) | 0x80 }

// setCtrl writes a control byte, maintaining the wrap-around mirror of the
// first group.
func (m *Map[V]) setCtrl(i uint64, c byte) {
	m.ctrl[i] = c
	if i < groupWidth {
		m.ctrl[uint64(len(m.keys))+i] = c
	}
}

// groupMasks scans one control word: match gets the high bit of every byte
// equal to fp that precedes the first empty slot, empty the high bit of
// every empty byte. empty is exact (occupied bytes always have the high bit
// set); match may contain false positives past a true match — callers
// verify candidates against keys, so a false positive costs one compare.
func groupMasks(w, fp uint64) (match, empty uint64) {
	empty = ^w & hiBytes
	x := w ^ (loBytes * fp)
	match = (x - loBytes) &^ x & hiBytes
	// Keep only candidates before the first empty byte: linear probing stops
	// at the first empty slot. When empty is 0 the subtraction wraps to all
	// ones and keeps every candidate — branch-free identity.
	match &= empty - 1
	return match, empty
}

// A nil *Map mirrors a nil Go map: reads (Get, Contains, Len, Range,
// AppendKeys, SortedKeys, Prefetch) see an empty table, Delete and Clear are
// no-ops, and Put/Swap panic — so torn-down owners (service Close sets
// tables to nil) keep the familiar loud-write / tolerant-read contract.

// Len returns the number of entries.
func (m *Map[V]) Len() int {
	if m == nil {
		return 0
	}
	return m.n
}

// Get returns the value stored under k.
func (m *Map[V]) Get(k int64) (V, bool) {
	if m == nil {
		var zero V
		return zero, false
	}
	h := hash(k)
	fp := uint64(fingerprint(h))
	i := h & m.mask
	// Home-slot fast path: most hits live at their home slot even near the
	// load threshold, and a probe starting on an empty home slot is a miss —
	// both resolve on one control byte before the group machinery spins up.
	if c := uint64(m.ctrl[i]); c == fp {
		if m.keys[i] == k {
			return m.vals[i], true
		}
	} else if c == 0 {
		var zero V
		return zero, false
	}
	for {
		match, empty := groupMasks(binary.LittleEndian.Uint64(m.ctrl[i:]), fp)
		for match != 0 {
			j := (i + uint64(bits.TrailingZeros64(match)>>3)) & m.mask
			if m.keys[j] == k {
				return m.vals[j], true
			}
			match &= match - 1
		}
		if empty != 0 {
			var zero V
			return zero, false
		}
		i = (i + groupWidth) & m.mask
	}
}

// Contains reports whether k is present.
func (m *Map[V]) Contains(k int64) bool {
	if m == nil {
		return false
	}
	h := hash(k)
	fp := uint64(fingerprint(h))
	i := h & m.mask
	// Home-slot fast path, as in Get.
	if c := uint64(m.ctrl[i]); c == fp {
		if m.keys[i] == k {
			return true
		}
	} else if c == 0 {
		return false
	}
	for {
		match, empty := groupMasks(binary.LittleEndian.Uint64(m.ctrl[i:]), fp)
		for match != 0 {
			j := (i + uint64(bits.TrailingZeros64(match)>>3)) & m.mask
			if m.keys[j] == k {
				return true
			}
			match &= match - 1
		}
		if empty != 0 {
			return false
		}
		i = (i + groupWidth) & m.mask
	}
}

// Prefetch warms the cache lines a subsequent Get/Put/Swap of k will touch
// (the control word and the home key slot). Read-only: it never changes
// table state, so interleaving Prefetch calls with any operation sequence is
// behavior-neutral — the batched-admission path issues a Prefetch per
// request in a small look-ahead window before serving the window.
func (m *Map[V]) Prefetch(k int64) {
	if m == nil {
		return
	}
	i := hash(k) & m.mask
	m.sink += uint64(m.ctrl[i]) + uint64(m.keys[i])
}

// Put stores v under k, replacing any existing entry.
func (m *Map[V]) Put(k int64, v V) {
	h := hash(k)
	fp := uint64(fingerprint(h))
	i := h & m.mask
	// Home-slot fast paths: overwrite-in-place on a home hit, and insert
	// straight into an empty home slot while below the load threshold (the
	// first empty slot on the probe path is the home slot itself).
	if c := uint64(m.ctrl[i]); c == fp && m.keys[i] == k {
		m.vals[i] = v
		return
	} else if c == 0 && m.n < m.growAt {
		m.setCtrl(i, byte(fp))
		m.keys[i], m.vals[i] = k, v
		m.n++
		return
	}
	for {
		match, empty := groupMasks(binary.LittleEndian.Uint64(m.ctrl[i:]), fp)
		for match != 0 {
			j := (i + uint64(bits.TrailingZeros64(match)>>3)) & m.mask
			if m.keys[j] == k {
				m.vals[j] = v
				return
			}
			match &= match - 1
		}
		if empty != 0 {
			// k is absent: grow first when at the load threshold (overwrites
			// above never grow), then find the insertion slot afresh.
			ins := (i + uint64(bits.TrailingZeros64(empty)>>3)) & m.mask
			if m.n >= m.growAt {
				m.grow()
				ins = m.findInsert(h)
			}
			m.setCtrl(ins, byte(fp))
			m.keys[ins], m.vals[ins] = k, v
			m.n++
			return
		}
		i = (i + groupWidth) & m.mask
	}
}

// Swap stores v under k and returns the previously stored value — Put and
// Get fused into a single probe for the overwrite-heavy service paths
// (Redis value replacement, RocksDB memtable upsert).
func (m *Map[V]) Swap(k int64, v V) (V, bool) {
	h := hash(k)
	fp := uint64(fingerprint(h))
	i := h & m.mask
	// Home-slot fast paths, as in Put.
	if c := uint64(m.ctrl[i]); c == fp && m.keys[i] == k {
		prev := m.vals[i]
		m.vals[i] = v
		return prev, true
	} else if c == 0 && m.n < m.growAt {
		m.setCtrl(i, byte(fp))
		m.keys[i], m.vals[i] = k, v
		m.n++
		var zero V
		return zero, false
	}
	for {
		match, empty := groupMasks(binary.LittleEndian.Uint64(m.ctrl[i:]), fp)
		for match != 0 {
			j := (i + uint64(bits.TrailingZeros64(match)>>3)) & m.mask
			if m.keys[j] == k {
				prev := m.vals[j]
				m.vals[j] = v
				return prev, true
			}
			match &= match - 1
		}
		if empty != 0 {
			ins := (i + uint64(bits.TrailingZeros64(empty)>>3)) & m.mask
			if m.n >= m.growAt {
				m.grow()
				ins = m.findInsert(h)
			}
			m.setCtrl(ins, byte(fp))
			m.keys[ins], m.vals[ins] = k, v
			m.n++
			var zero V
			return zero, false
		}
		i = (i + groupWidth) & m.mask
	}
}

// findInsert returns the first empty slot on the probe path of h. Only
// called when h's key is known absent (fresh insert after grow, and grow's
// reinsert loop, where keys are unique by construction).
func (m *Map[V]) findInsert(h uint64) uint64 {
	i := h & m.mask
	for {
		empty := ^binary.LittleEndian.Uint64(m.ctrl[i:]) & hiBytes
		if empty != 0 {
			return (i + uint64(bits.TrailingZeros64(empty)>>3)) & m.mask
		}
		i = (i + groupWidth) & m.mask
	}
}

func (m *Map[V]) grow() {
	oldKeys, oldVals, oldCtrl := m.keys, m.vals, m.ctrl
	m.init(len(oldKeys) * 2)
	for i, c := range oldCtrl[:len(oldKeys)] {
		if c == 0 {
			continue
		}
		j := m.findInsert(hash(oldKeys[i]))
		m.setCtrl(j, c)
		m.keys[j], m.vals[j] = oldKeys[i], oldVals[i]
	}
}

// Delete removes k, returning the removed value. Deletion backward-shifts
// the following probe run instead of leaving a tombstone, so the table's
// probe lengths depend only on the live occupancy.
func (m *Map[V]) Delete(k int64) (V, bool) {
	var zero V
	if m == nil {
		return zero, false
	}
	h := hash(k)
	fp := uint64(fingerprint(h))
	i := h & m.mask
scan:
	for {
		match, empty := groupMasks(binary.LittleEndian.Uint64(m.ctrl[i:]), fp)
		for match != 0 {
			j := (i + uint64(bits.TrailingZeros64(match)>>3)) & m.mask
			if m.keys[j] == k {
				i = j
				break scan
			}
			match &= match - 1
		}
		if empty != 0 {
			return zero, false
		}
		i = (i + groupWidth) & m.mask
	}
	v := m.vals[i]
	// Backward shift: walk the probe run after i; any entry whose home slot
	// lies cyclically outside (i, j] can legally move back into the hole.
	j := i
	for {
		j = (j + 1) & m.mask
		if m.ctrl[j] == 0 {
			break
		}
		hj := hash(m.keys[j]) & m.mask
		// hj inside the cyclic half-open interval (i, j] means j's probe
		// path starts after the hole, so j must stay; otherwise it fills it.
		if ((j - hj) & m.mask) < ((j - i) & m.mask) {
			continue
		}
		m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
		m.setCtrl(i, m.ctrl[j])
		i = j
	}
	m.keys[i] = 0
	m.vals[i] = zero // release pointers held by V
	m.setCtrl(i, 0)
	m.n--
	return v, true
}

// Range calls fn for every entry until fn returns false. The order is the
// table's slot order — deterministic for a given operation history, but not
// sorted; deterministic-path code that frees or mutates global state per
// entry should use SortedKeys instead.
func (m *Map[V]) Range(fn func(k int64, v V) bool) {
	if m == nil {
		return
	}
	for i := range m.keys {
		if m.ctrl[i] != 0 && !fn(m.keys[i], m.vals[i]) {
			return
		}
	}
}

// AppendKeys appends every key to buf and returns it (unsorted).
func (m *Map[V]) AppendKeys(buf []int64) []int64 {
	if m == nil {
		return buf
	}
	for i := range m.keys {
		if m.ctrl[i] != 0 {
			buf = append(buf, m.keys[i])
		}
	}
	return buf
}

// SortedKeys appends every key to buf in ascending order and returns it —
// the iteration order for deterministic-path bulk operations (memtable
// flush, service close), independent of the slot layout.
func (m *Map[V]) SortedKeys(buf []int64) []int64 {
	buf = m.AppendKeys(buf)
	slices.Sort(buf)
	return buf
}

// Clear removes every entry, keeping the allocated capacity.
func (m *Map[V]) Clear() {
	if m == nil {
		return
	}
	clear(m.keys)
	clear(m.vals)
	clear(m.ctrl)
	m.n = 0
}
