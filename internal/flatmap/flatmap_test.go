package flatmap

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// TestMapMatchesReference drives the table and a reference map[int64]V
// through randomized insert/overwrite/delete/lookup/iterate sequences —
// including growth past several doublings and heavy delete churn, the
// regime where backward-shift deletion must keep probe runs intact. The
// subtest keeps the name it had when the table was one of two backends.
func TestMapMatchesReference(t *testing.T) {
	t.Run("flat", checkMapMatchesReference)
}

func checkMapMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*977))
		m := New[int64](0)
		ref := map[int64]int64{}
		// Small key space forces overwrite and delete-reinsert
		// collisions; occasional wide keys exercise the hash.
		keyOf := func() int64 {
			if rng.IntN(20) == 0 {
				return int64(rng.Uint64())
			}
			return int64(rng.IntN(512))
		}
		for op := 0; op < 20000; op++ {
			switch rng.IntN(11) {
			case 0, 1, 2, 3: // insert/overwrite
				k, v := keyOf(), int64(rng.Uint64())
				m.Put(k, v)
				ref[k] = v
			case 10: // swap
				k, v := keyOf(), int64(rng.Uint64())
				gotPrev, gotOK := m.Swap(k, v)
				wantPrev, wantOK := ref[k]
				ref[k] = v
				if gotOK != wantOK || gotPrev != wantPrev {
					t.Fatalf("seed %d op %d: Swap(%d) = (%d, %v), want (%d, %v)",
						seed, op, k, gotPrev, gotOK, wantPrev, wantOK)
				}
			case 4, 5, 6: // delete
				k := keyOf()
				gotV, gotOK := m.Delete(k)
				wantV, wantOK := ref[k]
				delete(ref, k)
				if gotOK != wantOK || gotV != wantV {
					t.Fatalf("seed %d op %d: Delete(%d) = (%d, %v), want (%d, %v)",
						seed, op, k, gotV, gotOK, wantV, wantOK)
				}
			case 7, 8: // lookup
				k := keyOf()
				gotV, gotOK := m.Get(k)
				wantV, wantOK := ref[k]
				if gotOK != wantOK || gotV != wantV {
					t.Fatalf("seed %d op %d: Get(%d) = (%d, %v), want (%d, %v)",
						seed, op, k, gotV, gotOK, wantV, wantOK)
				}
				if m.Contains(k) != wantOK {
					t.Fatalf("seed %d op %d: Contains(%d) != %v", seed, op, k, wantOK)
				}
			case 9: // full iterate + sorted keys
				if m.Len() != len(ref) {
					t.Fatalf("seed %d op %d: Len %d, want %d", seed, op, m.Len(), len(ref))
				}
				got := map[int64]int64{}
				m.Range(func(k, v int64) bool {
					if _, dup := got[k]; dup {
						t.Fatalf("seed %d op %d: Range yielded key %d twice", seed, op, k)
					}
					got[k] = v
					return true
				})
				if len(got) != len(ref) {
					t.Fatalf("seed %d op %d: Range yielded %d entries, want %d", seed, op, len(got), len(ref))
				}
				for k, v := range ref {
					if got[k] != v {
						t.Fatalf("seed %d op %d: Range gave ref[%d]=%d, want %d", seed, op, k, got[k], v)
					}
				}
				keys := m.SortedKeys(nil)
				if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
					t.Fatalf("seed %d op %d: SortedKeys not sorted", seed, op)
				}
				if len(keys) != len(ref) {
					t.Fatalf("seed %d op %d: SortedKeys has %d keys, want %d", seed, op, len(keys), len(ref))
				}
			}
		}
		// Drain through Delete so the final backward shifts run too.
		for _, k := range m.SortedKeys(nil) {
			if _, ok := m.Delete(k); !ok {
				t.Fatalf("seed %d: drain lost key %d", seed, k)
			}
		}
		if m.Len() != 0 {
			t.Fatalf("seed %d: %d entries after drain", seed, m.Len())
		}
	}
}

// TestMapIterationDeterminism pins the seed-replay contract: two flat maps
// driven through the identical operation sequence observe the identical
// Range order, and that order survives growth, overwrite and backward-shift
// deletion (the grouped-probe layout must reproduce the slot layout of plain
// linear probing exactly).
func TestMapIterationDeterminism(t *testing.T) {
	runOps := func(seed uint64) []int64 {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		m := New[int64](0)
		for op := 0; op < 5000; op++ {
			k := int64(rng.IntN(700))
			switch rng.IntN(4) {
			case 0, 1:
				m.Put(k, int64(op))
			case 2:
				m.Swap(k, int64(op))
			case 3:
				m.Delete(k)
			}
		}
		var order []int64
		m.Range(func(k, _ int64) bool { order = append(order, k); return true })
		return order
	}
	for seed := uint64(1); seed <= 4; seed++ {
		a, b := runOps(seed), runOps(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: replay lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: replay order diverges at %d: %d vs %d", seed, i, a[i], b[i])
			}
		}
	}
}

// TestMapClear verifies Clear keeps the table reusable.
func TestMapClear(t *testing.T) {
	m := New[string](4)
	for i := int64(0); i < 100; i++ {
		m.Put(i, "v")
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d", m.Len())
	}
	if _, ok := m.Get(42); ok {
		t.Fatal("Get found an entry after Clear")
	}
	m.Put(7, "again")
	if v, ok := m.Get(7); !ok || v != "again" {
		t.Fatalf("Get(7) after reuse = (%q, %v)", v, ok)
	}
}

// TestMapSteadyStateAllocs locks the flat table's steady-state churn —
// overwrite, delete+reinsert, lookup on a fixed key set — at zero
// allocations per operation.
func TestMapSteadyStateAllocs(t *testing.T) {
	m := New[int64](0)
	for i := int64(0); i < 1000; i++ {
		m.Put(i, i)
	}
	var k int64
	allocs := testing.AllocsPerRun(10000, func() {
		k = (k + 1) % 1000
		m.Put(k, k*3)
		if _, ok := m.Get(k); !ok {
			t.Fatal("lost key")
		}
		m.Delete(k)
		m.Put(k, k)
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestRingFIFO drives the ring against a reference slice queue.
func TestRingFIFO(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 11))
	var r Ring
	var ref []int64
	for op := 0; op < 50000; op++ {
		if rng.IntN(3) > 0 || len(ref) == 0 {
			v := int64(rng.Uint64())
			r.Push(v)
			ref = append(ref, v)
		} else {
			got, ok := r.Pop()
			if !ok || got != ref[0] {
				t.Fatalf("op %d: Pop = (%d, %v), want (%d, true)", op, got, ok, ref[0])
			}
			ref = ref[1:]
		}
		if r.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, r.Len(), len(ref))
		}
	}
	for len(ref) > 0 {
		got, ok := r.Pop()
		if !ok || got != ref[0] {
			t.Fatalf("drain: Pop = (%d, %v), want (%d, true)", got, ok, ref[0])
		}
		ref = ref[1:]
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop succeeded on empty ring")
	}
}

// TestRingSteadyStateAllocs locks a warmed ring's push/pop cycle at zero
// allocations.
func TestRingSteadyStateAllocs(t *testing.T) {
	var r Ring
	for i := int64(0); i < 64; i++ {
		r.Push(i)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		r.Push(1)
		r.Pop()
	})
	if allocs != 0 {
		t.Fatalf("ring churn allocates %.2f allocs/op, want 0", allocs)
	}
}
