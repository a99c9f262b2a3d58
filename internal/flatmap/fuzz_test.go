package flatmap

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzMapBackends decodes the fuzz input into an operation sequence and
// drives the table and a plain Go map oracle through it in lockstep,
// cross-checking every return value plus the full sorted key/value state
// after the sequence. This is the oracle check for the grouped-probe
// layout: whatever slot arrangement the control-word scan produces, the
// observable behavior must match the Go map.
func FuzzMapBackends(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x81, 0x42, 0x41, 0x42})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add(bytes.Repeat([]byte{0x07, 0x99}, 64)) // grow then churn one bucket
	f.Add([]byte{0x01, 0x10, 0x01, 0x11, 0x01, 0x12, 0x41, 0x11, 0x01, 0x13})
	f.Fuzz(func(t *testing.T, data []byte) {
		flat := New[int64](0)
		oracle := map[int64]int64{}
		for pos := 0; pos+1 < len(data); pos += 2 {
			op := data[pos]
			// A one-byte key space forces dense collision/overwrite churn;
			// the top opcode bits fold in a second hash-spreading key range.
			k := int64(data[pos+1])
			if op&0x80 != 0 {
				k += 1 << 40
			}
			v := int64(pos)
			switch op & 0x63 {
			case 0x00, 0x20:
				flat.Prefetch(k)
				flat.Put(k, v)
				oracle[k] = v
			case 0x01, 0x21:
				gp, gok := flat.Swap(k, v)
				wp, wok := oracle[k]
				oracle[k] = v
				if gp != wp || gok != wok {
					t.Fatalf("op %d: Swap(%d) = (%d,%v), oracle (%d,%v)", pos, k, gp, gok, wp, wok)
				}
			case 0x02, 0x22:
				gv, gok := flat.Delete(k)
				wv, wok := oracle[k]
				delete(oracle, k)
				if gv != wv || gok != wok {
					t.Fatalf("op %d: Delete(%d) = (%d,%v), oracle (%d,%v)", pos, k, gv, gok, wv, wok)
				}
			default:
				gv, gok := flat.Get(k)
				wv, wok := oracle[k]
				if gv != wv || gok != wok {
					t.Fatalf("op %d: Get(%d) = (%d,%v), oracle (%d,%v)", pos, k, gv, gok, wv, wok)
				}
				if flat.Contains(k) != wok {
					t.Fatalf("op %d: Contains(%d) != %v", pos, k, wok)
				}
			}
			if flat.Len() != len(oracle) {
				t.Fatalf("op %d: Len %d, oracle %d", pos, flat.Len(), len(oracle))
			}
		}
		gk := flat.SortedKeys(nil)
		wk := make([]int64, 0, len(oracle))
		for k := range oracle {
			wk = append(wk, k)
		}
		slices.Sort(wk)
		if len(gk) != len(wk) {
			t.Fatalf("final key count %d, oracle %d", len(gk), len(wk))
		}
		for i := range gk {
			if gk[i] != wk[i] {
				t.Fatalf("final key[%d] = %d, oracle %d", i, gk[i], wk[i])
			}
			gv, _ := flat.Get(gk[i])
			wv := oracle[gk[i]]
			if gv != wv {
				t.Fatalf("final value[%d] = %d, oracle %d", gk[i], gv, wv)
			}
		}
	})
}
