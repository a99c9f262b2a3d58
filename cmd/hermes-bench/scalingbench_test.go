package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseCores: -scaling-cores comes back ascending and distinct, so the
// 1-core point every speedup divides by is measured first; a list without
// 1 is rejected by name instead of recording speedup 0.
func TestParseCores(t *testing.T) {
	for in, want := range map[string][]int{
		"1":         {1},
		"1,2,4,8":   {1, 2, 4, 8},
		"2,1":       {1, 2},
		"4, 1,2,1,": {1, 2, 4},
	} {
		got, err := parseCores(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseCores(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"2", "2,4", "", "0,1", "1,x"} {
		if _, err := parseCores(in); err == nil || !strings.Contains(err.Error(), "-scaling-cores") {
			t.Errorf("parseCores(%q) = %v, want a -scaling-cores error", in, err)
		}
	}
}
