package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
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

// TestScalingBenchRejectsBadLoad: a request count that is not positive, or a
// speedup gate that is NaN, negative or infinite, exits 1 with one line that
// names the flag, before the equivalence run and before the output file is
// written, instead of a panic inside Cluster.Run or a silently disabled
// gate.
func TestScalingBenchRejectsBadLoad(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		args       []string
		flag, want string
	}{
		{[]string{"-scaling-requests", "0"}, "-scaling-requests", "-scaling-requests 0 must be positive"},
		{[]string{"-scaling-requests", "-5"}, "-scaling-requests", "-scaling-requests -5 must be positive"},
		{[]string{"-scaling-min-speedup", "NaN"}, "-scaling-min-speedup", "-scaling-min-speedup NaN must be a finite number >= 0"},
		{[]string{"-scaling-min-speedup", "-1"}, "-scaling-min-speedup", "-scaling-min-speedup -1 must be a finite number >= 0"},
		{[]string{"-scaling-min-speedup", "+Inf"}, "-scaling-min-speedup", "-scaling-min-speedup +Inf must be a finite number >= 0"},
	} {
		name := strings.Join(tc.args, " ")
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "scaling.json")
			args := append([]string{"-bench-scaling", out, "-scaling-cores", "1", "-scaling-fleets", "1",
				"-scaling-requests", "10", "-scaling-reps", "1"}, tc.args...)
			var stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			exit, ok := err.(*exec.ExitError)
			if !ok || exit.ExitCode() != 1 {
				t.Fatalf("%s: got %v, want exit 1 (stderr %q)", name, err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "hermes-bench: "+tc.flag) || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
				t.Fatalf("%s: stderr %q, want one hermes-bench: %s line containing %q", name, msg, tc.flag, tc.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("%s: output file exists after the rejection (stat: %v)", name, err)
			}
		})
	}
}

// buildCLI builds the real binary into a temp dir; short mode skips the
// tests that need it.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping binary build")
	}
	bin := filepath.Join(t.TempDir(), "hermes-bench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
	return bin
}
