package main

import (
	"bytes"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunAdaptiveRejectsBadScale: -scale must be positive and finite; any
// other value is a field-named error before the scenario is built, never
// a panic in Scaled or an unrelated event error.
func TestRunAdaptiveRejectsBadScale(t *testing.T) {
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		err := runAdaptive("../../examples/scenarios/ramp.json", f)
		if err == nil || !strings.HasPrefix(err.Error(), "-scale must be a positive, finite number") {
			t.Errorf("-scale %v: got %v", f, err)
		}
	}
}

// TestCLIRejectsBadSeconds builds the real binary: a timeline of zero or
// fewer seconds exits 1 with one flag-named line before the node is built,
// instead of printing a header and an empty daemon summary with exit 0.
func TestCLIRejectsBadSeconds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary build")
	}
	bin := filepath.Join(t.TempDir(), "hermes-monitor")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
	for _, arg := range []string{"0", "-3"} {
		t.Run(arg, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, "-seconds", arg)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			exit, ok := err.(*exec.ExitError)
			if !ok || exit.ExitCode() != 1 {
				t.Fatalf("-seconds %s: got %v, want exit 1", arg, err)
			}
			want := "hermes-monitor: -seconds must be > 0 (got " + arg + ")\n"
			if got := stderr.String(); got != want || stdout.Len() != 0 {
				t.Fatalf("-seconds %s: stderr %q and %d B of stdout, want %q alone", arg, got, stdout.Len(), want)
			}
		})
	}
}
