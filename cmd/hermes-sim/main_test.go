package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRejectsBadSizes: a request size that is not positive, a total
// below one request, a node size the kernel rejects, or a size whose byte
// count overflows int64 exits 1 with one line that names the flag, instead
// of a panic or a silently wrapped size.
func TestCLIRejectsBadSizes(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		args       []string
		flag, want string
	}{
		{[]string{"-request", "0"}, "-request", "-request 0 must be positive"},
		{[]string{"-total", "-5MB"}, "-total", "-total -5242880 bytes is less than -request 1024"},
		{[]string{"-request", "2048", "-total", "1KB"}, "-total", "-total 1024 bytes is less than -request 2048"},
		{[]string{"-mem", "0"}, "-mem", "kernel: bad memory geometry: total=0 page=4096"},
		{[]string{"-mem", "1KB"}, "-mem", "kernel: bad memory geometry: total=1024 page=4096"},
		{[]string{"-total", "9000000000GB"}, "-total", `bad size "9000000000GB": overflows int64`},
	} {
		name := strings.Join(tc.args, " ")
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			exit, ok := err.(*exec.ExitError)
			if !ok || exit.ExitCode() != 1 {
				t.Fatalf("%s: got %v, want exit 1 (stderr %q)", name, err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "hermes-sim: "+tc.flag) || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
				t.Fatalf("%s: stderr %q, want one hermes-sim: %s line containing %q", name, msg, tc.flag, tc.want)
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
	bin := filepath.Join(t.TempDir(), "hermes-sim")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
	return bin
}
