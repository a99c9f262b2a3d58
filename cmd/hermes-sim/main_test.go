package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRejectsBadSizes: a request size that is not positive, a total
// below one request, a node size the kernel rejects or the pressure regime
// cannot carry, or a size whose byte count overflows int64 exits 1 with one
// line that names the flag, instead of a panic, a run without pressure or a
// silently wrapped size. The smallest nodes each regime carries still run.
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
		{[]string{"-mem", "1023MB", "-pressure", "file", "-total", "1MB"}, "-mem", "file pressure reads 1024 MB files whole, more than the node's 1023 MB"},
		{[]string{"-mem", "18MB", "-pressure", "anon"}, "-mem", "anon pressure needs a node above its 18 MB free buffer (node has 18 MB)"},
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
	for _, args := range [][]string{
		{"-mem", "1GB", "-pressure", "file", "-total", "1MB"},
		{"-mem", "400MB", "-pressure", "anon", "-total", "1MB"},
	} {
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil || !strings.Contains(string(out), "n=1024") {
			t.Fatalf("%s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}

// TestCLIPressureBites: -pressure runs the experiments' micro cell, whose
// free buffer scales with -total, so anonymous pressure drains it, swaps
// and moves the digest off the dedicated run's, as in Fig 3.
func TestCLIPressureBites(t *testing.T) {
	bin := buildCLI(t)
	run := func(pressure string) (digest, kernel string) {
		out, err := exec.Command(bin, "-alloc", "glibc", "-pressure", pressure, "-total", "64MB").Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err != nil || len(lines) != 3 {
			t.Fatalf("-pressure %s: %v\n%s", pressure, err, out)
		}
		return lines[0], lines[2]
	}
	none, _ := run("none")
	anon, kernel := run("anon")
	if anon == none {
		t.Fatalf("-pressure anon printed the dedicated digest %q", none)
	}
	var minor, major, reclaims, swapped int64
	if _, err := fmt.Sscanf(kernel, "kernel: %d minor faults, %d major, %d direct reclaims, %d pages swapped out",
		&minor, &major, &reclaims, &swapped); err != nil || swapped == 0 {
		t.Fatalf("-pressure anon swapped nothing out: %q (%v)", kernel, err)
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
