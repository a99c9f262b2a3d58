package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hermes "github.com/hermes-sim/hermes"
)

// writeSpec drops a scenario document into a temp dir and returns its path.
func writeSpec(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const validSpecDoc = `{
  "name": "smoke",
  "seed": 3,
  "phases": [
    {"name": "p", "duration": "5ms",
     "classes": [{"name": "c", "rate": 20000, "keys": 500, "reads": 0.5, "value_bytes": 512}]}
  ]
}`

// TestRunScenarioFileErrors: every way a -scenario invocation can be
// malformed — a missing file, broken JSON, an unknown event kind, a bad
// duration, a node size that overflows, an invalid -scale, a
// -metrics-period that is not positive or cuts the horizon into too many
// windows — surfaces as an error that names the offending field, never a
// panic and never a silent fallback run.
func TestRunScenarioFileErrors(t *testing.T) {
	cfg := hermes.DefaultClusterConfig()
	cfg.Nodes = 2
	cfg.Shards = 4
	cfg.Kernel.TotalMemory = 1 << 30
	cfg.Kernel.SwapBytes = 1 << 30
	kinds := []hermes.AllocatorKind{hermes.AllocGlibc}
	opts := func(path string, scale float64) scenarioOpts {
		return scenarioOpts{path: path, scale: scale, seed: 1, json: true}
	}
	cases := []struct {
		name string
		opts scenarioOpts
		want string
	}{
		{"missing file", opts(filepath.Join(t.TempDir(), "nope.json"), 1), "no such file"},
		{"broken json", opts(writeSpec(t, `{"name": "x",`), 1), "scenario spec JSON"},
		{"unknown event kind", opts(writeSpec(t,
			`{"name":"t","phases":[{"name":"p","duration":"5ms","classes":[{"name":"c","rate":1000,"keys":100,"reads":0.5,"value_bytes":512}]}],"events":[{"at":"1ms","kind":"explode"}]}`), 1),
			"unknown event kind"},
		{"malformed duration", opts(writeSpec(t,
			`{"name":"t","phases":[{"name":"p","duration":"later","classes":[{"name":"c","rate":1000,"keys":100,"reads":0.5,"value_bytes":512}]}]}`), 1),
			`bad duration "later"`},
		{"policies without slo", opts(writeSpec(t,
			`{"name":"t","phases":[{"name":"p","duration":"5ms","classes":[{"name":"c","rate":1000,"keys":100,"reads":0.5,"value_bytes":512}]}],"policies":{"shed":{"step":0.2,"max":0.8}}}`), 1),
			"Policies requires an SLO"},
		{"mem_gb overflow", opts(writeSpec(t,
			`{"cluster":{"mem_gb":17179869184},"scenario":`+validSpecDoc+`}`), 1),
			"mem_gb 17179869184 overflows"},
		{"zero scale", opts(writeSpec(t, validSpecDoc), 0), "-scale must be a positive"},
		{"negative scale", opts(writeSpec(t, validSpecDoc), -1), "-scale must be a positive"},
		{"NaN scale", opts(writeSpec(t, validSpecDoc), math.NaN()), "-scale must be a positive"},
		{"infinite scale", opts(writeSpec(t, validSpecDoc), math.Inf(1)), "-scale must be a positive"},
		{"zero metrics period", scenarioOpts{path: writeSpec(t, validSpecDoc), scale: 1, seed: 1, json: true,
			metricsOut: filepath.Join(t.TempDir(), "m.jsonl")}, "-metrics-period 0s must be > 0"},
		{"negative metrics period", scenarioOpts{path: writeSpec(t, validSpecDoc), scale: 1, seed: 1, json: true,
			metricsOut: filepath.Join(t.TempDir(), "m.prom"), metricsPeriod: -time.Millisecond}, "-metrics-period -1ms must be > 0"},
		// Checked before the fleet boots; a run would keep 1.25 M window records.
		{"metrics period past the window cap", scenarioOpts{path: writeSpec(t, validSpecDoc), scale: 1, seed: 1, json: true,
			metricsOut: filepath.Join(t.TempDir(), "m.jsonl"), metricsPeriod: 8 * time.Nanosecond},
			"-metrics-period: metrics: period 8ns cuts the 5ms horizon into 625000 windows on each of 2 nodes, over the cap of 1048576 node-windows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runScenarioFile(cfg, kinds, tc.opts)
			if err == nil {
				t.Fatal("malformed -scenario invocation accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestRunScenarioFileSmoke: a well-formed spec runs end to end through the
// same entry point the CLI uses.
func TestRunScenarioFileSmoke(t *testing.T) {
	cfg := hermes.DefaultClusterConfig()
	cfg.Nodes = 2
	cfg.Shards = 4
	cfg.Kernel.TotalMemory = 1 << 30
	cfg.Kernel.SwapBytes = 1 << 30
	// json: true keeps the table renderer off the test's stdout.
	err := runScenarioFile(cfg, []hermes.AllocatorKind{hermes.AllocGlibc},
		scenarioOpts{path: writeSpec(t, validSpecDoc), scale: 1, seed: 1, json: true})
	if err != nil {
		t.Fatalf("valid scenario failed: %v", err)
	}
}

// TestCLIExitsNonZeroOnInvalidScenario builds the real binary and feeds it
// a malformed -scenario file: the process must exit non-zero with a
// field-named message on stderr — the contract CI smoke steps rely on.
func TestCLIExitsNonZeroOnInvalidScenario(t *testing.T) {
	bin := buildCLI(t)
	spec := writeSpec(t,
		`{"name":"t","phases":[{"name":"p","duration":"5ms","classes":[{"name":"c","rate":1000,"keys":100,"reads":0.5,"value_bytes":512}]}],"events":[{"at":"1ms","kind":"degrade-node","node":0,"factor":0.5}]}`)
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-scenario", spec)
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatal("CLI exited zero on a malformed scenario")
	}
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("CLI did not run: %v", err)
	}
	if exit.ExitCode() != 1 {
		t.Fatalf("exit code %d, want 1", exit.ExitCode())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "hermes-cluster:") || !strings.Contains(msg, "Factor must be > 1") {
		t.Fatalf("stderr %q lacks the field-named diagnostic", msg)
	}
}

// TestCLIRejectsBadMemGB: a node size of zero or below, or one whose byte
// count overflows int64, exits 1 with a one-line field-named error
// instead of a kernel panic or a silently wrapped size.
func TestCLIRejectsBadMemGB(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct{ arg, want string }{
		{"0", "cluster: Kernel: kernel: bad memory geometry: total=0"},
		{"-1", "cluster: Kernel: kernel: bad memory geometry: total=-1073741824"},
		{"17179869185", "-mem-gb 17179869185 overflows"},
	} {
		t.Run(tc.arg, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, "-mem-gb", tc.arg, "-nodes", "1", "-shards", "1", "-requests", "10", "-allocators", "glibc")
			cmd.Stderr = &stderr
			err := cmd.Run()
			exit, ok := err.(*exec.ExitError)
			if !ok || exit.ExitCode() != 1 {
				t.Fatalf("-mem-gb %s: got %v, want exit 1", tc.arg, err)
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "hermes-cluster: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
				t.Fatalf("-mem-gb %s: stderr %q, want one hermes-cluster line containing %q", tc.arg, msg, tc.want)
			}
		})
	}
}

// TestCLIRejectsBadFreeMB: under -pressure anon or file, a residual free
// target of zero or below, one whose byte count would overflow, or one at
// or above the node's memory (which leaves the fill nothing to consume)
// exits 1 with a one-line field-named error instead of a byte-count
// message, a wrapped target or a silently unpressured run.
func TestCLIRejectsBadFreeMB(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct{ pressure, freeMB, memGB, want string }{
		{"anon", "17592186044417", "8", "-free-mb 17592186044417 must be > 0 and below the node's 8192 MB (-mem-gb 8)"},
		{"file", "17592186044417", "8", "-free-mb 17592186044417 must be > 0"},
		{"anon", "-5", "8", "-free-mb -5 must be > 0"},
		{"anon", "0", "8", "-free-mb 0 must be > 0"},
		{"anon", "5000", "1", "-free-mb 5000 must be > 0 and below the node's 1024 MB (-mem-gb 1)"},
		{"file", "1024", "1", "-free-mb 1024 must be > 0 and below the node's 1024 MB"},
	} {
		t.Run(tc.pressure+"/"+tc.freeMB, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, "-pressure", tc.pressure, "-free-mb", tc.freeMB, "-mem-gb", tc.memGB,
				"-nodes", "1", "-shards", "1", "-requests", "10", "-allocators", "glibc")
			cmd.Stderr = &stderr
			err := cmd.Run()
			exit, ok := err.(*exec.ExitError)
			if !ok || exit.ExitCode() != 1 {
				t.Fatalf("-free-mb %s: got %v, want exit 1", tc.freeMB, err)
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "hermes-cluster: -free-mb ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
				t.Fatalf("-free-mb %s: stderr %q, want one hermes-cluster line containing %q", tc.freeMB, msg, tc.want)
			}
		})
	}
	// The default residual buffer still runs under pressure.
	out, err := exec.Command(bin, "-pressure", "anon", "-free-mb", "300", "-mem-gb", "1",
		"-nodes", "1", "-shards", "1", "-requests", "10", "-allocators", "glibc").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "pressure=anon") {
		t.Fatalf("-free-mb 300: %v\n%s", err, out)
	}
}

// buildCLI builds the real binary into a temp dir; short mode skips the
// tests that need it.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping binary build")
	}
	bin := filepath.Join(t.TempDir(), "hermes-cluster")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
	return bin
}
