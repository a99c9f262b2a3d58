package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCampaignRejectsBadScale: a -scale that is not positive and finite,
// or a negative -workers, fails by name before any cell runs or any report
// is written. The -workers rows name a campaign file that does not exist:
// the flag is checked before the file is read.
func TestRunCampaignRejectsBadScale(t *testing.T) {
	const spec = "../../examples/campaigns/ci-smoke.json"
	const badScale = "scale multiplier must be a positive, finite number"
	for _, tc := range []struct {
		path    string
		workers int
		scale   float64
		want    string
	}{
		{spec, 1, 0, badScale},
		{spec, 1, -1, badScale},
		{spec, 1, math.NaN(), badScale},
		{spec, 1, math.Inf(1), badScale},
		{"missing-campaign.json", -3, 1, "-workers -3 must be >= 0"},
		{"missing-campaign.json", -1, 1, "-workers -1 must be >= 0"},
	} {
		err := runCampaign(tc.path, tc.workers, "", tc.scale, false, true)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-workers %d -scale %v: got %v, want %q", tc.workers, tc.scale, err, tc.want)
		}
	}
	// 0 still means GOMAXPROCS: it gets as far as reading the file.
	if err := runCampaign("missing-campaign.json", 0, "", 1, false, true); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("-workers 0: got %v, want the missing campaign file", err)
	}
}

// TestRunDiffRejectsBadGate: a -gate-pct that is NaN, negative or infinite
// fails by name before either report is read (neither file exists), while
// any finite gate of 0 or more, however large, gets as far as reading them.
func TestRunDiffRejectsBadGate(t *testing.T) {
	for _, g := range []float64{math.NaN(), -1, math.Inf(1), math.Inf(-1)} {
		err := runDiff("missing-old.json", "missing-new.json", g)
		if err == nil || !strings.HasPrefix(err.Error(), "-gate-pct ") || !strings.Contains(err.Error(), "must be a finite number >= 0") {
			t.Errorf("-gate-pct %v: got %v", g, err)
		}
	}
	for _, g := range []float64{0, 5, 1e300} {
		if err := runDiff("missing-old.json", "missing-new.json", g); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("-gate-pct %v: got %v, want the missing old report", g, err)
		}
	}
}

// TestRunDiffRefusesOtherScale: the committed report diffs against itself,
// while the same report at another scale is refused by name, in both
// directions, before any group is compared.
func TestRunDiffRefusesOtherScale(t *testing.T) {
	const committed = "../../examples/campaigns/adaptive-sweep-report.json"
	if err := runDiff(committed, committed, 5); err != nil {
		t.Fatalf("self-diff of %s: %v", committed, err)
	}
	rep, err := readReport(committed)
	if err != nil {
		t.Fatal(err)
	}
	rep.Scale = 0.05
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), "other-scale.json")
	if err := os.WriteFile(other, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{committed, other}, {other, committed}} {
		err := runDiff(pair[0], pair[1], 5)
		if err == nil || !strings.Contains(err.Error(), "scale differs") ||
			!strings.Contains(err.Error(), "0.2") || !strings.Contains(err.Error(), "0.05") {
			t.Errorf("-diff %s %s: got %v, want a scale mismatch naming 0.2 and 0.05", pair[0], pair[1], err)
		}
	}
}
