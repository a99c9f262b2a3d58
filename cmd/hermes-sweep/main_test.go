package main

import (
	"errors"
	"io/fs"
	"math"
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
