package main

import (
	"errors"
	"io/fs"
	"math"
	"strings"
	"testing"
)

// TestRunCampaignRejectsBadScale: a -scale that is not positive and finite
// fails by name before any cell runs or any report is written.
func TestRunCampaignRejectsBadScale(t *testing.T) {
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		err := runCampaign("../../examples/campaigns/ci-smoke.json", 1, "", f, false, true)
		if err == nil || !strings.Contains(err.Error(), "scale multiplier must be a positive, finite number") {
			t.Errorf("-scale %v: got %v", f, err)
		}
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
