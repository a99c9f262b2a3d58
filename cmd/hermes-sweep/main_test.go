package main

import (
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
