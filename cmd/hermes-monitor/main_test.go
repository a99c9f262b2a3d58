package main

import (
	"math"
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
