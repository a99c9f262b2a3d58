package campaign

import (
	"fmt"
	"strings"
)

// Diff compares two campaign reports group by group and flags regressions
// in the new one. The noise gate is two-sided: a p99 increase counts only
// when it exceeds gatePct percent of the old median AND lands above the
// old median's bootstrap CI upper bound; a compliance drop counts only
// when it exceeds gatePct percentage points AND lands below the old CI
// lower bound. Crossing both bars separates a real shift from seed noise.
//
// Reports of another campaign, at another scale or over other axes are
// not comparable: a group's p99 at 0.02 of a scenario is not a regression
// against the same group at 0.05. Diff then returns an error naming the
// first of those fields that differs, with both values, and compares no
// group.
//
// Returns the human-readable diff and whether any regression was flagged.
func Diff(old, new *Report, gatePct float64) (string, bool, error) {
	if err := checkComparable(old, new); err != nil {
		return "", false, err
	}
	var b strings.Builder
	regressed := false
	fmt.Fprintf(&b, "campaign diff: %q → %q (gate %.1f%%)\n", old.Name, new.Name, gatePct)

	seen := make(map[string]bool)
	for _, id := range old.sortedGroupIDs() {
		seen[id] = true
		og, ng := old.group(id), new.group(id)
		if ng == nil {
			fmt.Fprintf(&b, "  %-40s  MISSING in new report\n", id)
			regressed = true
			continue
		}
		var flags []string
		if worse, detail := p99Regressed(og.P99, ng.P99, gatePct); worse {
			flags = append(flags, "p99 REGRESSED "+detail)
		} else {
			flags = append(flags, "p99 "+detail)
		}
		if worse, detail := complianceRegressed(og.Compliance, ng.Compliance, gatePct); worse {
			flags = append(flags, "compliance REGRESSED "+detail)
		} else if detail != "" {
			flags = append(flags, "compliance "+detail)
		}
		status := "ok"
		if strings.Contains(strings.Join(flags, " "), "REGRESSED") {
			status = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(&b, "  %-40s  %-10s  %s\n", id, status, strings.Join(flags, ", "))
	}
	for _, id := range new.sortedGroupIDs() {
		if !seen[id] {
			fmt.Fprintf(&b, "  %-40s  new group (no baseline)\n", id)
		}
	}
	return b.String(), regressed, nil
}

// checkComparable returns an error naming the first of name, scale and
// axes on which old and new differ.
func checkComparable(old, new *Report) error {
	if old.Name != new.Name {
		return fmt.Errorf("name differs: %q (old) vs %q (new)", old.Name, new.Name)
	}
	if old.Scale != new.Scale {
		return fmt.Errorf("scale differs: %v (old) vs %v (new)", old.Scale, new.Scale)
	}
	if oa, na := fmt.Sprintf("%+v", old.Axes), fmt.Sprintf("%+v", new.Axes); oa != na {
		return fmt.Errorf("axes differ: %s (old) vs %s (new)", oa, na)
	}
	return nil
}

// p99Regressed applies the two-sided gate to a latency estimate (higher is
// worse).
func p99Regressed(old, new Estimate, gatePct float64) (bool, string) {
	detail := fmt.Sprintf("%s → %s", fmtDurNS(old.Median), fmtDurNS(new.Median))
	if old.Median <= 0 {
		return false, detail
	}
	deltaPct := (new.Median - old.Median) / old.Median * 100
	if deltaPct > gatePct && new.Median > old.Hi {
		return true, fmt.Sprintf("%s (+%.1f%%, above old CI hi %s)",
			detail, deltaPct, fmtDurNS(old.Hi))
	}
	return false, fmt.Sprintf("%s (%+.1f%%)", detail, deltaPct)
}

// complianceRegressed applies the gate to an SLO-compliance estimate
// (lower is worse, measured in percentage points).
func complianceRegressed(old, new Estimate, gatePct float64) (bool, string) {
	if old.Median == 0 && new.Median == 0 {
		return false, "" // no SLO in either run
	}
	detail := fmt.Sprintf("%.2f%% → %.2f%%", old.Median*100, new.Median*100)
	dropPts := (old.Median - new.Median) * 100
	if dropPts > gatePct && new.Median < old.Lo {
		return true, fmt.Sprintf("%s (-%.2f pts, below old CI lo %.2f%%)",
			detail, dropPts, old.Lo*100)
	}
	return false, detail
}
