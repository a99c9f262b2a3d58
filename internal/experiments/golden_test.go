package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenExperiments renders every hermes-bench experiment, composed exactly
// as cmd/hermes-bench composes its output, in the order it runs them.
var goldenExperiments = []struct {
	name   string
	render func(Scale, uint64) string
}{
	{"fig2", func(sc Scale, seed uint64) string { return Fig2(sc, seed).Render() }},
	{"fig3", func(sc Scale, seed uint64) string { return Fig3(sc, seed).Render() }},
	{"fig6", func(sc Scale, seed uint64) string { return Fig6Ablation(sc, seed).Render() }},
	{"fig7", func(sc Scale, seed uint64) string { return Fig7(sc, seed).Render() }},
	{"fig8", func(sc Scale, seed uint64) string { return Fig8(sc, seed).Render() }},
	{"fig9", func(sc Scale, seed uint64) string {
		f := Fig9(sc, seed)
		return f.RenderLatency("Figure 9") + "\n" + f.RenderTail("Figure 11") + "\n" + f.RenderViolation("Figure 13")
	}},
	{"fig10", func(sc Scale, seed uint64) string {
		f := Fig10(sc, seed)
		return f.RenderLatency("Figure 10") + "\n" + f.RenderTail("Figure 12") + "\n" + f.RenderViolation("Figure 14")
	}},
	{"fig15", func(sc Scale, seed uint64) string { return Fig15(sc, seed).Render() }},
	{"fig16", func(sc Scale, seed uint64) string { return Fig16(sc, seed).Render() }},
	{"table1", func(sc Scale, seed uint64) string { return Table1(sc, seed).Render() }},
	{"overhead", func(sc Scale, seed uint64) string { return Overhead(sc, seed).Render() }},
	{"mlock", func(sc Scale, seed uint64) string { return MlockAblation(sc, seed).Render() }},
}

// TestExperimentGoldens pins the bytes of every paper artifact: each
// hermes-bench experiment at QuickScale, seed 1, must render exactly its
// file under testdata/golden (the `output` field of `hermes-bench -scale
// quick -json`). Regenerate with HERMES_UPDATE_GOLDEN=1 go test -run
// TestExperimentGoldens ./internal/experiments/ after an intended change.
func TestExperimentGoldens(t *testing.T) {
	update := os.Getenv("HERMES_UPDATE_GOLDEN") != ""
	for _, e := range goldenExperiments {
		t.Run(e.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", e.name+".txt")
			got := e.render(QuickScale(), 1)
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with HERMES_UPDATE_GOLDEN=1)", err)
			}
			if got != string(want) {
				t.Errorf("%s diverged from %s at %s", e.name, path, firstLineDiff(got, string(want)))
			}
		})
	}
}

// firstLineDiff names the first line where got departs from want.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
