package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentGoldens pins the bytes of every paper artifact: each entry
// of Artifacts, the list hermes-bench runs, at QuickScale, seed 1, must
// render exactly its
// file under testdata/golden (the `output` field of `hermes-bench -scale
// quick -json`). Regenerate with HERMES_UPDATE_GOLDEN=1 go test -run
// TestExperimentGoldens ./internal/experiments/ after an intended change.
func TestExperimentGoldens(t *testing.T) {
	update := os.Getenv("HERMES_UPDATE_GOLDEN") != ""
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", a.Name+".txt")
			got := a.Render(QuickScale(), 1)
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
				t.Errorf("%s diverged from %s at %s", a.Name, path, firstLineDiff(got, string(want)))
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
