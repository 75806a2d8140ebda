package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"onepipe/internal/experiments"
)

// unpinned are the registry figures TestResultsQuick leaves out, each with
// why.
var unpinned = map[string]string{
	"8a":    "7.6 s at quick scale",
	"8b":    "7.1 s at quick scale",
	"12a":   "29 s at quick scale",
	"12b":   "105 s at quick scale",
	"14a":   "14 s at quick scale",
	"14b":   "7.1 s at quick scale",
	"14c":   "29 s at quick scale",
	"scale": "prints wall-clock values",
}

// wallNote starts the note onepipe-bench appends to every table; it is the
// one line of a section that differs from run to run.
const wallNote = "  note: scale=quick, wall time "

// quickSections splits results_quick.txt into its tables by figure ID, each
// from its "== id: title ==" line through the blank line after it, with the
// wall-time note dropped.
func quickSections(text string) map[string]string {
	sections := make(map[string]string)
	var id string
	var sb strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, ":")
			sb.Reset()
		}
		if id == "" || strings.HasPrefix(line, wallNote) {
			continue
		}
		sb.WriteString(line)
		if line == "\n" {
			sections[id] = sb.String()
			id = ""
		}
	}
	return sections
}

// TestResultsQuick re-runs every registry figure at quick scale, except
// those in unpinned, and requires its printed table to equal its section of
// the committed results_quick.txt apart from the wall-time note. Every
// figure runs on the seeded simulator, so a table that moves means the run
// changed: regenerate results_quick.txt (`make results`) only in a change
// that says why. Its slo and serve cases are the tail-latency and serving
// tier pins.
func TestResultsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the quick-scale figures (about 11 s)")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "results_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sections := quickSections(string(raw))
	for _, r := range experiments.Registry() {
		t.Run(r.ID, func(t *testing.T) {
			if why, ok := unpinned[r.ID]; ok {
				t.Skip(why)
			}
			want, ok := sections[r.ID]
			if !ok {
				t.Fatalf("figure %s: results_quick.txt has no section", r.ID)
			}
			var sb strings.Builder
			r.Run(experiments.Quick()).Print(&sb)
			got := sb.String()
			if got == want {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; ; i++ {
				g, w := "<end>", "<end>"
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("figure %s differs from results_quick.txt at line %d of its table:\n got: %s\nwant: %s", r.ID, i+1, g, w)
				}
			}
		})
	}
}
