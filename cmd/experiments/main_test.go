package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden")

// goldenExperiments is every experiment except fig6, fig7 and fig8,
// whose content is the wall-clock cost of the period analyser.
var goldenExperiments = []string{
	"fig1", "fig2", "table1", "fig4", "fig5", "fig9", "fig10", "fig11", "table2",
	"fig13", "fig14", "table3", "migration", "numa", "telemetry", "cluster",
	"slo", "sloaware", "ablations",
}

// Values in the -quick output that are measured on the host rather
// than simulated: the cluster experiment's event rate and the
// ablation's two sparse-transform timings, which also set the width of
// their table's value column.
var (
	eventRate   = regexp.MustCompile(`[0-9.]+ events/s`)
	sparseTime  = regexp.MustCompile(`(?m)^(sparse time \([a-z]+\) +)[0-9]+us$`)
	sparseWidth = regexp.MustCompile(`(== Ablation: sparse vs dense transform ==\n.*\n-+  )-+`)
)

// maskWallClock replaces every host-measured value with "-".
func maskWallClock(out string) string {
	out = eventRate.ReplaceAllString(out, "- events/s")
	out = sparseTime.ReplaceAllString(out, "${1}-")
	return sparseWidth.ReplaceAllString(out, "${1}-")
}

// TestQuickGolden pins every simulated number of `experiments -quick`
// across commits: the paper figures, the ablations and the multi-core
// and cluster studies, all of which run the self-tuning loop. The
// cluster worker count is fixed because the output reports it. Run
// `go test ./cmd/experiments -update` after an intentional change.
func TestQuickGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(append([]string{"-quick", "-parallel", "2"}, goldenExperiments...), &buf); err != nil {
		t.Fatal(err)
	}
	got := maskWallClock(buf.String())
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if got != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("output drifted from %s at line %d:\n  want: %s\n  got:  %s", path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
