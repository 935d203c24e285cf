package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden")

// goldenExperiments is every experiment.
var goldenExperiments = []string{
	"fig1", "fig2", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "table2", "fig13", "fig14", "table3", "migration", "numa",
	"telemetry", "cluster", "slo", "sloaware", "ablations",
}

// Values in the -quick output that are measured on the host rather
// than simulated: the cluster experiment's event rate, the ablation's
// sparse-transform timing, which also sets the width of its table's
// value column, and the period analyser's costs in Figures 6-8
// (the time column of the blocks titled by hostTimed, the R² of time
// against H, and the alpha cost ratio).
var (
	eventRate   = regexp.MustCompile(`[0-9.]+ events/s`)
	sparseTime  = regexp.MustCompile(`(?m)^(sparse time \([a-z ]+\) +)[0-9]+us$`)
	sparseWidth = regexp.MustCompile(`(== Ablation: sparse vs dense transform ==\n.*\n-+  )-+`)
	rSquared    = regexp.MustCompile(`R2=[0-9.]+`)
	costRatio   = regexp.MustCompile(`cost ratio: [0-9.]+x`)
	hostTimed   = regexp.MustCompile(`^# Figure (6a|7a|8): `)
)

// maskWallClock replaces every host-measured value with "-".
func maskWallClock(out string) string {
	out = eventRate.ReplaceAllString(out, "- events/s")
	out = sparseTime.ReplaceAllString(out, "${1}-")
	out = sparseWidth.ReplaceAllString(out, "${1}-")
	out = rSquared.ReplaceAllString(out, "R2=-")
	out = costRatio.ReplaceAllString(out, "cost ratio: -x")
	return maskTimeColumns(out)
}

// maskTimeColumns replaces the time_ms or time_us column of every CSV
// block titled by hostTimed with "-". A block ends at the next blank or
// comment line.
func maskTimeColumns(out string) string {
	lines := strings.Split(out, "\n")
	col := -1
	for i := 0; i < len(lines); i++ {
		switch l := lines[i]; {
		case hostTimed.MatchString(l) && i+1 < len(lines):
			i++ // the header names the columns
			col = slices.IndexFunc(strings.Split(lines[i], ","), func(name string) bool {
				return name == "time_ms" || name == "time_us"
			})
		case l == "" || strings.HasPrefix(l, "#"):
			col = -1
		case col >= 0:
			fields := strings.Split(l, ",")
			if col < len(fields) {
				fields[col] = "-"
				lines[i] = strings.Join(fields, ",")
			}
		}
	}
	return strings.Join(lines, "\n")
}

// TestQuickGolden pins every simulated number of `experiments -quick`
// across commits: the paper figures (with the analyser's operation
// counts, detected frequencies and scanned bins in Figures 6-8), the
// ablations and the multi-core and cluster studies, all of which run
// the self-tuning loop. The
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
