package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// bench is one benchmark's value of each unit in each run.
type bench struct {
	name  string
	units map[string][]float64
}

var (
	hotPath = bench{"BenchmarkEngineHotPath", map[string][]float64{
		"ns/op":        {7.1e6, 7.0e6, 7.3e6, 6.9e6, 7.2e6},
		"events_per_s": {9.2e6, 9.3e6, 9.0e6, 9.5e6, 9.1e6},
		"ns_per_event": {108, 107, 111, 105, 110},
	}}
	ticks = bench{"BenchmarkClusterParallelTicks", map[string][]float64{
		"ns/op":            {1.7e7, 1.8e7, 1.6e7, 1.7e7, 1.9e7},
		"events_per_s":     {4.1e6, 3.9e6, 4.3e6, 4.0e6, 3.7e6},
		"sim_s_per_wall_s": {117, 112, 123, 115, 106},
		"speedup_x":        {0.89, 1.31, 1.12, 0.95, 1.40},
	}}
	machine = bench{"BenchmarkCoreParallelMachine", map[string][]float64{
		"ns/op":        {2.4e6, 2.6e6, 2.3e6, 2.5e6, 2.4e6},
		"events_per_s": {1.56e7, 1.44e7, 1.62e7, 1.50e7, 1.56e7},
		"speedup_x":    {2.89, 2.40, 3.10, 2.75, 5.94},
	}}
)

// with returns a copy of b whose unit takes the values vs, or loses the
// unit if vs is nil.
func (b bench) with(unit string, vs []float64) bench {
	units := maps.Clone(b.units)
	if vs == nil {
		delete(units, unit)
	} else {
		units[unit] = vs
	}
	return bench{b.name, units}
}

// scaled returns a copy of b with every value of unit multiplied by f.
func (b bench) scaled(unit string, f float64) bench {
	vs := slices.Clone(b.units[unit])
	for k := range vs {
		vs[k] *= f
	}
	return b.with(unit, vs)
}

// output renders the concatenated output of repeated runs of one test
// binary, as CI collects it: each run prints its header, one result
// line per benchmark that has a value in that run, and PASS. suffix
// follows each name, as -N does at GOMAXPROCS N.
func output(suffix string, benches ...bench) string {
	var b strings.Builder
	for k := 0; ; k++ {
		var lines []string
		for _, bn := range benches {
			line, has := fmt.Sprintf("%s%s \t       1", bn.name, suffix), false
			for _, unit := range slices.Sorted(maps.Keys(bn.units)) {
				if vs := bn.units[unit]; k < len(vs) {
					line += fmt.Sprintf("\t%12g %s", vs[k], unit)
					has = true
				}
			}
			if has {
				lines = append(lines, line)
			}
		}
		if len(lines) == 0 {
			return b.String()
		}
		b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\ncpu: Intel(R) Xeon(R) Processor\n")
		for _, line := range lines {
			b.WriteString(line + "\n")
		}
		b.WriteString("PASS\n")
	}
}

// gate runs compare on two renderings and returns its report and error.
func gate(parent, change string) (string, error) {
	var out strings.Builder
	err := compare(parse(parent), parse(change), &out)
	return out.String(), err
}

func TestParseBenchExtractsMetrics(t *testing.T) {
	text := output("-2", hotPath, ticks) +
		"BenchmarkMigrationContention64Core-2 \t       1\t 169294643 ns/op\t 62.00 migrations\n" +
		"BenchmarkMigrationContention8Core \t       1\t  42841132 ns/op\t 7.000 migrations\n" +
		"--- FAIL: BenchmarkBroken\nok  \trepro\t1.2s\n"
	got := parse(text)
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), slices.Sorted(maps.Keys(got)))
	}
	for _, b := range []bench{hotPath, ticks} {
		rs := got[b.name]
		if len(rs) != 5 {
			t.Fatalf("%s: %d runs, want 5", b.name, len(rs))
		}
		for unit, vs := range b.units {
			for k, v := range vs {
				if rs[k][unit] != v {
					t.Errorf("%s run %d %s = %v, want %v", b.name, k, unit, rs[k][unit], v)
				}
			}
		}
	}
	// A name's own digits survive; only the -N suffix goes.
	if rs := got["BenchmarkMigrationContention64Core"]; len(rs) != 1 || rs[0]["migrations"] != 62 {
		t.Errorf("64-core result %v, want one run with 62 migrations", rs)
	}
	if rs := got["BenchmarkMigrationContention8Core"]; len(rs) != 1 || rs[0]["migrations"] != 7 {
		t.Errorf("8-core result %v, want one run with 7 migrations", rs)
	}
}

func TestParseBenchMissingBenchmark(t *testing.T) {
	got := parse(output("", hotPath))
	if _, ok := got[ticks.name]; ok {
		t.Errorf("found results for a benchmark that did not run: %v", got[ticks.name])
	}
	if got := parse("goos: linux\npkg: repro\nPASS\n"); len(got) != 0 {
		t.Errorf("found results in output without result lines: %v", got)
	}
}

// TestComparePairsByRunIndex checks that the k-th run of the parent
// meets the k-th of the change, whatever GOMAXPROCS suffix each file
// carries: by index the change wins 3 of 4 pairs, by rank all 4.
func TestComparePairsByRunIndex(t *testing.T) {
	parent := bench{hotPath.name, map[string][]float64{"events_per_s": {10, 30, 20, 40}}}
	change := parent.with("events_per_s", []float64{40, 20, 30, 50})
	out, err := gate(output("-2", parent), output("-4", change))
	if err != nil {
		t.Fatalf("a faster change failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "change won 3/4") {
		t.Errorf("report does not pair by run index:\n%s", out)
	}
}

func TestQuartilesAtEvenAndOddCounts(t *testing.T) {
	for _, tc := range []struct {
		xs       []float64
		med, iqr float64
	}{
		{[]float64{7}, 7, 0},
		{[]float64{5, 1, 3}, 3, 2},
		{[]float64{4, 1, 3, 2}, 2.5, 1.5},
		{[]float64{9, 2, 6, 1, 8}, 6, 6},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 4.5},
	} {
		med, iqr := quartiles(tc.xs)
		if med != tc.med || iqr != tc.iqr {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, med, iqr, tc.med, tc.iqr)
		}
	}
}

func TestCompareIdenticalFilesPass(t *testing.T) {
	text := output("-2", hotPath, ticks, machine)
	out, err := gate(text, text)
	if err != nil {
		t.Fatalf("identical files failed the gate: %v\n%s", err, out)
	}
	// events_per_s of all three, speedup_x of two; a tie wins nothing.
	if n := strings.Count(out, "ok   "); n != 5 {
		t.Errorf("%d gated metrics, want 5:\n%s", n, out)
	}
	if n := strings.Count(out, "(1.000x, bound 0.80x)"); n != 5 {
		t.Errorf("%d ratios of 1, want 5:\n%s", n, out)
	}
	if n := strings.Count(out, "change won 0/5"); n != 5 {
		t.Errorf("ties counted as wins:\n%s", out)
	}
}

// TestCompareFailsOnRegression plants a change 30% slower in one
// metric of one benchmark: that metric fails, the others stay ok.
func TestCompareFailsOnRegression(t *testing.T) {
	out, err := gate(output("-2", hotPath, ticks, machine),
		output("-2", hotPath, ticks, machine.scaled("speedup_x", 0.7)))
	if err == nil {
		t.Fatalf("a 30%% slower speedup_x passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL BenchmarkCoreParallelMachine speedup_x") ||
		!strings.Contains(out, "(0.700x, bound 0.80x)") {
		t.Errorf("missing failure line:\n%s", out)
	}
	if strings.Count(out, "ok   ") != 4 {
		t.Errorf("the unchanged metrics did not all pass:\n%s", out)
	}
}

// TestCompareMetricUpDirection checks that both gated metrics are
// higher-is-better: a faster change passes, as does a slower one down
// to 0.8× its parent, and an ungated unit may move either way.
func TestCompareMetricUpDirection(t *testing.T) {
	parent := output("", ticks)
	for _, tc := range []struct {
		f    float64
		pass bool
	}{{1.3, true}, {0.85, true}, {0.8, true}, {0.75, false}} {
		change := output("", ticks.scaled("events_per_s", tc.f).scaled("ns/op", 3))
		if out, err := gate(parent, change); (err == nil) != tc.pass {
			t.Errorf("events_per_s ×%v: error %v, want pass=%v\n%s", tc.f, err, tc.pass, out)
		}
	}
}

func TestCompareMetricMissingFromCurrentFails(t *testing.T) {
	out, err := gate(output("-2", hotPath, ticks), output("-2", hotPath, ticks.with("speedup_x", nil)))
	if err == nil {
		t.Fatalf("a gated metric missing from the change passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL BenchmarkClusterParallelTicks speedup_x: reported by the parent, missing from the change") {
		t.Errorf("failure message does not name the cause:\n%s", out)
	}
	// Missing from one run is missing too.
	short := ticks.with("speedup_x", ticks.units["speedup_x"][:4])
	if out, err := gate(output("-2", ticks), output("-2", short)); err == nil {
		t.Errorf("a gated metric missing from one run of the change passed:\n%s", out)
	}
}

func TestCompareFailsWhenBenchmarkMissingFromCurrent(t *testing.T) {
	out, err := gate(output("-2", hotPath, ticks), output("-2", hotPath))
	if err == nil {
		t.Fatalf("a benchmark missing from the change passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL BenchmarkClusterParallelTicks: missing from the change") {
		t.Errorf("failure message does not name the cause:\n%s", out)
	}
}

func TestCompareFailsOnUnequalRunCounts(t *testing.T) {
	fewer := ticks
	fewer.units = make(map[string][]float64)
	for unit, vs := range ticks.units {
		fewer.units[unit] = vs[:4]
	}
	out, err := gate(output("-2", hotPath, ticks), output("-2", hotPath, fewer))
	if err == nil {
		t.Fatalf("5 runs against 4 passed:\n%s", out)
	}
	if !strings.Contains(out, "FAIL BenchmarkClusterParallelTicks: 5 runs at the parent, 4 in the change") {
		t.Errorf("failure message does not name the cause:\n%s", out)
	}
}

// TestCompareSkipsBenchmarkMissingFromBaseline checks that a benchmark
// the parent does not have is reported and not gated, however slow.
func TestCompareSkipsBenchmarkMissingFromBaseline(t *testing.T) {
	out, err := gate(output("-2", hotPath),
		output("-2", hotPath, machine.scaled("events_per_s", 0.1)))
	if err != nil {
		t.Fatalf("a benchmark new in the change failed the gate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "new  BenchmarkCoreParallelMachine events_per_s: median 1.56e+06, absent from the parent, not gated") ||
		!strings.Contains(out, "new  BenchmarkCoreParallelMachine speedup_x: median 2.89, absent from the parent, not gated") {
		t.Errorf("the new benchmark is not reported:\n%s", out)
	}
}

func TestCompareMetricMissingFromBaselineSkips(t *testing.T) {
	out, err := gate(output("-2", ticks.with("speedup_x", nil)),
		output("-2", ticks.scaled("speedup_x", 0.5)))
	if err != nil {
		t.Fatalf("a metric new in the change failed the gate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "new  BenchmarkClusterParallelTicks speedup_x: median 0.56, absent from the parent, not gated") {
		t.Errorf("the new metric is not reported:\n%s", out)
	}
	if !strings.Contains(out, "ok   BenchmarkClusterParallelTicks events_per_s") {
		t.Errorf("the metric both report was not gated:\n%s", out)
	}
}

// TestDumpJSONWritesWatchedBenchmarks checks the -json trajectory
// point: every benchmark in the change's file, with the median of each
// of its units, gated or not.
func TestDumpJSONWritesWatchedBenchmarks(t *testing.T) {
	var out strings.Builder
	if err := dumpJSON(parse(output("-2", hotPath, ticks)), &out); err != nil {
		t.Fatalf("dumpJSON: %v", err)
	}
	var got map[string]map[string]float64
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	want := map[string]map[string]float64{
		hotPath.name: {"ns/op": 7.1e6, "events_per_s": 9.2e6, "ns_per_event": 108},
		ticks.name:   {"ns/op": 1.7e7, "events_per_s": 4.0e6, "sim_s_per_wall_s": 115, "speedup_x": 1.12},
	}
	if !maps.EqualFunc(got, want, maps.Equal) {
		t.Errorf("dump = %v, want %v", got, want)
	}
}
