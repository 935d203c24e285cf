// Benchcmp is CI's gate on the host-timed benchmark numbers. It reads
// two `go test -bench` outputs made on one runner, the parent commit's
// and the change's, each holding the same benchmarks run N times with
// the two binaries alternating, and pairs the k-th result of a
// benchmark in one file with the k-th in the other:
//
//	benchcmp [-json F] parent.txt change.txt
//
// It gates events_per_s and speedup_x, both higher-is-better. The
// change fails when its median of a gated metric is below 0.8× the
// parent's, when it lacks a gated metric the parent reports, or when a
// benchmark ran a different number of times in the two files. Each
// gated metric is printed with both medians, the parent's interquartile
// range and the pairs the change won. A benchmark the parent lacks is
// printed but not gated. -json writes the median of every unit of every
// benchmark in the change's file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// gated are the metrics the comparison gates, both higher-is-better:
// simulated events per wall second, and a parallel run's speed over its
// own serial replay.
var gated = []string{"events_per_s", "speedup_x"}

// bound is the lowest change/parent ratio of medians that passes.
const bound = 0.8

// runs maps a benchmark's name to its results in file order, one map
// from unit to value per run.
type runs map[string][]map[string]float64

// procs is the -N GOMAXPROCS suffix `go test` appends to a name.
var procs = regexp.MustCompile(`-[0-9]+$`)

// parse collects every result line of `go test -bench` output: the
// name, the iteration count, then value-unit pairs.
func parse(text string) runs {
	out := make(runs)
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		res := make(map[string]float64)
		for i := 2; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				res[fields[i+1]] = v
			}
		}
		name := procs.ReplaceAllString(fields[0], "")
		out[name] = append(out[name], res)
	}
	return out
}

// values returns unit's value in every run, or false if a run lacks it.
func values(rs []map[string]float64, unit string) ([]float64, bool) {
	xs := make([]float64, len(rs))
	for k, r := range rs {
		v, ok := r[unit]
		if !ok {
			return nil, false
		}
		xs[k] = v
	}
	return xs, len(xs) > 0
}

// quartiles returns the median and the interquartile range of xs.
func quartiles(xs []float64) (med, iqr float64) {
	s := slices.Sorted(slices.Values(xs))
	return stats.Quantile(s, 0.5), stats.Quantile(s, 0.75) - stats.Quantile(s, 0.25)
}

// compare gates change against parent and returns an error if any
// gated metric failed.
func compare(parent, change runs, w io.Writer) error {
	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
		failed = true
	}
	for _, name := range slices.Sorted(maps.Keys(parent)) {
		if len(change[name]) == 0 {
			fail("%s: missing from the change", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(change)) {
		p, c := parent[name], change[name]
		if len(p) > 0 && len(p) != len(c) {
			fail("%s: %d runs at the parent, %d in the change", name, len(p), len(c))
			continue
		}
		for _, unit := range gated {
			pv, inParent := values(p, unit)
			cv, inChange := values(c, unit)
			switch {
			case !inParent:
				if inChange {
					med, _ := quartiles(cv)
					fmt.Fprintf(w, "new  %s %s: median %.4g, absent from the parent, not gated\n", name, unit, med)
				}
			case !inChange:
				fail("%s %s: reported by the parent, missing from the change", name, unit)
			default:
				won := 0
				for k := range pv {
					if cv[k] > pv[k] {
						won++
					}
				}
				pm, piqr := quartiles(pv)
				cm, _ := quartiles(cv)
				status := "ok  "
				if cm < bound*pm {
					status, failed = "FAIL", true
				}
				fmt.Fprintf(w, "%s %s %s: median %.4g -> %.4g (%.3fx, bound %.2fx), parent IQR %.4g, change won %d/%d\n",
					status, name, unit, pm, cm, cm/pm, bound, piqr, won, len(pv))
			}
		}
	}
	if failed {
		return fmt.Errorf("the change fails the paired gate")
	}
	return nil
}

// dumpJSON writes the median of every unit of every benchmark in
// change, keyed by benchmark and unit: the trajectory point CI
// archives. encoding/json sorts the keys.
func dumpJSON(change runs, w io.Writer) error {
	out := make(map[string]map[string]float64)
	for name, rs := range change {
		out[name] = make(map[string]float64)
		for unit := range rs[0] {
			if xs, ok := values(rs, unit); ok {
				out[name][unit], _ = quartiles(xs)
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func run() error {
	jsonPath := flag.String("json", "", "also write the change's median of every unit of every benchmark to this file")
	flag.Parse()
	if flag.NArg() != 2 {
		return fmt.Errorf("usage: benchcmp [-json F] parent.txt change.txt")
	}
	var files [2]runs
	for i := range files {
		text, err := os.ReadFile(flag.Arg(i))
		if err != nil {
			return err
		}
		files[i] = parse(string(text))
	}
	if *jsonPath != "" {
		var dump bytes.Buffer
		if err := dumpJSON(files[1], &dump); err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, dump.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return compare(files[0], files[1], os.Stdout)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}
