// Command experiments regenerates the tables and figures of the
// paper's evaluation (Sec. 5). Each experiment renders text tables
// and/or CSV series (internal/report) to stdout; figures are CSV so
// they can be plotted with any tool. The "telemetry" experiment runs
// the live measurement showcase on selftune/telemetry, and -csv/-trace
// export its collector snapshot as figure data and a Chrome
// trace-event file (chrome://tracing, Perfetto).
//
// Usage:
//
//	experiments [-seed N] [-reps N] [-frames N] [-quick] [-csv F] [-trace F] <experiment>...
//	experiments all
//
// Experiments: fig1 fig2 table1 fig4 fig5 fig6 fig7 fig8 fig9 fig10
// fig11 table2 fig12 fig13 fig14 table3 migration numa telemetry
// cluster slo sloaware ablations
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/simtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
		os.Exit(2)
	}
}

// run parses the command line and writes the selected experiments'
// output to w (or to the -o file).
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "deterministic seed for all experiments")
	reps := fs.Int("reps", 100, "repetitions for statistical experiments (paper uses 100)")
	frames := fs.Int("frames", 1400, "frames for the feedback experiments (paper plots ~1400)")
	quick := fs.Bool("quick", false, "shrink reps/frames for a fast smoke run")
	outPath := fs.String("o", "", "write the output to this file instead of stdout")
	cores := fs.Int("cores", 4, "cores of the telemetry scenario machine")
	parallel := fs.Int("parallel", 0, "worker goroutines advancing the cluster experiment's machine engines per tick (0 = GOMAXPROCS; results are identical at every setting)")
	csvPath := fs.String("csv", "", "export the telemetry scenario's CSV series to this file")
	tracePath := fs.String("trace", "", "export the telemetry scenario's Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	out := w
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	if *quick {
		*reps = 10
		*frames = 400
	}
	args = fs.Args()
	if len(args) == 0 {
		return fmt.Errorf("usage: experiments [flags] <fig1|fig2|table1|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|table2|fig12|fig13|fig14|table3|migration|numa|telemetry|cluster|slo|sloaware|ablations|all>...")
	}
	want := make(map[string]bool)
	all := false
	for _, a := range args {
		a = strings.ToLower(a)
		if a == "all" {
			all = true
		}
		want[a] = true
	}
	selected := func(name string) bool { return all || want[name] }
	ran := 0
	// emit renders a sequence of report series, blank-line separated.
	emit := func(series ...*report.Series) {
		for _, s := range series {
			fmt.Fprint(out, s.String())
		}
		fmt.Fprintln(out)
	}

	if selected("fig1") {
		ran++
		r := experiments.Fig1()
		r.Series.AddNote("landmarks: B(T=P)=%.3f (paper 0.20), B(34ms)=%.3f (paper ~0.29), B(200ms)=%.3f (paper ~0.60)",
			r.AtTaskPeriod, r.AtT34, r.AtT200)
		emit(r.Series)
	}
	if selected("fig2") {
		ran++
		r := experiments.Fig2()
		r.Series.AddNote("utilisation=%.3f best waste=%.3f worst waste=%.3f (paper: 6%%..41%%)",
			r.Utilization, r.BestWaste, r.WorstWaste)
		emit(r.Series)
	}
	if selected("table1") {
		ran++
		runs := 10
		if *quick {
			runs = 3
		}
		fmt.Fprintln(out, experiments.Table1(*seed, runs).Table())
	}
	if selected("fig4") {
		ran++
		fmt.Fprintln(out, experiments.Fig4(*seed, 30*simtime.Second).Table())
	}
	if selected("fig5") {
		ran++
		emit(experiments.Fig5(*seed).Series)
	}
	if selected("fig6") {
		ran++
		r := experiments.Fig6(*seed, *reps)
		over, prec := r.Series()
		for _, df := range slices.Sorted(maps.Keys(r.TimeFitR2)) {
			prec.AddNote("linearity of time vs H at deltaF=%.1f: R2=%.4f", df, r.TimeFitR2[df])
		}
		emit(over, prec)
	}
	if selected("fig7") {
		ran++
		r := experiments.Fig7(*seed, *reps)
		over, prec := r.Series()
		prec.AddNote("detection std: fmax=100 -> %.2fHz, fmax=400 -> %.2fHz (paper: grows)",
			r.StdAt100, r.StdAt400)
		emit(over, prec)
	}
	if selected("fig8") {
		ran++
		r := experiments.Fig8(*seed, *reps)
		s := r.Series()
		s.AddNote("alpha=0 vs alpha=0.2 cost ratio: %.2fx", r.SpeedupFromAlpha)
		emit(s)
	}
	if selected("fig9") {
		ran++
		emit(experiments.Fig9(*seed, *reps).Series())
	}
	if selected("fig10") {
		ran++
		r := experiments.Fig10(*seed)
		r.Series.AddNote("normalised peak at 32.5Hz per tracing time: %v", r.PeakSharpness)
		emit(r.Series)
	}
	if selected("fig11") {
		ran++
		r := experiments.Fig11(*seed, *reps)
		s1, s2 := r.Series()
		s2.AddNote("hit-rate near 32.5Hz: H=200ms %.0f%%, H=2s %.0f%%; harmonics: %.0f%% vs %.0f%%",
			r.ShortHit*100, r.LongHit*100, r.ShortHarmonic*100, r.LongHarmonic*100)
		emit(s1, s2)
	}
	if selected("table2") || selected("fig12") {
		ran++
		r := experiments.Table2(*seed, *reps, simtime.Second)
		fmt.Fprintln(out, r.Table())
		emit(r.Series())
	}
	if selected("fig13") {
		ran++
		r := experiments.Fig13(*seed, *frames)
		r.Reserved.AddNote("IFT stats: LFS mean=%.3fms std=%.3fms | LFS++ mean=%.3fms std=%.3fms",
			r.LFSStats.Mean, r.LFSStats.Std, r.LFSPStats.Mean, r.LFSPStats.Std)
		r.Reserved.AddNote("paper:     LFS mean=39.992ms std=11.287ms | LFS++ mean=40.925ms std=4.631ms")
		emit(r.IFT, r.Reserved)
	}
	if selected("fig14") {
		ran++
		r := experiments.Fig14(*seed, *frames)
		r.ReservedCDF.AddNote("P(IFT>60ms): LFS %.3f vs LFS++ %.3f; allocation spread (p95-p05): %.3f vs %.3f",
			r.LFSTail, r.LFSPTail, r.LFSSpread, r.LFSPSpread)
		emit(r.IFTCDF, r.ReservedCDF)
	}
	if selected("table3") {
		ran++
		fmt.Fprintln(out, experiments.Table3(*seed, *frames).Table())
	}
	if selected("migration") {
		ran++
		fmt.Fprintln(out, experiments.MigrationContention(*seed, 8, 4*simtime.Second).Table())
	}
	if selected("numa") {
		ran++
		horizon := 4 * simtime.Second
		if *quick {
			horizon = 2 * simtime.Second
		}
		fmt.Fprintln(out, experiments.NUMAContention(*seed, 4, 16, horizon).Table())
	}
	if selected("telemetry") {
		ran++
		if *cores < 2 {
			return fmt.Errorf("-cores %d: the telemetry scenario needs at least 2 cores", *cores)
		}
		horizon := 10 * simtime.Second
		if *quick {
			horizon = 4 * simtime.Second
		}
		r := experiments.TelemetryScenario(*seed, *cores, horizon)
		for _, t := range r.Tables() {
			t.Render(out)
		}
		fmt.Fprintln(out)
		if *csvPath != "" {
			if err := exportTo(*csvPath, r.Snapshot.WriteCSV); err != nil {
				return err
			}
		}
		if *tracePath != "" {
			if err := exportTo(*tracePath, r.Snapshot.WriteTrace); err != nil {
				return err
			}
		}
	}
	if selected("cluster") {
		ran++
		machines, ccores, realms := 100, 64, 8
		horizon := 30 * simtime.Second
		if *quick {
			machines, ccores, realms = 12, 16, 4
			horizon = 9 * simtime.Second
		}
		fmt.Fprintln(out, experiments.ClusterContention(*seed, machines, ccores, realms, horizon, *parallel).Table())
	}
	if selected("slo") {
		ran++
		machines, scores := 4, 8
		horizon := 12 * simtime.Second
		if *quick {
			machines, scores = 2, 4
			horizon = 6 * simtime.Second
		}
		fmt.Fprintln(out, experiments.SLOExperiment(*seed, machines, scores, horizon).Table())
	}
	if selected("sloaware") {
		ran++
		machines, scores := 4, 8
		horizon := 12 * simtime.Second
		if *quick {
			machines, scores = 2, 4
			horizon = 6 * simtime.Second
		}
		fmt.Fprintln(out, experiments.SLOAwareFleet(*seed, machines, scores, horizon, *parallel).Table())
	}
	if selected("ablations") {
		ran++
		fmt.Fprintln(out, experiments.AblationPredictor(*seed, *frames).Table())
		fmt.Fprintln(out, experiments.AblationSpread(*seed, *frames).Table())
		fmt.Fprintln(out, experiments.AblationSampling(*seed, *frames).Table())
		fmt.Fprintln(out, experiments.AblationCBSMode(*seed, *frames).Table())
		fmt.Fprintln(out, experiments.AblationStateTrace(*seed, *reps, simtime.Second).Table())
		fmt.Fprintln(out, experiments.AblationScoring(*seed, *reps).Table())
		d := experiments.AblationDenseGrid(*seed)
		t := report.NewTable("Ablation: sparse vs dense transform", "quantity", "value")
		t.AddRowf("events", d.Events)
		t.AddRowf("sparse ops (N*F, Eq. 3)", d.SparseOps)
		t.AddRowf("sparse time (anchored rotation)", fmt.Sprintf("%.0fus", d.SparseTimeUS))
		t.AddRowf("dense 1us-grid samples", d.DenseSamples)
		t.AddNote("the dense grid needs %d samples before any FFT butterfly", d.DenseSamples)
		fmt.Fprintln(out, t)
	}
	if ran == 0 {
		return fmt.Errorf("nothing matched %v", args)
	}
	return nil
}

// exportTo writes one exporter's output to a file.
func exportTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
