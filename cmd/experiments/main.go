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
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/simtime"
)

func main() {
	seed := flag.Uint64("seed", 42, "deterministic seed for all experiments")
	reps := flag.Int("reps", 100, "repetitions for statistical experiments (paper uses 100)")
	frames := flag.Int("frames", 1400, "frames for the feedback experiments (paper plots ~1400)")
	quick := flag.Bool("quick", false, "shrink reps/frames for a fast smoke run")
	outPath := flag.String("o", "", "write the output to this file instead of stdout")
	cores := flag.Int("cores", 4, "cores of the telemetry scenario machine")
	parallel := flag.Int("parallel", 0, "worker goroutines advancing the cluster experiment's machine engines per tick (0 = GOMAXPROCS; results are identical at every setting)")
	coreParallel := flag.Int("core-parallel", 0, "fleet-wide budget of core-lane workers for the cluster experiment's machines (0 = single-engine machines; the simulated results are identical at every setting, 0 included, and only the wall-clock events/s varies)")
	csvPath := flag.String("csv", "", "export the telemetry scenario's CSV series to this file")
	tracePath := flag.String("trace", "", "export the telemetry scenario's Chrome trace-event JSON to this file")
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	if *quick {
		*reps = 10
		*frames = 400
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] <fig1|fig2|table1|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|table2|fig12|fig13|fig14|table3|migration|numa|telemetry|cluster|slo|sloaware|ablations|all>...")
		os.Exit(2)
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
	run := func(name string) bool { return all || want[name] }
	ran := 0
	// emit renders a sequence of report series, blank-line separated.
	emit := func(series ...*report.Series) {
		for _, s := range series {
			fmt.Fprint(out, s.String())
		}
		fmt.Fprintln(out)
	}

	if run("fig1") {
		ran++
		r := experiments.Fig1()
		r.Series.AddNote("landmarks: B(T=P)=%.3f (paper 0.20), B(34ms)=%.3f (paper ~0.29), B(200ms)=%.3f (paper ~0.60)",
			r.AtTaskPeriod, r.AtT34, r.AtT200)
		emit(r.Series)
	}
	if run("fig2") {
		ran++
		r := experiments.Fig2()
		r.Series.AddNote("utilisation=%.3f best waste=%.3f worst waste=%.3f (paper: 6%%..41%%)",
			r.Utilization, r.BestWaste, r.WorstWaste)
		emit(r.Series)
	}
	if run("table1") {
		ran++
		runs := 10
		if *quick {
			runs = 3
		}
		fmt.Fprintln(out, experiments.Table1(*seed, runs).Table())
	}
	if run("fig4") {
		ran++
		fmt.Fprintln(out, experiments.Fig4(*seed, 30*simtime.Second).Table())
	}
	if run("fig5") {
		ran++
		emit(experiments.Fig5(*seed).Series)
	}
	if run("fig6") {
		ran++
		r := experiments.Fig6(*seed, *reps)
		over, prec := r.Series()
		for df, r2 := range r.TimeFitR2 {
			prec.AddNote("linearity of time vs H at deltaF=%.1f: R2=%.4f", df, r2)
		}
		emit(over, prec)
	}
	if run("fig7") {
		ran++
		r := experiments.Fig7(*seed, *reps)
		over, prec := r.Series()
		prec.AddNote("detection std: fmax=100 -> %.2fHz, fmax=400 -> %.2fHz (paper: grows)",
			r.StdAt100, r.StdAt400)
		emit(over, prec)
	}
	if run("fig8") {
		ran++
		r := experiments.Fig8(*seed, *reps)
		s := r.Series()
		s.AddNote("alpha=0 vs alpha=0.2 cost ratio: %.2fx", r.SpeedupFromAlpha)
		emit(s)
	}
	if run("fig9") {
		ran++
		emit(experiments.Fig9(*seed, *reps).Series())
	}
	if run("fig10") {
		ran++
		r := experiments.Fig10(*seed)
		r.Series.AddNote("normalised peak at 32.5Hz per tracing time: %v", r.PeakSharpness)
		emit(r.Series)
	}
	if run("fig11") {
		ran++
		r := experiments.Fig11(*seed, *reps)
		s1, s2 := r.Series()
		s2.AddNote("hit-rate near 32.5Hz: H=200ms %.0f%%, H=2s %.0f%%; harmonics: %.0f%% vs %.0f%%",
			r.ShortHit*100, r.LongHit*100, r.ShortHarmonic*100, r.LongHarmonic*100)
		emit(s1, s2)
	}
	if run("table2") || run("fig12") {
		ran++
		r := experiments.Table2(*seed, *reps, simtime.Second)
		fmt.Fprintln(out, r.Table())
		emit(r.Series())
	}
	if run("fig13") {
		ran++
		r := experiments.Fig13(*seed, *frames)
		r.Reserved.AddNote("IFT stats: LFS mean=%.3fms std=%.3fms | LFS++ mean=%.3fms std=%.3fms",
			r.LFSStats.Mean, r.LFSStats.Std, r.LFSPStats.Mean, r.LFSPStats.Std)
		r.Reserved.AddNote("paper:     LFS mean=39.992ms std=11.287ms | LFS++ mean=40.925ms std=4.631ms")
		emit(r.IFT, r.Reserved)
	}
	if run("fig14") {
		ran++
		r := experiments.Fig14(*seed, *frames)
		r.ReservedCDF.AddNote("P(IFT>60ms): LFS %.3f vs LFS++ %.3f; allocation spread (p95-p05): %.3f vs %.3f",
			r.LFSTail, r.LFSPTail, r.LFSSpread, r.LFSPSpread)
		emit(r.IFTCDF, r.ReservedCDF)
	}
	if run("table3") {
		ran++
		fmt.Fprintln(out, experiments.Table3(*seed, *frames).Table())
	}
	if run("migration") {
		ran++
		fmt.Fprintln(out, experiments.MigrationContention(*seed, 8, 4*simtime.Second).Table())
	}
	if run("numa") {
		ran++
		horizon := 4 * simtime.Second
		if *quick {
			horizon = 2 * simtime.Second
		}
		fmt.Fprintln(out, experiments.NUMAContention(*seed, 4, 16, horizon).Table())
	}
	if run("telemetry") {
		ran++
		if *cores < 2 {
			fmt.Fprintf(os.Stderr, "experiments: -cores %d: the telemetry scenario needs at least 2 cores\n", *cores)
			os.Exit(2)
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
			exportTo(*csvPath, r.Snapshot.WriteCSV)
		}
		if *tracePath != "" {
			exportTo(*tracePath, r.Snapshot.WriteTrace)
		}
	}
	if run("cluster") {
		ran++
		machines, ccores, realms := 100, 64, 8
		horizon := 30 * simtime.Second
		if *quick {
			machines, ccores, realms = 12, 16, 4
			horizon = 9 * simtime.Second
		}
		fmt.Fprintln(out, experiments.ClusterContention(*seed, machines, ccores, realms, horizon, *parallel, *coreParallel).Table())
	}
	if run("slo") {
		ran++
		machines, scores := 4, 8
		horizon := 12 * simtime.Second
		if *quick {
			machines, scores = 2, 4
			horizon = 6 * simtime.Second
		}
		fmt.Fprintln(out, experiments.SLOExperiment(*seed, machines, scores, horizon).Table())
	}
	if run("sloaware") {
		ran++
		machines, scores := 4, 8
		horizon := 12 * simtime.Second
		if *quick {
			machines, scores = 2, 4
			horizon = 6 * simtime.Second
		}
		fmt.Fprintln(out, experiments.SLOAwareFleet(*seed, machines, scores, horizon, *parallel).Table())
	}
	if run("ablations") {
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
		t.AddRowf("sparse time (reference)", fmt.Sprintf("%.0fus", d.SparseTimeUS))
		t.AddRowf("sparse time (recurrence)", fmt.Sprintf("%.0fus", d.FastTimeUS))
		t.AddRowf("dense 1us-grid samples", d.DenseSamples)
		t.AddNote("the dense grid needs %d samples before any FFT butterfly", d.DenseSamples)
		fmt.Fprintln(out, t)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing matched %v\n", args)
		os.Exit(2)
	}
}

// exportTo writes one exporter's output to a file.
func exportTo(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
