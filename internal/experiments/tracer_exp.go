package experiments

import (
	"fmt"

	"repro/internal/ktrace"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table1Row is one tracer's overhead measurement.
type Table1Row struct {
	Tracer      ktrace.Kind
	AvgSeconds  float64
	RelOverhead float64 // vs the NOTRACE baseline, as a fraction
	StdSeconds  float64
}

// Table1Result reproduces Table 1: the wall time of an ffmpeg-like
// transcode under each tracer, over several runs.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 runs the transcoding workload `runs` times under each tracer
// (the paper uses 10) and reports mean, standard deviation and the
// overhead relative to NOTRACE.
func Table1(seed uint64, runs int) Table1Result {
	if runs <= 0 {
		runs = 10
	}
	kinds := []ktrace.Kind{ktrace.NoTrace, ktrace.QTrace, ktrace.QOSTrace, ktrace.STrace}
	var res Table1Result
	var baseline float64
	for _, kind := range kinds {
		times := make([]float64, 0, runs)
		for run := 0; run < runs; run++ {
			w := newWorld(seed+uint64(run)*7919, kind)
			cfg := workload.DefaultTranscoderConfig("ffmpeg")
			cfg.Sink = w.tracer
			tr := workload.NewTranscoder(w.sd, w.r.Split(), cfg)
			tr.Start(0)
			w.eng.RunUntil(simtime.Time(120 * simtime.Second))
			finish, ok := tr.Finished()
			if !ok {
				panic("experiments: transcode did not finish within the horizon")
			}
			times = append(times, finish.Seconds())
		}
		s := stats.Summarize(times)
		row := Table1Row{Tracer: kind, AvgSeconds: s.Mean, StdSeconds: s.Std}
		if kind == ktrace.NoTrace {
			baseline = s.Mean
		} else if baseline > 0 {
			row.RelOverhead = (s.Mean - baseline) / baseline
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Table renders the result in the paper's Table 1 layout.
func (r Table1Result) Table() *report.Table {
	t := report.NewTable("Table 1: tracer overhead on a ~21s transcode",
		"Tracer", "Average (s)", "Relative", "Std dev (s)")
	for _, row := range r.Rows {
		rel := "-"
		if row.Tracer != ktrace.NoTrace {
			rel = fmt.Sprintf("%.2f%%", row.RelOverhead*100)
		}
		t.AddRow(row.Tracer.String(),
			fmt.Sprintf("%.4f", row.AvgSeconds), rel,
			fmt.Sprintf("%.6f", row.StdSeconds))
	}
	t.AddNote("paper: QTRACE 0.63%%, QOSTRACE 2.69%%, STRACE 5.51%% over a 21.0916s baseline")
	return t
}

// Fig4Result reproduces Figure 4: the per-syscall statistics of an
// mplayer run.
type Fig4Result struct {
	Entries []stats.HistEntry
	Total   int
}

// Fig4 traces the mp3 player for the given duration and histograms the
// recorded system calls.
func Fig4(seed uint64, duration simtime.Duration) Fig4Result {
	w := newWorld(seed, ktrace.QTrace)
	cfg := workload.MP3PlayerConfig("mplayer")
	cfg.Sink = w.tracer
	player := workload.NewPlayer(w.sd, w.r.Split(), cfg)
	w.tracer.FilterPIDs(player.Task().PID())
	player.Start(0)
	w.eng.RunUntil(simtime.Time(duration))
	named := make(map[string]int)
	total := 0
	for nr, n := range w.tracer.Histogram() {
		named[workload.Syscall(nr).String()] += n
		total += n
	}
	return Fig4Result{Entries: stats.SortedHistogram(named), Total: total}
}

// Table renders the histogram.
func (r Fig4Result) Table() *report.Table {
	t := report.NewTable("Figure 4: system calls recorded for mplayer", "Syscall", "Count", "Share")
	for _, e := range r.Entries {
		t.AddRow(e.Key, fmt.Sprintf("%d", e.Count),
			fmt.Sprintf("%.1f%%", 100*float64(e.Count)/float64(r.Total)))
	}
	return t
}

// Fig5Result reproduces Figure 5: an excerpt of the traced event train
// showing the bursts at period boundaries.
type Fig5Result struct {
	Series *report.Series // time_ms (one event per row)
	Window simtime.Duration
}

// Fig5 extracts a window of the mp3 player's event train starting
// after warm-up.
func Fig5(seed uint64) Fig5Result {
	events := mp3Trace(seed, 2*simtime.Second, noLoad)
	start := simtime.Time(1 * simtime.Second)
	window := 150 * simtime.Millisecond
	series := report.NewSeries("Figure 5: event train excerpt (each row is one syscall)", "time_ms")
	for _, e := range events {
		if e >= start && e < start.Add(window) {
			series.Add(e.Sub(start).Milliseconds())
		}
	}
	return Fig5Result{Series: series, Window: window}
}
