// Command lfsppsim runs one self-tuning scheduling session: a legacy
// multimedia application model on the simulated AQuoSA-style kernel,
// managed by a Tuner, optionally next to background real-time
// load. Reporting goes through selftune/telemetry: -live prints
// periodic reports during the run, the final summary renders the
// collector's snapshot, -csv/-trace export it as figure data and a
// Chrome trace-event file, and -metrics serves it live in Prometheus
// text format.
//
// Examples:
//
//	lfsppsim -app video -util 0.25 -duration 30s
//	lfsppsim -app mp3 -load 0.45 -controller lfs -duration 60s
//	lfsppsim -app video -cpus 4 -live 5s -trace session.trace.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/feedback"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/selftune"
	"repro/selftune/telemetry"
)

// teeSink forwards syscalls to the kernel tracer and also records the
// timestamps for the -timestamps export (consumable by
// cmd/periodscope).
type teeSink struct {
	inner workload.SyscallSink
	times []simtime.Time
}

func (s *teeSink) Syscall(now simtime.Time, pid, nr int) simtime.Duration {
	s.times = append(s.times, now)
	return s.inner.Syscall(now, pid, nr)
}

func main() {
	var (
		seed       = flag.Uint64("seed", 1, "simulation seed")
		app        = flag.String("app", "video", "application model: video | mp3")
		util       = flag.Float64("util", 0.25, "application mean CPU utilisation (video only)")
		load       = flag.Float64("load", 0, "background real-time load (fraction of CPU)")
		cpus       = flag.Int("cpus", 1, "number of scheduling cores")
		controller = flag.String("controller", "lfspp", "feedback controller: lfspp | lfs")
		duration   = flag.Duration("duration", 30*time.Second, "simulated duration")
		noRate     = flag.Bool("no-rate-detection", false, "disable the period analyser")
		live       = flag.Duration("live", 0, "print live telemetry reports at this simulated interval")
		csvPath    = flag.String("csv", "", "export the session's telemetry CSV series to this file")
		tracePath  = flag.String("trace", "", "export the session's Chrome trace-event JSON to this file")
		timestamps = flag.String("timestamps", "", "export the app's syscall timestamps (seconds, one per line) to this file")
		metrics    = flag.String("metrics", "", "serve the collector's snapshot in Prometheus text format at http://ADDR/metrics (e.g. :9090; keeps the process alive after the run)")
	)
	flag.Parse()

	sys, err := selftune.NewSystem(
		selftune.WithSeed(*seed),
		selftune.WithCPUs(*cpus),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfsppsim: %v\n", err)
		os.Exit(2)
	}

	// The collector folds the whole session; the optional live sink
	// shares it so reports, CSV and trace all describe one stream.
	var col *telemetry.Collector
	var stopSink func()
	if *live > 0 {
		sink := telemetry.NewReportSink(os.Stdout, selftune.Duration(live.Nanoseconds()))
		col = sink.Collector()
		stopSink = sink.Attach(sys)
	} else {
		col, stopSink = telemetry.Attach(sys)
	}

	// The metrics endpoint serves live during the run and stays up
	// after it, so scrapers see the final distributions too. Listening
	// before the run starts lets callers bind ":0" and read the chosen
	// port from the announcement line.
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfsppsim: -metrics %s: %v\n", *metrics, err)
			os.Exit(2)
		}
		fmt.Printf("lfsppsim: serving metrics on http://%s/metrics\n", ln.Addr())
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.MetricsHandler(col.Snapshot))
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				fmt.Fprintf(os.Stderr, "lfsppsim: metrics server: %v\n", err)
			}
		}()
	}

	if *load > 0 {
		bg, err := sys.Spawn("rtload",
			selftune.SpawnName("rtload"), selftune.SpawnUtil(*load), selftune.SpawnCount(3))
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfsppsim: %v\n", err)
			os.Exit(1)
		}
		bg.Start(0)
	}

	var pcfg workload.PlayerConfig
	switch *app {
	case "video":
		pcfg = workload.VideoPlayerConfig("mplayer", *util)
	case "mp3":
		pcfg = workload.MP3PlayerConfig("mplayer")
	default:
		fmt.Fprintf(os.Stderr, "lfsppsim: unknown app %q\n", *app)
		os.Exit(2)
	}
	var tee *teeSink
	pcfg.Sink = sys.Tracer()
	if *timestamps != "" {
		tee = &teeSink{inner: sys.Tracer()}
		pcfg.Sink = tee
	}

	cfg := selftune.DefaultTunerConfig()
	cfg.RateDetection = !*noRate
	switch *controller {
	case "lfspp":
		cfg.Controller = feedback.NewLFSPP()
	case "lfs":
		cfg.Controller = feedback.NewLFS()
	default:
		fmt.Fprintf(os.Stderr, "lfsppsim: unknown controller %q\n", *controller)
		os.Exit(2)
	}

	h, err := sys.Spawn("player",
		selftune.SpawnPlayer(pcfg),
		selftune.Tuned(cfg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfsppsim: %v\n", err)
		os.Exit(1)
	}
	player, tuner := h.Player(), h.Tuner()

	h.Start(0)
	sys.Run(selftune.Duration(duration.Nanoseconds()))
	stopSink()

	// Final report: the session summary table plus the standard
	// telemetry tables of the same collector.
	summary := report.NewTable("session summary", "quantity", "value")
	summary.AddRowf("application", fmt.Sprintf("%s on core %d (%s controller, rate detection %v)",
		player.Name(), h.Core().Index, cfg.Controller.Name(), cfg.RateDetection))
	st := player.Task().Stats()
	summary.AddRowf("frames", fmt.Sprintf("%d released, %d decoded, %d deadline misses",
		player.Frames(), st.Completed, st.Missed))
	if f := tuner.DetectedFrequency(); f > 0 {
		summary.AddRowf("detection", fmt.Sprintf("%.2f Hz (period %v)", f, tuner.Period()))
	} else {
		summary.AddRowf("detection", fmt.Sprintf("none (period held at %v)", tuner.Period()))
	}
	summary.AddRowf("reservation", fmt.Sprintf("Q=%v T=%v (%.1f%% of the CPU)",
		tuner.Server().Budget(), tuner.Server().Period(), 100*tuner.Server().Bandwidth()))
	ift := player.InterFrameTimes()
	if len(ift) > 1 {
		xs := make([]float64, len(ift))
		over80 := 0
		for i, d := range ift {
			xs[i] = d.Milliseconds()
			if d > 80*simtime.Millisecond {
				over80++
			}
		}
		s := stats.Summarize(xs)
		summary.AddRowf("inter-frame", fmt.Sprintf("mean=%.3fms std=%.3fms p99=%.1fms max=%.1fms (>80ms: %d of %d)",
			s.Mean, s.Std, s.P99, s.Max, over80, len(ift)))
	}
	appCore := h.Core()
	grants, compressed, _ := appCore.Supervisor().Stats()
	summary.AddRowf("supervisor", fmt.Sprintf("%d grants, %d compressed, total granted %.3f",
		grants, compressed, appCore.Supervisor().TotalGranted()))
	summary.AddRowf("scheduler", fmt.Sprintf("utilisation %.3f, %d context switches",
		appCore.Scheduler().Utilization(), appCore.Scheduler().ContextSwitches()))
	summary.Render(os.Stdout)

	// With -live the sink's stop() above already rendered a final
	// telemetry report; don't repeat the same tables.
	snap := col.Snapshot()
	if *live <= 0 {
		for _, t := range snap.Tables() {
			t.Render(os.Stdout)
		}
	}

	if *csvPath != "" {
		exportTo(*csvPath, snap.WriteCSV)
	}
	if *tracePath != "" {
		exportTo(*tracePath, snap.WriteTrace)
	}
	if tee != nil {
		writeTimestamps(*timestamps, pcfg.Name, tee.times)
	}
	if *metrics != "" {
		fmt.Println("lfsppsim: run complete, still serving metrics (interrupt to exit)")
		select {}
	}
}

// exportTo writes one exporter's output to a file.
func exportTo(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfsppsim: %v\n", err)
		os.Exit(1)
	}
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "lfsppsim: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "lfsppsim: %v\n", err)
		os.Exit(1)
	}
}

// writeTimestamps exports the raw syscall instants in the one-column
// format cmd/periodscope reads.
func writeTimestamps(path, name string, times []simtime.Time) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfsppsim: %v\n", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %d syscall timestamps of %s (seconds)\n", len(times), name)
	for _, at := range times {
		fmt.Fprintf(w, "%.9f\n", at.Seconds())
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "lfsppsim: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "lfsppsim: %v\n", err)
		os.Exit(1)
	}
}
