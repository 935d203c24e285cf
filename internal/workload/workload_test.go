package workload_test

import (
	"math"
	"testing"

	"repro/internal/ktrace"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

const ms = simtime.Millisecond

func newSim() (*sim.Engine, *sched.Scheduler) {
	eng := sim.New()
	return eng, sched.New(sched.Config{Engine: eng})
}

func TestPlayerSteadyIFTUnderGenerousReservation(t *testing.T) {
	eng, sd := newSim()
	r := rng.New(1)
	cfg := workload.VideoPlayerConfig("mplayer", 0.25)
	p := workload.NewPlayer(sd, r, cfg)
	srv := sd.NewServer("res", 30*ms, 40*ms, sched.HardCBS)
	p.Task().AttachTo(srv, 0)
	p.Start(0)
	eng.RunUntil(simtime.Time(20 * simtime.Second))

	ift := p.InterFrameTimes()
	if len(ift) < 400 {
		t.Fatalf("only %d inter-frame samples", len(ift))
	}
	var sum float64
	for _, d := range ift {
		sum += d.Milliseconds()
	}
	mean := sum / float64(len(ift))
	if math.Abs(mean-40) > 1.0 {
		t.Errorf("mean IFT = %.2fms, want ~40ms", mean)
	}
}

func TestPlayerDemandStatistics(t *testing.T) {
	eng, sd := newSim()
	r := rng.New(2)
	cfg := workload.VideoPlayerConfig("mplayer", 0.25)
	p := workload.NewPlayer(sd, r, cfg)
	srv := sd.NewServer("res", 38*ms, 40*ms, sched.HardCBS)
	p.Task().AttachTo(srv, 0)
	p.Start(0)
	eng.RunUntil(simtime.Time(60 * simtime.Second))

	demands := p.Demands()
	if len(demands) < 1000 {
		t.Fatalf("only %d frames", len(demands))
	}
	var sum float64
	for _, d := range demands {
		sum += float64(d)
	}
	mean := sum / float64(len(demands))
	want := float64(cfg.MeanDemand)
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean demand %.2fms, want ~%.2fms", mean/1e6, want/1e6)
	}
	// GOP structure: I frames (every 12th) must be the most expensive
	// on average.
	var iSum, bSum float64
	var iN, bN int
	for k, d := range demands {
		switch {
		case k%12 == 0:
			iSum += float64(d)
			iN++
		case k%3 != 0:
			bSum += float64(d)
			bN++
		}
	}
	if iN == 0 || bN == 0 {
		t.Fatal("no frames classified")
	}
	if iSum/float64(iN) < 2*bSum/float64(bN) {
		t.Errorf("I frames (%.2fms avg) not markedly heavier than B frames (%.2fms avg)",
			iSum/float64(iN)/1e6, bSum/float64(bN)/1e6)
	}
}

func TestPlayerEmitsBurstySyscalls(t *testing.T) {
	eng, sd := newSim()
	r := rng.New(3)
	buf := ktrace.NewBuffer(ktrace.QTrace, 1<<16)
	cfg := workload.MP3PlayerConfig("mp3")
	cfg.Sink = buf
	p := workload.NewPlayer(sd, r, cfg)
	p.Start(0) // best effort; system otherwise idle
	eng.RunUntil(simtime.Time(2 * simtime.Second))

	events := buf.Drain()
	if len(events) == 0 {
		t.Fatal("no syscalls recorded")
	}
	// Expected count: per frame between Start+End mins and maxes (+1
	// nanosleep, + up to MidCallsMax).
	frames := p.Task().Stats().Completed
	minPer := cfg.StartBurstMin + cfg.EndBurstMin + 1
	maxPer := cfg.StartBurstMax + cfg.EndBurstMax + cfg.MidCallsMax + 1
	if n := len(events); n < frames*minPer || n > (frames+1)*maxPer {
		t.Errorf("recorded %d events over %d frames, want within [%d,%d] per frame",
			n, frames, minPer, maxPer)
	}
	// Burstiness: the fraction of events within the first and last 10%
	// of each period should dominate.
	period := float64(cfg.Period)
	inBurst := 0
	for _, e := range events {
		phase := math.Mod(float64(e.At), period) / period
		if phase < 0.25 || phase > 0.75 {
			inBurst++
		}
	}
	if frac := float64(inBurst) / float64(len(events)); frac < 0.7 {
		t.Errorf("only %.0f%% of events near period boundaries; model not bursty", frac*100)
	}
	// The mix must be ioctl-dominated (Figure 4).
	hist := make(map[int]int)
	for _, e := range events {
		hist[e.Nr]++
	}
	if hist[int(workload.SysIoctl)] < len(events)/3 {
		t.Errorf("ioctl count %d of %d; mix should be ioctl-dominated", hist[int(workload.SysIoctl)], len(events))
	}
}

func TestPlayerNoSinkNoHooks(t *testing.T) {
	eng, sd := newSim()
	r := rng.New(4)
	cfg := workload.MP3PlayerConfig("mp3")
	p := workload.NewPlayer(sd, r, cfg)
	p.Start(0)
	eng.RunUntil(simtime.Time(simtime.Second))
	if p.Task().Stats().Completed == 0 {
		t.Error("player without sink made no progress")
	}
}

func TestGOPWeightsAverageToOne(t *testing.T) {
	eng, sd := newSim()
	r := rng.New(5)
	cfg := workload.VideoPlayerConfig("v", 0.2)
	cfg.DemandJitter = 0 // isolate the GOP structure
	p := workload.NewPlayer(sd, r, cfg)
	srv := sd.NewServer("res", 38*ms, 40*ms, sched.HardCBS)
	p.Task().AttachTo(srv, 0)
	p.Start(0)
	eng.RunUntil(simtime.Time(10 * simtime.Second))
	demands := p.Demands()
	if len(demands) < cfg.GOP {
		t.Fatalf("need at least one GOP, got %d frames", len(demands))
	}
	var sum float64
	full := (len(demands) / cfg.GOP) * cfg.GOP
	for _, d := range demands[:full] {
		sum += float64(d)
	}
	mean := sum / float64(full)
	if math.Abs(mean-float64(cfg.MeanDemand))/float64(cfg.MeanDemand) > 1e-6 {
		t.Errorf("GOP mean %.3fms, want exactly %.3fms", mean/1e6, float64(cfg.MeanDemand)/1e6)
	}
}

func TestTranscoderBaselineDuration(t *testing.T) {
	eng, sd := newSim()
	r := rng.New(6)
	cfg := workload.DefaultTranscoderConfig("ffmpeg")
	cfg.WorkJitter = 0
	tr := workload.NewTranscoder(sd, r, cfg)
	tr.Start(0)
	eng.RunUntil(simtime.Time(60 * simtime.Second))
	finish, ok := tr.Finished()
	if !ok {
		t.Fatal("transcode never finished")
	}
	if finish != simtime.Time(cfg.TotalWork) {
		t.Errorf("finished at %v, want %v (idle system, no tracer)", finish, cfg.TotalWork)
	}
}

func TestTranscoderTracerOverheadOrdering(t *testing.T) {
	run := func(kind ktrace.Kind) simtime.Time {
		eng, sd := newSim()
		r := rng.New(7)
		cfg := workload.DefaultTranscoderConfig("ffmpeg")
		cfg.WorkJitter = 0
		buf := ktrace.NewBuffer(kind, 1<<20)
		cfg.Sink = buf
		tr := workload.NewTranscoder(sd, r, cfg)
		tr.Start(0)
		eng.RunUntil(simtime.Time(120 * simtime.Second))
		finish, ok := tr.Finished()
		if !ok {
			t.Fatalf("%v: transcode never finished", kind)
		}
		return finish
	}
	no := run(ktrace.NoTrace)
	qt := run(ktrace.QTrace)
	qos := run(ktrace.QOSTrace)
	st := run(ktrace.STrace)
	if !(no < qt && qt < qos && qos < st) {
		t.Errorf("overhead ordering violated: %v %v %v %v", no, qt, qos, st)
	}
	// Relative overhead magnitudes should be in the paper's ballpark.
	rel := func(x simtime.Time) float64 { return float64(x-no) / float64(no) * 100 }
	if r := rel(qt); r < 0.2 || r > 1.5 {
		t.Errorf("QTRACE overhead %.2f%%, want ~0.63%%", r)
	}
	if r := rel(st); r < 3.5 || r > 8 {
		t.Errorf("STRACE overhead %.2f%%, want ~5.5%%", r)
	}
}

func TestReservedPeriodicMeetsDeadlines(t *testing.T) {
	eng, sd := newSim()
	r := rng.New(8)
	rp := workload.StartReservedPeriodic(sd, r, "rt", 645*simtime.Microsecond, 4300*simtime.Microsecond, 0.97, 0)
	eng.RunUntil(simtime.Time(5 * simtime.Second))
	st := rp.Task().Stats()
	if st.Completed < 1000 {
		t.Fatalf("completed %d jobs", st.Completed)
	}
	if st.Missed != 0 {
		t.Errorf("missed %d deadlines", st.Missed)
	}
	util := float64(st.Consumed) / float64(5*simtime.Second)
	if util < 0.12 || util > 0.15 {
		t.Errorf("utilisation %.3f, want ~0.135-0.15", util)
	}
}

func TestMakeLoadTotalsRequestedUtil(t *testing.T) {
	eng, sd := newSim()
	r := rng.New(9)
	workload.MakeLoadAt(sd, r, 0.45, 3, 0)
	if got := sd.TotalReservedBandwidth(); math.Abs(got-0.45) > 0.01 {
		t.Errorf("reserved bandwidth %.3f, want 0.45", got)
	}
	eng.RunUntil(simtime.Time(2 * simtime.Second))
	u := sd.Utilization()
	if u < 0.38 || u > 0.46 {
		t.Errorf("achieved utilisation %.3f, want just under 0.45", u)
	}
}

func TestStartLoadZeroUtilIsNoop(t *testing.T) {
	_, sd := newSim()
	r := rng.New(10)
	if got := workload.StartLoad(sd, r, workload.LoadSpec{}, "x"); len(got) != 0 {
		t.Errorf("zero load spawned %d tasks", len(got))
	}
}

func TestTable2LoadSpecsMatchUtil(t *testing.T) {
	for _, spec := range workload.Table2Loads {
		var got float64
		for _, res := range spec.Reservations {
			got += res.Bandwidth()
		}
		if math.Abs(got-spec.Util) > 0.001 {
			t.Errorf("spec util %.2f: sum Q/T = %.4f", spec.Util, got)
		}
	}
	// Rows must be cumulative supersets.
	for i := 1; i < len(workload.Table2Loads); i++ {
		prev, cur := workload.Table2Loads[i-1], workload.Table2Loads[i]
		if len(cur.Reservations) != len(prev.Reservations)+1 {
			t.Errorf("row %d does not add exactly one reservation", i)
		}
	}
}

func TestStartLoadSpawnsAllReservations(t *testing.T) {
	eng, sd := newSim()
	r := rng.New(12)
	spec := workload.Table2Loads[4] // 60%
	apps := workload.StartLoad(sd, r, spec, "bg")
	if len(apps) != 4 {
		t.Fatalf("spawned %d apps, want 4", len(apps))
	}
	if got := sd.TotalReservedBandwidth(); math.Abs(got-0.60) > 0.01 {
		t.Errorf("reserved %.3f, want 0.60", got)
	}
	eng.RunUntil(simtime.Time(2 * simtime.Second))
	for _, a := range apps {
		if a.Task().Stats().Missed != 0 {
			t.Errorf("load task %v missed deadlines", a.Task())
		}
	}
}

func TestPoissonNoiseRuns(t *testing.T) {
	eng, sd := newSim()
	r := rng.New(11)
	buf := ktrace.NewBuffer(ktrace.QTrace, 1<<12)
	noise := workload.NewNoise(sd, r, "noise", 20*ms, 2*ms, buf)
	noise.Start(0)
	task := noise.Task()
	eng.RunUntil(simtime.Time(5 * simtime.Second))
	if task.Stats().Completed < 100 {
		t.Errorf("noise completed only %d jobs", task.Stats().Completed)
	}
	if buf.Recorded() == 0 {
		t.Error("noise emitted no syscalls")
	}
}

func TestCPUHog(t *testing.T) {
	eng, sd := newSim()
	hog := workload.StartCPUHog(sd, "hog", simtime.Duration(10*simtime.Second))
	eng.RunUntil(simtime.Time(simtime.Second))
	if got := hog.Stats().Consumed; got != simtime.Duration(simtime.Second) {
		t.Errorf("hog consumed %v of an idle second", got)
	}
}

func TestSyscallNames(t *testing.T) {
	if workload.SysIoctl.String() != "ioctl" {
		t.Error("SysIoctl name wrong")
	}
	if workload.Syscall(999).String() != "syscall?" {
		t.Error("unknown syscall name wrong")
	}
	if workload.NumSyscalls < 10 {
		t.Error("suspiciously few syscalls defined")
	}
}

func TestWebServerBurstyArrivals(t *testing.T) {
	eng, sd := newSim()
	buf := ktrace.NewBuffer(ktrace.QTrace, 1<<16)
	cfg := workload.DefaultWebServerConfig("web")
	cfg.Sink = buf
	ws := workload.NewWebServer(sd, rng.New(4), cfg)
	// A generous reservation so service time, not starvation, shapes
	// the stats.
	srv := sd.NewServer("res", 30*ms, 40*ms, sched.HardCBS)
	ws.Task().AttachTo(srv, 0)
	ws.Start(0)
	eng.RunUntil(simtime.Time(20 * simtime.Second))

	if ws.Bursts() < 500 {
		t.Fatalf("only %d bursts in 20s at ~20ms mean think time", ws.Bursts())
	}
	if ws.Served() <= ws.Bursts() {
		t.Errorf("served %d requests over %d bursts: burst factor has no effect",
			ws.Served(), ws.Bursts())
	}
	// Mean burst size should be near the configured factor of 4.
	mean := float64(ws.Served()) / float64(ws.Bursts())
	if mean < 2.5 || mean > 6 {
		t.Errorf("mean burst size %.2f, want ~%d", mean, cfg.Burst)
	}
	if got := ws.Task().Stats().Completed; got < ws.Served()*9/10 {
		t.Errorf("completed %d of %d requests under a generous reservation", got, ws.Served())
	}
	// Two syscalls per completed request (accept read, response write).
	if events := len(buf.Drain()); events < ws.Task().Stats().Completed {
		t.Errorf("%d traced syscalls for %d completed requests", events, ws.Task().Stats().Completed)
	}
}

func TestWebServerDeterminism(t *testing.T) {
	run := func() (int, int, simtime.Duration) {
		eng, sd := newSim()
		ws := workload.NewWebServer(sd, rng.New(9), workload.DefaultWebServerConfig("web"))
		srv := sd.NewServer("res", 20*ms, 40*ms, sched.HardCBS)
		ws.Task().AttachTo(srv, 0)
		ws.Start(0)
		eng.RunUntil(simtime.Time(5 * simtime.Second))
		return ws.Served(), ws.Bursts(), ws.Task().Stats().Consumed
	}
	s1, b1, c1 := run()
	s2, b2, c2 := run()
	if s1 != s2 || b1 != b2 || c1 != c2 {
		t.Errorf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", s1, b1, c1, s2, b2, c2)
	}
}

func TestWebServerUtilisationScalesWithService(t *testing.T) {
	consumed := func(service simtime.Duration) float64 {
		eng, sd := newSim()
		cfg := workload.DefaultWebServerConfig("web")
		cfg.MeanService = service
		ws := workload.NewWebServer(sd, rng.New(7), cfg)
		srv := sd.NewServer("res", 38*ms, 40*ms, sched.HardCBS)
		ws.Task().AttachTo(srv, 0)
		ws.Start(0)
		horizon := 30 * simtime.Second
		eng.RunUntil(simtime.Time(horizon))
		return float64(ws.Task().Stats().Consumed) / float64(horizon)
	}
	lo := consumed(500 * simtime.Microsecond)
	hi := consumed(3 * ms)
	// util ≈ Burst * MeanService / MeanThink = 4*service/20ms.
	if math.Abs(lo-0.10) > 0.04 {
		t.Errorf("light traffic consumed %.3f of the CPU, want ~0.10", lo)
	}
	if math.Abs(hi-0.60) > 0.15 {
		t.Errorf("heavy traffic consumed %.3f of the CPU, want ~0.60", hi)
	}
}

// TestMoveLaneSinkRule checks the one sink rule of every kind's
// MoveLane: a move repoints a traced task's sink, leaves an untraced
// task untraced, and keeps the current sink when given none.
func TestMoveLaneSinkRule(t *testing.T) {
	type mover interface {
		workload.LaneMover
		Task() *sched.Task
	}
	r := rng.New(5)
	for _, k := range []struct {
		name      string
		traceable bool
		build     func(sd *sched.Scheduler, sink workload.SyscallSink) mover
	}{
		{"player", true, func(sd *sched.Scheduler, sink workload.SyscallSink) mover {
			cfg := workload.MP3PlayerConfig("mp3")
			cfg.Sink = sink
			return workload.NewPlayer(sd, r.Split(), cfg)
		}},
		{"webserver", true, func(sd *sched.Scheduler, sink workload.SyscallSink) mover {
			cfg := workload.DefaultWebServerConfig("web")
			cfg.Sink = sink
			return workload.NewWebServer(sd, r.Split(), cfg)
		}},
		{"gameloop", true, func(sd *sched.Scheduler, sink workload.SyscallSink) mover {
			cfg := workload.DefaultGameLoopConfig("game")
			cfg.Sink = sink
			return workload.NewGameLoop(sd, r.Split(), cfg)
		}},
		{"vmboot", true, func(sd *sched.Scheduler, sink workload.SyscallSink) mover {
			cfg := workload.DefaultVMBootConfig("vm", 0.2)
			cfg.Sink = sink
			return workload.NewVMBoot(sd, r.Split(), cfg)
		}},
		{"noise", true, func(sd *sched.Scheduler, sink workload.SyscallSink) mover {
			return workload.NewNoise(sd, r.Split(), "noise", 50*ms, 2*ms, sink)
		}},
		{"transcoder", true, func(sd *sched.Scheduler, sink workload.SyscallSink) mover {
			cfg := workload.DefaultTranscoderConfig("ffmpeg")
			cfg.Sink = sink
			return workload.NewTranscoder(sd, r.Split(), cfg)
		}},
		{"reserved periodic", false, func(sd *sched.Scheduler, _ workload.SyscallSink) mover {
			return workload.StartReservedPeriodic(sd, r.Split(), "rt", ms, 10*ms, 0.5, 0)
		}},
	} {
		for _, traced := range []bool{false, true} {
			if traced && !k.traceable {
				continue
			}
			var sink workload.SyscallSink
			if traced {
				sink = ktrace.NewBuffer(ktrace.QTrace, 16)
			}
			eng, sd := newSim()
			m := k.build(sd, sink)
			if got := m.Task().Sink(); got != sink {
				t.Errorf("%s (traced %v): task starts with sink %v, want %v", k.name, traced, got, sink)
			}
			m.MoveLane(eng, nil)
			if got := m.Task().Sink(); got != sink {
				t.Errorf("%s (traced %v): a move without a sink changed it to %v", k.name, traced, got)
			}
			dst := ktrace.NewBuffer(ktrace.QTrace, 16)
			m.MoveLane(sim.New(), dst)
			want := workload.SyscallSink(nil)
			if traced {
				want = dst
			}
			if got := m.Task().Sink(); got != want {
				t.Errorf("%s (traced %v): sink after the move is %v, want %v", k.name, traced, got, want)
			}
		}
	}
}
