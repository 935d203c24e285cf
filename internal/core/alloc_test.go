package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/ktrace"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

// TestWarmActivationAllocatesNothing checks that a locked tuner's
// activation allocates nothing once warm: the tracer download, the
// window update, the spectrum, the peak heuristic, the feedback step
// and the supervisor request all reuse storage. The test runs a traced
// 25 fps player for 200 ms between activations it makes by hand, so
// only the activations are counted, and it reserves room in the
// activation history, which grows by append for the whole run.
func TestWarmActivationAllocatesNothing(t *testing.T) {
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	tracer := ktrace.NewBuffer(ktrace.QTrace, 1<<16)
	video := workload.VideoPlayerConfig("mplayer", 0.25)
	video.Sink = tracer
	p := workload.NewPlayer(sd, rng.New(1), video)
	tuner, err := New(sd, supervisor.New(1), tracer, p.Task(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Start(0)
	run := func() { eng.RunUntil(eng.Now().Add(tuner.cfg.Sampling)) }
	for i := 0; i < 25; i++ {
		run()
		tuner.tick()
	}
	if !tuner.locked || tuner.windows[0].Events() < tuner.cfg.MinEvents {
		t.Fatalf("after 5 s the tuner is locked=%v with %d events in its window; the detect step would not run",
			tuner.locked, tuner.windows[0].Events())
	}
	tuner.snapshots = slices.Grow(tuner.snapshots, 20)
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		run()
		runtime.ReadMemStats(&before)
		tuner.tick()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("warm activation %d allocated %d times, want 0", i, n)
		}
	}
}
