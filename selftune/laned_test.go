package selftune

import (
	"fmt"
	"strings"
	"testing"
)

// lanedScenario drives a 4-core machine with a migration-heavy mix —
// tuned players, request-shaped workloads, untuned multi-reservation
// load, a shared group — under the work-stealing balancer, recording
// every observer event as text. It returns the event log and the
// total executed simulation steps.
func lanedScenario(t *testing.T, opts ...Option) (string, uint64) {
	t.Helper()
	sys, err := NewSystem(append([]Option{
		WithSeed(42),
		WithCPUs(4),
		WithBalancer(BalanceWorkStealing()),
		WithBalanceInterval(200 * Millisecond),
		WithLoadSampling(100 * Millisecond),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var log strings.Builder
	sys.Subscribe(eventLogger(&log))

	// Pin everything onto cores 0-1 so the balancer has real
	// de-consolidation to do: the run must cross lanes, not just run
	// them side by side.
	spawns := []struct {
		kind string
		opts []SpawnOption
	}{
		{"video", []SpawnOption{SpawnName("vid"), OnCore(0), Tuned(DefaultTunerConfig())}},
		{"mp3", []SpawnOption{SpawnName("mp3"), OnCore(0), Tuned(DefaultTunerConfig())}},
		{"gameloop", []SpawnOption{SpawnName("game"), OnCore(1), SpawnUtil(0.3)}},
		{"webserver", []SpawnOption{SpawnName("web"), OnCore(1), SpawnUtil(0.25)}},
		{"rtload", []SpawnOption{SpawnName("rt"), OnCore(0), SpawnUtil(0.2), SpawnCount(2)}},
		{"noise", []SpawnOption{SpawnName("noise"), OnCore(1)}},
		{"transcoder", []SpawnOption{SpawnName("ffmpeg"), OnCore(1)}},
	}
	for _, sp := range spawns {
		h, err := sys.Spawn(sp.kind, sp.opts...)
		if err != nil {
			t.Fatalf("spawn %s: %v", sp.kind, err)
		}
		h.Start(0)
	}
	sys.Run(4 * Second)
	if sys.Migrations() == 0 {
		t.Fatal("scenario never migrated: the cross-lane path was not exercised")
	}
	return log.String(), sys.Steps()
}

// eventLogger records every observer event as one line of text.
func eventLogger(log *strings.Builder) Observer {
	return ObserverFunc(func(e Event) {
		fmt.Fprintf(log, "%v at=%d core=%d from=%d src=%s wl=%s lat=%d miss=%v n=%d loads=%v snap=%+v\n",
			e.Kind, e.At, e.Core, e.From, e.Source, e.Workload,
			e.Latency, e.Missed, e.Count, e.Loads, e.Snapshot)
	})
}

// TestCoreParallelismDeterminism is the laned-mode contract: a seeded
// run produces a byte-identical observer event stream and step count
// at any worker count, because the lane partition (one lane per core)
// is fixed and every cross-lane effect applies at a causality fence in
// deterministic order. Worker count only changes wall-clock time.
func TestCoreParallelismDeterminism(t *testing.T) {
	baseLog, baseSteps := lanedScenario(t, WithCoreParallelism(1))
	if baseLog == "" {
		t.Fatal("scenario produced no events")
	}
	for _, workers := range []int{4, 16} {
		log, steps := lanedScenario(t, WithCoreParallelism(workers))
		if steps != baseSteps {
			t.Errorf("WithCoreParallelism(%d): %d steps, want %d", workers, steps, baseSteps)
		}
		if log != baseLog {
			t.Errorf("WithCoreParallelism(%d): event stream diverged from worker-count 1\n%s",
				workers, firstDiff(baseLog, log))
		}
	}
}

// firstDiff renders the first line where two event logs diverge.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  base: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestLanedMatchesMachineInvariants checks laned-mode bookkeeping:
// per-core tracers exist, the shared accessor is nil, fences were
// crossed, and manual Migrate carries a workload's lane state.
func TestLanedBasics(t *testing.T) {
	sys, err := NewSystem(WithSeed(7), WithCPUs(2), WithCoreParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Tracer() != nil {
		t.Error("laned Tracer() should be nil (per-core buffers)")
	}
	for i := 0; i < 2; i++ {
		if sys.CoreTracer(i) == nil {
			t.Fatalf("laned CoreTracer(%d) is nil", i)
		}
	}
	if sys.Workers() != 2 {
		t.Errorf("Workers() = %d, want 2", sys.Workers())
	}

	h, err := sys.Spawn("webserver", SpawnName("web"), OnCore(0), Tuned(DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	sys.Run(1 * Second)
	if got := sys.CoreTracer(0).Recorded(); got == 0 {
		t.Error("core 0 tracer recorded nothing")
	}
	before := sys.CoreTracer(1).Recorded()
	if err := sys.Migrate(h, 1); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	sys.Run(1 * Second)
	if got := sys.CoreTracer(1).Recorded(); got <= before {
		t.Errorf("after migration core 1 tracer recorded %d events, want > %d (evidence carried + new syscalls)", got, before)
	}
	if sys.Steps() == 0 {
		t.Error("Steps() = 0")
	}
}

// TestFencesAndWorkers pins what a laned System counts: one fence per
// Run chunk that ends at the horizon or at a control-engine event, and
// at most one worker per core. A single-engine System crosses no
// fences and runs on the caller alone.
func TestFencesAndWorkers(t *testing.T) {
	build := func(opts ...Option) *System {
		t.Helper()
		sys, err := NewSystem(append([]Option{WithSeed(3), WithCPUs(2)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		return sys
	}

	idle := build(WithCoreParallelism(1))
	for i := 0; i < 3; i++ {
		idle.Run(Second)
	}
	if got := idle.Fences(); got != 3 {
		t.Errorf("three idle Run(1s): %d fences, want 3", got)
	}

	balanced := build(WithCoreParallelism(1), WithBalancer(BalanceWorkStealing()),
		WithBalanceInterval(100*Millisecond))
	balanced.Run(Second)
	if got := balanced.Fences(); got != 10 {
		t.Errorf("Run(1s) with a 100 ms balancer: %d fences, want 10", got)
	}

	if got := build(WithCoreParallelism(4)).Workers(); got != 2 {
		t.Errorf("WithCoreParallelism(4) on 2 CPUs: %d workers, want 2", got)
	}

	single := build()
	single.Run(Second)
	if f, w := single.Fences(), single.Workers(); f != 0 || w != 1 {
		t.Errorf("single-engine System: %d fences and %d workers, want 0 and 1", f, w)
	}
}

// TestFenceAllocatesNothing checks that crossing a causality fence
// allocates nothing: a warm 4-core laned System advanced by one worker
// — the shape of every fleet machine — and by two, whose fences go
// through the worker pool, runs 1 ms chunks, each ending in one fence,
// without allocating. The lanes carry untuned periodic load, whose
// job path is allocation-free once each task has recycled a job.
func TestFenceAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2} {
		sys, err := NewSystem(WithSeed(5), WithCPUs(4), WithCoreParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < sys.CPUs(); c++ {
			h, err := sys.Spawn("rtload", OnCore(c), SpawnUtil(0.3))
			if err != nil {
				t.Fatal(err)
			}
			h.Start(0)
		}
		sys.Run(Second)
		fences, steps := sys.Fences(), sys.Steps()
		if n := testing.AllocsPerRun(100, func() { sys.Run(Millisecond) }); n != 0 {
			t.Errorf("%d workers: a fenced Run(1ms) allocates %v times, want 0", workers, n)
		}
		if got := sys.Fences() - fences; got != 101 {
			t.Errorf("%d workers: 101 Run(1ms) calls crossed %d fences, want 101", workers, got)
		}
		if sys.Steps() == steps {
			t.Fatalf("%d workers: no event ran while measuring", workers)
		}
		sys.Close()
	}
}
