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
