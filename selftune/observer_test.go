package selftune_test

import (
	"testing"

	"repro/selftune"
)

func TestObserverDelivery(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(6), selftune.WithCPUs(2))
	// A player hungrier than the tuner's generous initial budget, so
	// exhaustions are guaranteed during the hold phase.
	app, err := sys.Spawn("video",
		selftune.SpawnName("mplayer"),
		selftune.SpawnUtil(0.4),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}

	counts := map[selftune.EventKind]int{}
	var lastLoads []float64
	sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
		counts[e.Kind]++
		switch e.Kind {
		case selftune.TunerTickEvent:
			if e.Source != "mplayer" {
				t.Errorf("tuner tick source %q", e.Source)
			}
			if e.Core != app.Core().Index {
				t.Errorf("tuner tick core %d, want %d", e.Core, app.Core().Index)
			}
			if e.Snapshot.At != e.At {
				t.Errorf("snapshot At %v != event At %v", e.Snapshot.At, e.At)
			}
		case selftune.BudgetExhaustedEvent:
			if e.Source == "" {
				t.Error("exhaustion event without source")
			}
		case selftune.CoreLoadEvent:
			if e.Core != -1 {
				t.Errorf("core-load event pinned to core %d", e.Core)
			}
			lastLoads = e.Loads
		}
	}))

	app.Start(0)
	sys.Run(10 * selftune.Second)

	if counts[selftune.TunerTickEvent] == 0 {
		t.Error("no tuner tick events delivered")
	}
	if counts[selftune.BudgetExhaustedEvent] == 0 {
		t.Error("no budget exhaustion events delivered")
	}
	if counts[selftune.CoreLoadEvent] == 0 {
		t.Error("no core load events delivered")
	}
	if len(lastLoads) != sys.CPUs() {
		t.Errorf("load sample has %d entries for %d CPUs", len(lastLoads), sys.CPUs())
	}
	// The tuner ticks every 200ms; 10s of simulation is ~50 ticks.
	if got := counts[selftune.TunerTickEvent]; got < 40 {
		t.Errorf("only %d tuner ticks in 10s", got)
	}
	// Snapshots() and the event stream must agree.
	if got, want := counts[selftune.TunerTickEvent], len(app.Tuner().Snapshots()); got != want {
		t.Errorf("%d tick events vs %d snapshots", got, want)
	}
}

func TestObserverCancel(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(6))
	app, err := sys.Spawn("video", selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	app.Start(0)

	var before, after int
	cancel := sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) { before++ }))
	sys.Run(2 * selftune.Second)
	cancel()
	snapshot := before
	sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) { after++ }))
	sys.Run(2 * selftune.Second)

	if before != snapshot {
		t.Errorf("cancelled observer still received %d events", before-snapshot)
	}
	if after == 0 {
		t.Error("second observer received nothing")
	}
}

// TestSubscribeFromObserverCallback subscribes a second observer from
// inside the first one's callback; the newcomer must survive the
// publish cycle and receive subsequent events.
func TestSubscribeFromObserverCallback(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(6))
	app, err := sys.Spawn("video", selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	var nested int
	attached := false
	sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
		if !attached {
			attached = true
			sys.Subscribe(selftune.ObserverFunc(func(selftune.Event) { nested++ }))
		}
	}))
	app.Start(0)
	sys.Run(2 * selftune.Second)
	if nested == 0 {
		t.Error("observer subscribed from a callback never received events")
	}
}

// TestUnobservedSystemsMatchObservedOnes checks the sampler starts
// only on subscription and does not perturb the simulation: the same
// seeded scenario with and without an observer produces identical
// tuning results.
func TestUnobservedSystemsMatchObservedOnes(t *testing.T) {
	run := func(observe bool) (float64, selftune.Duration) {
		sys := newSystem(t, selftune.WithSeed(12))
		app, err := sys.Spawn("video", selftune.Tuned(selftune.DefaultTunerConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if observe {
			sys.Subscribe(selftune.ObserverFunc(func(selftune.Event) {}))
		}
		app.Start(0)
		sys.Run(15 * selftune.Second)
		return app.Tuner().DetectedFrequency(), app.Tuner().Server().Budget()
	}
	fPlain, qPlain := run(false)
	fObs, qObs := run(true)
	if fPlain != fObs || qPlain != qObs {
		t.Errorf("observer perturbed the run: (%.4f, %v) vs (%.4f, %v)",
			fPlain, qPlain, fObs, qObs)
	}
}

// TestSamplerRetiresWithoutObservers cancels the only observer and
// checks the load sampler stops rescheduling itself, then restarts on
// the next subscription. The System runs no workloads, so every engine
// step is a sampler tick.
func TestSamplerRetiresWithoutObservers(t *testing.T) {
	sys := newSystem(t, selftune.WithLoadSampling(selftune.Second))
	cancel := sys.Subscribe(selftune.ObserverFunc(func(selftune.Event) {}))
	cancel()
	// The tick armed by the subscription fires once, finds no observer
	// left and does not re-arm.
	sys.Run(5 * selftune.Second)
	if got := sys.Steps(); got != 1 {
		t.Fatalf("sampler ran %d ticks with zero observers, want 1", got)
	}
	// A new subscription brings it back.
	samples := 0
	sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
		if e.Kind == selftune.CoreLoadEvent {
			samples++
		}
	}))
	sys.Run(3 * selftune.Second)
	if samples != 3 {
		t.Fatalf("resubscribed sampler delivered %d samples in 3s, want 3", samples)
	}
}
