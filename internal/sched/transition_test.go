package sched_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

func TestTransitionHookFiresOnWakeupAndBlock(t *testing.T) {
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	task := sd.NewTask("t")

	type tr struct {
		ready bool
		at    simtime.Time
	}
	var events []tr
	sd.SetTransitionHook(func(tk *sched.Task, ready bool, now simtime.Time) {
		if tk != task {
			t.Errorf("hook fired for wrong task %v", tk)
		}
		events = append(events, tr{ready, now})
	})

	// Two separated jobs: wakeup/block pairs at known instants.
	eng.At(simtime.Time(10*ms), func() { task.Release(task.NewJob(0, 5*ms, simtime.Never)) })
	eng.At(simtime.Time(100*ms), func() { task.Release(task.NewJob(0, 5*ms, simtime.Never)) })
	eng.RunUntil(simtime.Time(simtime.Second))

	want := []tr{
		{true, simtime.Time(10 * ms)},
		{false, simtime.Time(15 * ms)},
		{true, simtime.Time(100 * ms)},
		{false, simtime.Time(105 * ms)},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d transitions %v, want %d", len(events), events, len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("transition %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestTransitionHookBackloggedTaskStaysReady(t *testing.T) {
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	task := sd.NewTask("t")
	wakeups, blocks := 0, 0
	sd.SetTransitionHook(func(_ *sched.Task, ready bool, _ simtime.Time) {
		if ready {
			wakeups++
		} else {
			blocks++
		}
	})
	// Three jobs released back to back while the first still runs:
	// only one wakeup (idle->ready) and one block (queue drained).
	eng.At(0, func() {
		task.Release(task.NewJob(0, 10*ms, simtime.Never))
		task.Release(task.NewJob(0, 10*ms, simtime.Never))
		task.Release(task.NewJob(0, 10*ms, simtime.Never))
	})
	eng.RunUntil(simtime.Time(simtime.Second))
	if wakeups != 1 || blocks != 1 {
		t.Errorf("wakeups=%d blocks=%d, want 1/1 for a backlogged burst", wakeups, blocks)
	}
}

func TestTransitionHookWakeupTimeImmuneToContention(t *testing.T) {
	// The property the Sec. 6 ablation relies on: the wakeup instant
	// equals the release instant even when a reservation keeps the CPU
	// busy and delays the task's execution (and hence its syscalls).
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	// Heavy reservation hogging the CPU.
	srv := sd.NewServer("rt", 9*ms, 10*ms, sched.HardCBS)
	hog := sd.NewTask("hog")
	hog.AttachTo(srv, 0)
	eng.At(0, func() { hog.Release(hog.NewJob(0, simtime.Duration(10*simtime.Second), simtime.Never)) })

	task := sd.NewTask("be")
	var wakeAt, firstRun simtime.Time
	sd.SetTransitionHook(func(tk *sched.Task, ready bool, now simtime.Time) {
		if tk == task && ready && wakeAt == 0 {
			wakeAt = now
		}
	})
	task.OnJobStart = func(_ *sched.Job, now simtime.Time) { firstRun = now }
	eng.At(simtime.Time(5*ms), func() { task.Release(task.NewJob(0, 2*ms, simtime.Never)) })
	eng.RunUntil(simtime.Time(simtime.Second))

	if wakeAt != simtime.Time(5*ms) {
		t.Errorf("wakeup recorded at %v, want the release instant 5ms", wakeAt)
	}
	if firstRun <= wakeAt {
		t.Errorf("first run at %v not delayed past the wakeup %v; contention scenario broken", firstRun, wakeAt)
	}
}

func TestTransitionHookClearable(t *testing.T) {
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	task := sd.NewTask("t")
	fired := 0
	sd.SetTransitionHook(func(*sched.Task, bool, simtime.Time) { fired++ })
	sd.SetTransitionHook(nil)
	eng.At(0, func() { task.Release(task.NewJob(0, ms, simtime.Never)) })
	eng.RunUntil(simtime.Time(simtime.Second))
	if fired != 0 {
		t.Errorf("cleared hook fired %d times", fired)
	}
}
