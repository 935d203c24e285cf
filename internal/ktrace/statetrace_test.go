package ktrace_test

import (
	"testing"

	"repro/internal/ktrace"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

const ms = simtime.Millisecond

func TestStateTracerRecordsTransitions(t *testing.T) {
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	buf := ktrace.NewBuffer(ktrace.QTrace, 64)
	ktrace.AttachStateTracer(sd, buf)

	task := sd.NewTask("t")
	eng.At(simtime.Time(10*ms), func() { task.Release(task.NewJob(0, 5*ms, simtime.Never)) })
	eng.RunUntil(simtime.Time(simtime.Second))

	events := buf.Drain()
	if len(events) != 2 {
		t.Fatalf("recorded %d events, want wakeup+block", len(events))
	}
	if events[0].Nr != ktrace.NrWakeup || events[0].At != simtime.Time(10*ms) {
		t.Errorf("first event %+v, want wakeup at 10ms", events[0])
	}
	if events[1].Nr != ktrace.NrBlock || events[1].At != simtime.Time(15*ms) {
		t.Errorf("second event %+v, want block at 15ms", events[1])
	}
	if events[0].PID != task.PID() {
		t.Errorf("event PID %d, want %d", events[0].PID, task.PID())
	}
}

func TestStateTracerChargesNoOverhead(t *testing.T) {
	// ftrace-style tracing happens in scheduler context: the traced
	// task's execution demand must be untouched.
	run := func(trace bool) simtime.Time {
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng})
		if trace {
			buf := ktrace.NewBuffer(ktrace.QTrace, 1<<12)
			ktrace.AttachStateTracer(sd, buf)
		}
		task := sd.NewTask("t")
		var done simtime.Time
		task.OnJobComplete = func(_ *sched.Job, now simtime.Time) { done = now }
		eng.At(0, func() { task.Release(task.NewJob(0, 100*ms, simtime.Never)) })
		eng.RunUntil(simtime.Time(simtime.Second))
		return done
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("state tracing changed completion time: %v vs %v", a, b)
	}
}

func TestStateTracerRespectsFilters(t *testing.T) {
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	buf := ktrace.NewBuffer(ktrace.QTrace, 64)
	buf.FilterSyscalls(ktrace.NrWakeup)
	ktrace.AttachStateTracer(sd, buf)

	a := sd.NewTask("a")
	b := sd.NewTask("b")
	buf.FilterPIDs(a.PID())
	eng.At(0, func() {
		a.Release(a.NewJob(0, ms, simtime.Never))
		b.Release(b.NewJob(0, ms, simtime.Never))
	})
	eng.RunUntil(simtime.Time(simtime.Second))

	events := buf.Drain()
	if len(events) != 1 {
		t.Fatalf("recorded %d events, want only task a's wakeup", len(events))
	}
	if events[0].PID != a.PID() || events[0].Nr != ktrace.NrWakeup {
		t.Errorf("event %+v", events[0])
	}
	if buf.Discarded() == 0 {
		t.Error("filters discarded nothing")
	}
}

func TestStateTracerPeriodicTrainIsClean(t *testing.T) {
	// A periodic task's wakeup train recorded by the state tracer must
	// be exactly periodic even with a competing reservation.
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	buf := ktrace.NewBuffer(ktrace.QTrace, 1<<12)
	ktrace.AttachStateTracer(sd, buf)

	srv := sd.NewServer("rt", 6*ms, 10*ms, sched.HardCBS)
	rt := sd.NewTask("rt")
	rt.AttachTo(srv, 0)
	eng.At(0, func() { rt.Release(rt.NewJob(0, simtime.Duration(10*simtime.Second), simtime.Never)) })

	task := sd.NewTask("periodic")
	buf.FilterPIDs(task.PID())
	buf.FilterSyscalls(ktrace.NrWakeup)
	period := 25 * ms
	next := simtime.Time(0)
	var release func()
	release = func() {
		task.Release(task.NewJob(0, 2*ms, simtime.Never))
		next = next.Add(period)
		eng.At(next, release)
	}
	eng.At(0, release)
	eng.RunUntil(simtime.Time(2 * simtime.Second))

	events := buf.Drain()
	if len(events) < 70 {
		t.Fatalf("only %d wakeups", len(events))
	}
	for i := 1; i < len(events); i++ {
		if gap := events[i].At.Sub(events[i-1].At); gap != period {
			t.Fatalf("wakeup gap %v at index %d, want exactly %v", gap, i, period)
		}
	}
}
