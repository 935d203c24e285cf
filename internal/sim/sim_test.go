package sim

import (
	"runtime"
	"testing"

	"repro/internal/simtime"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at simtime.Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.At(1, nil)
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Double cancel and zero-Timer cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(Timer{})
}

func TestTimerPending(t *testing.T) {
	e := New()
	var zero Timer
	if zero.Pending() {
		t.Error("zero Timer reports pending")
	}
	tm := e.At(10, func() {})
	if !tm.Pending() {
		t.Error("fresh timer not pending")
	}
	e.Cancel(tm)
	if tm.Pending() {
		t.Error("cancelled timer still pending")
	}
	tm = e.At(20, func() {})
	e.Run()
	if tm.Pending() {
		t.Error("fired timer still pending")
	}
}

func TestStaleTimerAfterPoolReuse(t *testing.T) {
	// A fired event's storage is recycled for later events; the stale
	// handle must stay stale (Cancel a no-op) even when its storage is
	// live again under a newer generation.
	e := New()
	stale := e.At(1, func() {})
	e.Run()
	fired := false
	fresh := e.At(10, func() { fired = true })
	e.Cancel(stale) // stale: must not cancel whatever reused the storage
	e.Run()
	if !fired {
		t.Error("cancelling a stale timer killed an unrelated live event")
	}
	if fresh.Pending() {
		t.Error("fired timer still pending")
	}
}

func TestRescheduleKeepsHandleValid(t *testing.T) {
	e := New()
	var at simtime.Time
	tm := e.At(10, func() { at = e.Now() })
	e.Reschedule(tm, 20)
	if !tm.Pending() {
		t.Fatal("timer went stale across Reschedule")
	}
	e.Reschedule(tm, 30)
	e.Run()
	if at != 30 {
		t.Errorf("event fired at %v, want 30", at)
	}
}

func TestRescheduleCancelledEventPanics(t *testing.T) {
	e := New()
	tm := e.At(5, func() {})
	e.Cancel(tm)
	defer func() {
		if recover() == nil {
			t.Error("rescheduling cancelled event did not panic")
		}
	}()
	e.Reschedule(tm, 10)
}

func TestTimerStaleInsideOwnCallback(t *testing.T) {
	// By the time fn runs its event is already retired, so the
	// self-handle pattern `tm = zero` inside fn is redundant but the
	// handle must read as not pending.
	e := New()
	var tm Timer
	pendingInside := true
	tm = e.At(10, func() { pendingInside = tm.Pending() })
	e.Run()
	if pendingInside {
		t.Error("timer still pending inside its own callback")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(20, func() { fired = true })
	e.At(10, func() { e.Cancel(ev) })
	e.Run()
	if fired {
		t.Error("event cancelled at t=10 still fired at t=20")
	}
}

func TestReschedule(t *testing.T) {
	e := New()
	var at simtime.Time
	ev := e.At(10, func() { at = e.Now() })
	e.Reschedule(ev, 25)
	e.Run()
	if at != 25 {
		t.Errorf("rescheduled event fired at %v, want 25", at)
	}
}

func TestRescheduleEarlier(t *testing.T) {
	e := New()
	var order []string
	ev := e.At(100, func() { order = append(order, "a") })
	e.At(10, func() { order = append(order, "b") })
	e.Reschedule(ev, 5)
	e.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestRescheduleDeadEventPanics(t *testing.T) {
	e := New()
	ev := e.At(1, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("rescheduling fired event did not panic")
		}
	}()
	e.Reschedule(ev, 10)
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []simtime.Time
	for _, at := range []simtime.Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v", fired)
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %v after RunUntil(25)", e.Now())
	}
	e.RunUntil(40) // inclusive horizon
	if len(fired) != 4 {
		t.Fatalf("RunUntil(40) fired %v", fired)
	}
}

func TestRunUntilAdvancesClockPastDrain(t *testing.T) {
	e := New()
	e.At(5, func() {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
}

func TestPeekAndEmpty(t *testing.T) {
	e := New()
	if !e.Empty() || e.Peek() != simtime.Never {
		t.Error("fresh engine not empty")
	}
	e.At(42, func() {})
	if e.Empty() || e.Peek() != 42 {
		t.Errorf("Peek() = %v, want 42", e.Peek())
	}
}

func TestStepCount(t *testing.T) {
	e := New()
	for i := 1; i <= 5; i++ {
		e.At(simtime.Time(i), func() {})
	}
	e.Run()
	if e.Steps() != 5 {
		t.Errorf("Steps() = %d, want 5", e.Steps())
	}
}

func TestCascadingEvents(t *testing.T) {
	// Each event schedules the next; a common simulator pattern.
	e := New()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			e.After(1, step)
		}
	}
	e.At(0, step)
	e.Run()
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if e.Now() != 99 {
		t.Errorf("Now() = %v, want 99", e.Now())
	}
}

func TestManyEventsStress(t *testing.T) {
	e := New()
	const n = 10000
	fired := 0
	var last simtime.Time
	for i := 0; i < n; i++ {
		// Deterministic scattered times with collisions.
		at := simtime.Time((i * 7919) % 1000)
		e.At(at, func() {
			if e.Now() < last {
				t.Fatal("time went backwards")
			}
			last = e.Now()
			fired++
		})
	}
	e.Run()
	if fired != n {
		t.Errorf("fired %d of %d", fired, n)
	}
}

// TestWarmCycleAllocatesNothing drives every engine entry point — At,
// After, Reschedule, Cancel and Step — through one warm cycle, with
// two garbage collections in it. Event storage is recycled through the
// engine's own free list, which a collection does not empty, so the
// cycle allocates nothing however often the collector runs in between.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	e := New()
	fired := 0
	fn := func() { fired++ }
	cycle := func() {
		a := e.At(e.Now().Add(3), fn)
		b := e.After(5, fn)
		c := e.After(9, fn)
		e.Reschedule(a, e.Now().Add(7))
		e.Cancel(b)
		runtime.GC()
		runtime.GC()
		for e.Step() {
		}
		if c.Pending() {
			t.Fatal("event still pending after the queue drained")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warm At/After/Reschedule/Cancel/Step cycle allocates %v times, want 0", n)
	}
	if fired != 2*102 {
		t.Errorf("fired %d callbacks, want %d", fired, 2*102)
	}
}
