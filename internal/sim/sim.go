// Package sim implements the discrete-event simulation engine that
// everything in this reproduction runs on.
//
// The engine is a classic event-heap design: callers schedule callbacks
// at future instants, and Run repeatedly pops the earliest event and
// executes it, advancing the simulated clock. Events scheduled for the
// same instant execute in scheduling order (FIFO), which keeps runs
// deterministic.
//
// Event storage is recycled: the moment an event fires or is cancelled
// its storage returns to a per-engine free list for reuse. Callers
// therefore never hold events directly — At and After return an
// opaque, generation-tagged Timer handle that goes stale when its
// event is done, so a retained handle can never reach into storage
// that has since been recycled for someone else.
package sim

import (
	"fmt"

	"repro/internal/simtime"
)

// Timer is an opaque handle to a scheduled event. The zero Timer is
// valid and never pending. A handle goes stale the instant its event
// fires or is cancelled; Cancel ignores stale handles and Reschedule
// rejects them.
type Timer struct {
	ev  *event
	gen uint64
}

// Pending reports whether the timer's event is still scheduled.
func (t Timer) Pending() bool { return t.ev != nil && t.ev.gen == t.gen }

// event is recycled storage for one scheduled callback.
type event struct {
	when  simtime.Time
	seq   uint64
	gen   uint64
	fn    func()
	index int // position in the heap, -1 when not queued
}

// Engine is a single-goroutine discrete-event simulator.
type Engine struct {
	now    simtime.Time
	queue  []*event // min-heap ordered by (when, seq)
	seq    uint64
	nsteps uint64
	// free holds retired event storage for reuse. It is a plain slice,
	// not a sync.Pool: one goroutine drives an engine at a time, and
	// the garbage collector never empties it. It is per-engine, not
	// global: timers never cross engines, so a stale handle's
	// generation read can never race another engine reusing the same
	// storage when many engines run on concurrent goroutines.
	free []*event
}

// New returns an engine with the clock at the simulation origin.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() simtime.Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// At schedules fn to run at instant t. Scheduling in the past
// (before Now) panics: it always indicates a simulator bug.
func (e *Engine) At(t simtime.Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	var ev *event
	if n := len(e.free) - 1; n >= 0 {
		ev, e.free = e.free[n], e.free[:n]
	} else {
		ev = &event{index: -1}
	}
	ev.when = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current instant.
func (e *Engine) After(d simtime.Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// release retires an event's storage to the free list. The generation
// bump is what invalidates every Timer still pointing at it.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Cancel removes a pending event. A stale handle — the event already
// fired or was cancelled, or the Timer is zero — is a no-op.
func (e *Engine) Cancel(t Timer) {
	if !t.Pending() {
		return
	}
	ev := t.ev
	e.remove(ev.index)
	e.release(ev)
}

// Reschedule moves a pending event to a new instant, preserving its
// callback; the handle stays valid. A stale handle panics: the event
// already fired or was cancelled, and its callback is gone.
func (e *Engine) Reschedule(t Timer, at simtime.Time) {
	if !t.Pending() {
		panic("sim: rescheduling dead event")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: rescheduling event to %v before now %v", at, e.now))
	}
	ev := t.ev
	ev.when = at
	ev.seq = e.seq
	e.seq++
	e.fix(ev.index)
}

// Empty reports whether no events are pending.
func (e *Engine) Empty() bool { return len(e.queue) == 0 }

// Peek returns the instant of the earliest pending event,
// or simtime.Never if none is pending.
func (e *Engine) Peek() simtime.Time {
	if len(e.queue) == 0 {
		return simtime.Never
	}
	return e.queue[0].when
}

// Step executes the earliest pending event and returns true, or
// returns false if the queue is empty. The event's storage is
// recycled before its callback runs, so handles to it are stale from
// the callback's point of view.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.when
	e.nsteps++
	fn := ev.fn
	e.release(ev)
	fn()
	return true
}

// RunUntil executes events until the clock would pass the horizon or
// the queue drains. After it returns, Now() == horizon (the clock is
// advanced to the horizon even if the queue drained earlier), and no
// event strictly before the horizon remains pending. Events scheduled
// exactly at the horizon are executed.
func (e *Engine) RunUntil(horizon simtime.Time) {
	for len(e.queue) > 0 && e.queue[0].when <= horizon {
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// Run executes events until the queue drains. Use with workloads that
// naturally terminate; periodic sources never drain, so those
// simulations must use RunUntil.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// The queue is a hand-rolled binary min-heap ordered by (when, seq):
// container/heap's interface indirection is measurable on the hot
// path, and the engine needs remove-by-index for Cancel anyway.

func (e *Engine) less(i, j int) bool {
	a, b := e.queue[i], e.queue[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	q := e.queue
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (e *Engine) push(ev *event) {
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
}

func (e *Engine) pop() *event {
	n := len(e.queue) - 1
	e.swap(0, n)
	ev := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	ev.index = -1
	if n > 0 {
		e.down(0)
	}
	return ev
}

// remove deletes the event at heap position i.
func (e *Engine) remove(i int) {
	n := len(e.queue) - 1
	if i != n {
		e.swap(i, n)
	}
	ev := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	ev.index = -1
	if i != n {
		e.fix(i)
	}
}

// fix restores heap order after the event at position i changed key.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

func (e *Engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *Engine) down(i int) bool {
	n := len(e.queue)
	i0 := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && e.less(r, l) {
			j = r
		}
		if !e.less(j, i) {
			break
		}
		e.swap(i, j)
		i = j
	}
	return i > i0
}
