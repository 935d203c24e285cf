package workload

import (
	"repro/internal/sim"
	"repro/internal/simtime"
)

// LaneMover is implemented by every workload kind that can follow its
// reservation across engine lanes. On a machine whose cores run on
// separate sim.Engine lanes (smp.New with one engine per core), a
// workload's self-timers — release loops, jittered releases, arrival
// processes — live on the lane of the core it runs on; a cross-core
// migration must therefore re-arm them on the destination lane.
// MoveLane does exactly that, and follows one sink rule: a traced
// task's sink is repointed at the destination core's tracer, an
// untraced task stays untraced, and a nil sink keeps the current one.
// It must only be called at a causality fence: both lanes resting at
// the same instant, with the workload's reservation already moved
// (sched.Scheduler.MoveAll).
type LaneMover interface {
	MoveLane(dst *sim.Engine, sink SyscallSink)
}

// laneSlot is one pending self-timer: enough to cancel it on the
// source lane and re-arm the same callback at the same instant on the
// destination.
type laneSlot struct {
	ev sim.Timer
	at simtime.Time
	fn func()
}

// laneTimers tracks a workload's pending self-timers on its current
// engine lane. All scheduling goes through it, so a lane move is a
// single sweep: cancel every pending slot on the old lane, re-arm on
// the new one. Slots of fired timers are reused in place; the slice
// stays as small as the workload's peak number of in-flight timers
// (one for a release loop, a few for overlapping jittered releases).
type laneTimers struct {
	eng   *sim.Engine
	slots []laneSlot
}

// now returns the current instant of the workload's lane.
func (lt *laneTimers) now() simtime.Time { return lt.eng.Now() }

// at schedules fn at instant t on the current lane.
func (lt *laneTimers) at(t simtime.Time, fn func()) {
	s := laneSlot{ev: lt.eng.At(t, fn), at: t, fn: fn}
	for i := range lt.slots {
		if !lt.slots[i].ev.Pending() {
			lt.slots[i] = s
			return
		}
	}
	lt.slots = append(lt.slots, s)
}

// move re-arms every pending timer on dst and makes it the current
// lane. Both engines must rest at the same instant (a fence), so every
// pending slot is strictly in the future on dst too. A fired slot's
// handle is cleared: it points into the old lane's event storage,
// which that lane recycles concurrently with dst after the fence, so
// at must never read it there. On a single-lane machine (dst ==
// current engine) it is a no-op, preserving the exact event sequence
// of the shared-engine configuration.
func (lt *laneTimers) move(dst *sim.Engine) {
	if dst == lt.eng {
		return
	}
	for i := range lt.slots {
		s := &lt.slots[i]
		if s.ev.Pending() {
			lt.eng.Cancel(s.ev)
			s.ev = dst.At(s.at, s.fn)
		} else {
			s.ev = sim.Timer{}
		}
	}
	lt.eng = dst
}
