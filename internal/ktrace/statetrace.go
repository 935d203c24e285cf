package ktrace

import (
	"repro/internal/sched"
	"repro/internal/simtime"
)

// Pseudo syscall numbers used by the state-transition tracer, chosen
// outside the workload package's real syscall range.
const (
	// NrWakeup marks a blocked -> ready transition (sched_wakeup).
	NrWakeup = 1000
	// NrBlock marks a ready -> blocked transition (sched_switch to
	// a blocked state).
	NrBlock = 1001
)

// AttachStateTracer wires a Buffer to the scheduler's task state
// transitions, implementing the paper's Sec. 6 proposal: "trace the
// transition between blocked and ready (or executing) state in the
// kernel as an alternative to the system calls. Such information ...
// promises to be more closely related to the task temporal behaviour."
//
// Unlike syscall events, wakeup timestamps are generated *at job
// release*, before the task has competed for the CPU, so they do not
// dilate under load — which is precisely why the conjecture holds (see
// the StateTrace ablation in internal/experiments).
//
// The tracer is ftrace-like: it records from scheduler context and
// charges no per-event overhead to the traced task. The buffer's
// PID/"syscall" filters apply as usual.
func AttachStateTracer(sd *sched.Scheduler, b *Buffer) {
	sd.SetTransitionHook(func(t *sched.Task, ready bool, now simtime.Time) {
		nr := NrBlock
		if ready {
			nr = NrWakeup
		}
		b.recordOnly(now, t.PID(), nr)
	})
}

// recordOnly inserts an event subject to the filters, without charging
// any overhead (scheduler-context tracing has no tracee to bill).
func (b *Buffer) recordOnly(now simtime.Time, pid, nr int) {
	if b.kind == NoTrace {
		return
	}
	if (b.pidFilter != nil && !b.pidFilter[pid]) || (b.nrFilter != nil && !b.nrFilter[nr]) {
		b.discarded++
		return
	}
	b.push(Event{At: now, PID: pid, Nr: nr})
}
