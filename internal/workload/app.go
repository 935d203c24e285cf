package workload

import (
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// SyscallSink receives the system calls a workload's jobs issue; see
// sched.SyscallSink. It is implemented by ktrace.Buffer.
type SyscallSink = sched.SyscallSink

// app is the skeleton every single-task workload kind embeds: the
// scheduler task its jobs run in, the lane timers of its self-timers,
// and whether it has started and been stopped. It holds the kinds'
// one MoveLane, Stop, Name and Task, their start-once rule and their
// release loop.
type app struct {
	task    *sched.Task
	lt      laneTimers
	started bool
	stopped bool
}

// newApp creates the workload's task on sd, tracing its system calls
// into sink (nil: untraced). The task exists from construction, so
// PID filters can be installed before Start.
func newApp(sd *sched.Scheduler, name string, sink SyscallSink) app {
	t := sd.NewTask(name)
	t.SetSink(sink)
	return app{task: t, lt: laneTimers{eng: sd.Engine()}}
}

// Name returns the workload's name, which is its task's.
func (a *app) Name() string { return a.task.Name() }

// Task returns the underlying scheduler task (the unit a Tuner
// manages).
func (a *app) Task() *sched.Task { return a.task }

// MoveLane implements LaneMover: it re-arms every pending self-timer
// on dst and points a traced task's future system calls, those of jobs
// in flight included, at sink.
func (a *app) MoveLane(dst *sim.Engine, sink SyscallSink) {
	a.lt.move(dst)
	if sink != nil && a.task.Sink() != nil {
		a.task.SetSink(sink)
	}
}

// Stop quiesces the workload: every pending self-timer (the release
// loop, a jittered release, a deferred start) becomes a no-op when it
// fires. Jobs already queued on the task are unaffected.
// Idempotent; safe before Start.
func (a *app) Stop() { a.stopped = true }

// start marks the workload started and returns at clamped to the
// present, so a mid-run start cannot schedule into the past. Starting
// twice panics: a second release loop would corrupt the first's state.
func (a *app) start(kind string, at simtime.Time) simtime.Time {
	if a.started {
		panic("workload: " + kind + " started twice")
	}
	a.started = true
	if now := a.lt.now(); at < now {
		return now
	}
	return at
}

// repeat runs fire at first and then at each instant fire returns,
// until the workload is stopped: every kind's release loop.
func (a *app) repeat(first simtime.Time, fire func() simtime.Time) {
	var tick func()
	tick = func() {
		if !a.stopped {
			a.lt.at(fire(), tick)
		}
	}
	a.lt.at(first, tick)
}

// syscall adds system call nr at execution offset off to job j if the
// task is traced; an untraced task's jobs carry no calls.
func (a *app) syscall(j *sched.Job, off simtime.Duration, nr Syscall) {
	if a.task.Sink() != nil {
		j.AddSyscall(off, int(nr))
	}
}
