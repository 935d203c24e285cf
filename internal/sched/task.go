package sched

import (
	"fmt"

	"repro/internal/simtime"
)

// ProgressHook is a system call a job issues when its cumulative
// execution reaches Offset. The scheduler issues it into the task's
// SyscallSink, so its *wall* time depends on how the job is scheduled,
// which is exactly the load-dependence the paper's tracer observes.
type ProgressHook struct {
	Offset simtime.Duration // execution progress at which to issue
	Nr     int              // system call number
}

// Job is one activation of a task: an execution demand plus an
// absolute deadline and an ordered list of the system calls it issues.
type Job struct {
	Release  simtime.Time
	Deadline simtime.Time // absolute; Never means no deadline
	Total    simtime.Duration

	done     simtime.Duration
	calls    []ProgressHook // sorted by Offset
	nextCall int

	// Filled in at completion.
	Finish simtime.Time
}

// NewJob returns a job released at rel with execution demand total and
// absolute deadline dl (use simtime.Never for none). The job's storage
// comes from the task's free list, where the task puts each job it
// completes once OnJobComplete has returned, so a job is only valid
// until then; its syscall slice is reused across the task's jobs. The
// free list belongs to the task and moves with it, so recycling takes
// no lock on any lane.
func (t *Task) NewJob(rel simtime.Time, total simtime.Duration, dl simtime.Time) *Job {
	if total < 0 {
		panic("sched: job with negative demand")
	}
	var j *Job
	if n := len(t.free); n > 0 {
		j = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		j = new(Job)
	}
	*j = Job{
		Release:  rel,
		Deadline: dl,
		Total:    total,
		Finish:   simtime.Never,
		calls:    j.calls[:0],
	}
	return j
}

// AddSyscall registers system call nr, issued when the job's execution
// reaches off (clamped to [0, Total]). Calls must be added in
// non-decreasing offset order before the job is released.
func (j *Job) AddSyscall(off simtime.Duration, nr int) {
	if n := len(j.calls); n > 0 && j.calls[n-1].Offset > off {
		panic("sched: job syscalls must be added in offset order")
	}
	if off < 0 {
		off = 0
	}
	if off > j.Total {
		off = j.Total
	}
	j.calls = append(j.calls, ProgressHook{Offset: off, Nr: nr})
}

// Done returns the execution already received by the job.
func (j *Job) Done() simtime.Duration { return j.done }

// ExtendDemand adds extra execution demand to the job. It models work
// injected while the job runs — in this reproduction, the per-syscall
// overhead charged by the kernel tracer. Non-positive amounts are
// ignored.
func (j *Job) ExtendDemand(d simtime.Duration) {
	if d > 0 {
		j.Total += d
	}
}

// Remaining returns the outstanding execution demand.
func (j *Job) Remaining() simtime.Duration { return j.Total - j.done }

// ResponseTime returns the job's completion time minus its release
// time, or a negative value if the job has not finished.
func (j *Job) ResponseTime() simtime.Duration {
	if j.Finish == simtime.Never {
		return -1
	}
	return j.Finish.Sub(j.Release)
}

// Missed reports whether the job finished after its deadline (or has a
// deadline in the past and is still unfinished at the given instant).
func (j *Job) Missed(now simtime.Time) bool {
	if j.Deadline == simtime.Never {
		return false
	}
	if j.Finish != simtime.Never {
		return j.Finish.After(j.Deadline)
	}
	return now.After(j.Deadline)
}

// nextBoundary returns how much further the job may execute before the
// next interesting point: the next syscall offset or job completion.
func (j *Job) nextBoundary() simtime.Duration {
	if j.nextCall < len(j.calls) {
		return j.calls[j.nextCall].Offset - j.done
	}
	return j.Total - j.done
}

// TaskStats aggregates per-task scheduling statistics.
type TaskStats struct {
	Released    int
	Completed   int
	Missed      int
	Consumed    simtime.Duration // total CPU time received
	MaxTardy    simtime.Duration // worst completion tardiness observed
	Preemptions int
}

// SyscallSink receives the system calls a task's jobs issue and
// returns the extra execution demand the tracing machinery charges for
// each recorded call (zero when filtered out). It is implemented by
// ktrace.Buffer.
type SyscallSink interface {
	Syscall(now simtime.Time, pid int, nr int) simtime.Duration
}

// Task is a schedulable entity: a stream of jobs served FIFO. A task
// is attached either to a CBS server (real-time class) or to the
// best-effort class.
type Task struct {
	name string
	pid  int
	sink SyscallSink // nil: untraced

	sched  *Scheduler
	server *Server
	prio   int // fixed priority inside a server; lower value = higher priority

	pending fifo[*Job] // backlog; the front is the current job
	free    []*Job     // completed jobs, reused by NewJob
	stats   TaskStats

	// OnJobComplete, if non-nil, is invoked when a job finishes. The
	// job goes back on the task's free list when it returns, so it must
	// not keep the job.
	OnJobComplete func(j *Job, now simtime.Time)
	// OnJobStart, if non-nil, is invoked the first time a job runs.
	OnJobStart func(j *Job, now simtime.Time)

	started bool // current job has begun execution

	beQueued bool // linked into the best-effort run queue
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// PID returns the task's process identifier (used by the tracer's
// per-process filters).
func (t *Task) PID() int { return t.pid }

// SetSink points the task's system calls at sink; nil leaves it
// untraced. Calls not yet issued go to the new sink, those of jobs in
// flight included.
func (t *Task) SetSink(sink SyscallSink) { t.sink = sink }

// Sink returns the sink the task's system calls go to, or nil.
func (t *Task) Sink() SyscallSink { return t.sink }

// Stats returns a snapshot of the task's statistics. Consumed includes
// the in-progress slice of a currently running task.
func (t *Task) Stats() TaskStats {
	s := t.stats
	if t.sched.runTask == t {
		s.Consumed += t.sched.now().Sub(t.sched.runStart)
	}
	return s
}

// Server returns the CBS server the task is attached to, or nil for a
// best-effort task.
func (t *Task) Server() *Server { return t.server }

// Priority returns the task's fixed priority inside its server.
func (t *Task) Priority() int { return t.prio }

// Backlog returns the number of unfinished jobs (including the one in
// service).
func (t *Task) Backlog() int { return t.pending.len() }

func (t *Task) runnable() bool { return t.pending.len() > 0 }

// Release hands a new job to the task. It must be called from within
// the simulation (typically from a timer event); the job's Release
// field is overwritten with the current instant.
func (t *Task) Release(j *Job) {
	now := t.sched.now()
	j.Release = now
	t.pending.push(j)
	t.stats.Released++
	if t.sched.log != nil {
		t.sched.trace(EvJobRelease, t, "demand=%v", j.Total)
	}
	if t.pending.len() == 1 {
		t.started = false
		if hook := t.sched.transitionHook; hook != nil {
			hook(t, true, now)
		}
		// Task transitioned idle -> runnable: wake its class.
		if t.server != nil {
			t.server.taskWoke(now)
		} else {
			t.sched.beWake(t)
		}
	}
	t.sched.dispatch()
}

// String implements fmt.Stringer.
func (t *Task) String() string {
	return fmt.Sprintf("task(%s pid=%d)", t.name, t.pid)
}

// completeCurrent finalises the job in service. Caller must have
// verified j.done == j.Total.
func (t *Task) completeCurrent(now simtime.Time) {
	j := t.pending.pop()
	j.Finish = now
	t.started = false
	t.stats.Completed++
	if j.Deadline != simtime.Never && now.After(j.Deadline) {
		t.stats.Missed++
		if tardy := now.Sub(j.Deadline); tardy > t.stats.MaxTardy {
			t.stats.MaxTardy = tardy
		}
	}
	if t.sched.log != nil {
		t.sched.trace(EvJobComplete, t, "resp=%v", j.ResponseTime())
	}
	if !t.runnable() {
		if hook := t.sched.transitionHook; hook != nil {
			hook(t, false, now)
		}
	}
	if t.OnJobComplete != nil {
		t.OnJobComplete(j, now)
	}
	t.free = append(t.free, j)
}
