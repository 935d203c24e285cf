// Package sched implements the CPU scheduling substrate of the
// reproduction: a uniprocessor EDF core with Constant Bandwidth
// Servers (hard and soft reservations), fixed-priority scheduling of
// multiple tasks inside one server, and a round-robin best-effort
// class for unreserved work.
//
// This package plays the role of the AQuoSA-patched Linux kernel in
// the paper: it exposes exactly the observables the self-tuning
// machinery needs — per-server consumed CPU time (qres_get_time), the
// reservation actuator (qres_set_params), and budget-exhaustion
// statistics — while running on deterministic simulated time.
//
// It also holds the kernel tracer's one rule (Sec. 4.1): every system
// call a job issues enters the tracer and costs the caller the
// tracer's overhead. A job carries its calls as data, (offset, nr)
// pairs; when its execution reaches an offset, the scheduler issues
// the call into its task's SyscallSink and adds the returned overhead
// to the job's demand. A task without a sink is untraced.
package sched

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simtime"
)

// Config parameterises a Scheduler.
type Config struct {
	// Engine is the simulation engine driving the scheduler. Required.
	Engine *sim.Engine
	// BEQuantum is the round-robin quantum of the best-effort class.
	// Zero selects the default of 10ms.
	BEQuantum simtime.Duration
	// LogCapacity bounds the scheduler event log; zero disables
	// logging. A disabled log costs nothing: no entry is formatted, so
	// the job path allocates nothing for it.
	LogCapacity int
	// PIDBase is the first PID this scheduler hands out; zero selects
	// 1000. Schedulers sharing one syscall tracer (the cores of an
	// smp.Machine) must use disjoint PID ranges, or per-PID trace
	// drains mix tasks that happen to share a number.
	PIDBase int
}

// Scheduler owns the simulated CPU.
type Scheduler struct {
	engine    *sim.Engine
	beQuantum simtime.Duration

	servers []*Server
	tasks   []*Task
	edf     serverHeap
	beQ     fifo[*Task] // best-effort round-robin queue

	runServer *Server
	runTask   *Task
	runStart  simtime.Time
	sliceEv   sim.Timer
	sliceFn   func() // slice-end callback, allocated once
	lastTask  *Task

	busy  bool
	again bool

	ctxSwitches int
	busyTime    simtime.Duration
	log         *Log

	nextSrvID int
	nextPID   int

	// transitionHook, if set, observes task state transitions
	// (blocked -> ready and ready -> blocked). It is the simulated
	// equivalent of the ftrace sched_wakeup/sched_switch events the
	// paper's Sec. 6 proposes as an alternative tracing source.
	transitionHook func(t *Task, ready bool, now simtime.Time)

	// exhaustBus, if set, observes every server budget exhaustion,
	// before the CBS-mode recovery (throttle or postpone) runs. It is
	// the simulated qres budget-overrun notification, and the
	// observation bus of an embedding system owns it.
	exhaustBus func(srv *Server, now simtime.Time)
}

// New returns a scheduler bound to the given engine.
func New(cfg Config) *Scheduler {
	if cfg.Engine == nil {
		panic("sched: Config.Engine is required")
	}
	q := cfg.BEQuantum
	if q <= 0 {
		q = 10 * simtime.Millisecond
	}
	pidBase := cfg.PIDBase
	if pidBase <= 0 {
		pidBase = 1000
	}
	sd := &Scheduler{
		engine:    cfg.Engine,
		beQuantum: q,
		nextPID:   pidBase,
	}
	sd.sliceFn = func() {
		sd.sliceEv = sim.Timer{}
		sd.dispatch()
	}
	if cfg.LogCapacity > 0 {
		sd.log = NewLog(cfg.LogCapacity)
	}
	return sd
}

// Engine returns the simulation engine.
func (sd *Scheduler) Engine() *sim.Engine { return sd.engine }

// Log returns the scheduler event log, or nil if disabled.
func (sd *Scheduler) Log() *Log { return sd.log }

// ContextSwitches returns the number of task switches performed.
func (sd *Scheduler) ContextSwitches() int { return sd.ctxSwitches }

// BusyTime returns the total CPU time consumed by all tasks, including
// the in-progress slice.
func (sd *Scheduler) BusyTime() simtime.Duration {
	b := sd.busyTime
	if sd.runTask != nil {
		b += sd.now().Sub(sd.runStart)
	}
	return b
}

// Utilization returns the fraction of time the CPU has been busy.
func (sd *Scheduler) Utilization() float64 {
	now := sd.now()
	if now == 0 {
		return 0
	}
	return float64(sd.BusyTime()) / float64(now)
}

// Servers returns all servers created so far.
func (sd *Scheduler) Servers() []*Server { return sd.servers }

// Tasks returns all tasks created so far.
func (sd *Scheduler) Tasks() []*Task { return sd.tasks }

// Running returns the currently executing task, or nil when idle.
func (sd *Scheduler) Running() *Task { return sd.runTask }

func (sd *Scheduler) now() simtime.Time { return sd.engine.Now() }

// NewServer creates a CBS server with reservation (budget, period).
func (sd *Scheduler) NewServer(name string, budget, period simtime.Duration, mode Mode) *Server {
	if budget <= 0 || period <= 0 || budget > period {
		panic(fmt.Sprintf("sched: invalid reservation Q=%v T=%v", budget, period))
	}
	s := &Server{
		name:      name,
		id:        sd.nextSrvID,
		sched:     sd,
		mode:      mode,
		budget:    budget,
		period:    period,
		heapIndex: -1,
	}
	s.replenishFn = func() {
		s.replenishEv = sim.Timer{}
		s.replenish()
	}
	sd.nextSrvID++
	sd.servers = append(sd.servers, s)
	return s
}

// NewTask creates a task in the best-effort class. Use Task.AttachTo
// to move it into a reservation.
func (sd *Scheduler) NewTask(name string) *Task {
	t := &Task{name: name, pid: sd.nextPID, sched: sd}
	sd.nextPID++
	sd.tasks = append(sd.tasks, t)
	return t
}

// RemoveTask unregisters a freshly created task that never ran: it
// must be unattached, have no backlog, and not be queued. It returns
// false (leaving the task registered) otherwise. This is the undo for
// NewTask on construction paths that fail after creating the task.
func (sd *Scheduler) RemoveTask(t *Task) bool {
	if t == nil || t.sched != sd || t.server != nil || t.runnable() || t.beQueued || sd.runTask == t {
		return false
	}
	for i, x := range sd.tasks {
		if x == t {
			sd.tasks = append(sd.tasks[:i], sd.tasks[i+1:]...)
			t.sched = nil
			return true
		}
	}
	return false
}

// AttachTo places the task inside the given server with the given
// fixed priority (lower value = higher priority). Attaching must
// happen before the task's first job release. Passing a nil server
// leaves the task in the best-effort class.
func (t *Task) AttachTo(srv *Server, prio int) {
	if t.runnable() {
		panic("sched: AttachTo on a runnable task")
	}
	if t.server != nil {
		panic("sched: task already attached to a server")
	}
	if srv == nil {
		return
	}
	if srv.sched != t.sched {
		panic("sched: server belongs to a different scheduler")
	}
	t.server = srv
	t.prio = prio
	srv.tasks = append(srv.tasks, t)
}

// TotalReservedBandwidth returns the sum of Q/T over all servers.
func (sd *Scheduler) TotalReservedBandwidth() float64 {
	var u float64
	for _, s := range sd.servers {
		u += s.Bandwidth()
	}
	return u
}

// SetExhaustBus installs the embedding system's budget-exhaustion
// observer, fired before the CBS-mode recovery runs. It must only read
// scheduler state; mutating it re-entrantly is a bug. Passing nil
// clears it.
func (sd *Scheduler) SetExhaustBus(fn func(srv *Server, now simtime.Time)) {
	sd.exhaustBus = fn
}

// SetTransitionHook registers a callback fired on every task
// transition between the blocked and ready states: at job release of
// an idle task (wakeup) and when a task's backlog drains (block).
// Passing nil clears the hook.
func (sd *Scheduler) SetTransitionHook(fn func(t *Task, ready bool, now simtime.Time)) {
	sd.transitionHook = fn
}

// beWake enqueues a best-effort task that became runnable.
func (sd *Scheduler) beWake(t *Task) {
	if t.beQueued || sd.runTask == t {
		return
	}
	t.beQueued = true
	sd.beQ.push(t)
}

// dispatch is the single scheduling point: it settles the accounting
// of the current slice, handles its consequences (system calls, job
// completion, budget exhaustion) and starts the highest-priority
// runnable entity. It is safe to call re-entrantly: nested calls are
// folded into the outermost one.
func (sd *Scheduler) dispatch() {
	if sd.busy {
		sd.again = true
		return
	}
	sd.busy = true
	for {
		sd.again = false
		sd.suspendLocked()
		if !sd.again {
			sd.pickAndRun()
		}
		if !sd.again {
			break
		}
	}
	sd.busy = false
}

// suspend settles the accounting of the in-progress slice without
// starting anything new. It is used by actuators (Server.SetParams)
// that must observe up-to-date budgets before mutating them; a
// dispatch must follow.
func (sd *Scheduler) suspend() {
	if sd.busy {
		return // accounting already settled by the active dispatch
	}
	sd.busy = true
	sd.suspendLocked()
	sd.busy = false
}

func (sd *Scheduler) suspendLocked() {
	t := sd.runTask
	if t == nil {
		return
	}
	nowt := sd.now()
	srv := sd.runServer
	elapsed := nowt.Sub(sd.runStart)
	if sd.sliceEv.Pending() {
		sd.engine.Cancel(sd.sliceEv)
		sd.sliceEv = sim.Timer{}
	}
	sd.runTask = nil
	sd.runServer = nil

	j := t.pending.front()
	if elapsed > 0 {
		j.done += elapsed
		t.stats.Consumed += elapsed
		sd.busyTime += elapsed
		if srv != nil {
			srv.q -= elapsed
			srv.stats.Consumed += elapsed
		}
	}

	t.issueSyscalls(j, nowt)
	if j.done >= j.Total {
		t.completeCurrent(nowt)
	}

	if srv != nil {
		switch {
		case srv.q <= 0 && srv.runnableTask() != nil:
			srv.exhaust(nowt)
		case srv.runnableTask() == nil:
			srv.maybeIdle()
		}
	} else if t.runnable() {
		// Best-effort round robin: back of the queue.
		t.beQueued = true
		sd.beQ.push(t)
	}
}

// pickAndRun starts the next entity: the earliest-deadline ready
// server if any, else the next best-effort task, else idles.
func (sd *Scheduler) pickAndRun() {
	nowt := sd.now()
	for len(sd.edf) > 0 {
		srv := sd.edf[0]
		t := srv.runnableTask()
		if t == nil {
			sd.edfRemove(srv)
			srv.state = srvIdle
			continue
		}
		if srv.q <= 0 {
			srv.exhaust(nowt)
			continue
		}
		sd.start(srv, t, nowt)
		return
	}
	for sd.beQ.len() > 0 {
		t := sd.beQ.pop()
		t.beQueued = false
		if !t.runnable() {
			continue
		}
		sd.start(nil, t, nowt)
		return
	}
	// CPU idle.
}

func (sd *Scheduler) start(srv *Server, t *Task, nowt simtime.Time) {
	j := t.pending.front()
	if !t.started {
		t.started = true
		if t.OnJobStart != nil {
			t.OnJobStart(j, nowt)
		}
	}
	// Issue the calls already reached (e.g. offset-zero "start of job"
	// syscalls) before computing the slice, so slices are never empty.
	t.issueSyscalls(j, nowt)
	if j.done >= j.Total {
		t.completeCurrent(nowt)
		if srv != nil && srv.runnableTask() == nil {
			srv.maybeIdle()
		}
		sd.again = true
		return
	}
	slice := j.nextBoundary()
	if srv != nil {
		slice = simtime.MinDur(slice, srv.q)
	} else if sd.beQuantum > 0 {
		slice = simtime.MinDur(slice, sd.beQuantum)
	}
	if slice <= 0 {
		panic(fmt.Sprintf("sched: empty slice for %v at %v", t, nowt))
	}
	if t != sd.lastTask {
		sd.ctxSwitches++
		if sd.log != nil {
			sd.trace(EvDispatch, t, "slice=%v", slice)
		}
		sd.lastTask = t
	}
	sd.runServer = srv
	sd.runTask = t
	sd.runStart = nowt
	sd.sliceEv = sd.engine.After(slice, sd.sliceFn)
}

// issueSyscalls issues the system calls job j of t has reached into
// t's sink, charging the overhead the sink returns to the job: the
// kernel tracer's rule for every traced call (paper Sec. 4.1). An
// untraced task issues nothing. A sink may call back into the
// scheduler; the re-entrancy guard folds that into the current pass.
func (t *Task) issueSyscalls(j *Job, now simtime.Time) {
	for j.nextCall < len(j.calls) && j.calls[j.nextCall].Offset <= j.done {
		nr := j.calls[j.nextCall].Nr
		j.nextCall++
		if t.sink != nil {
			j.ExtendDemand(t.sink.Syscall(now, t.pid, nr))
		}
	}
}

// --- EDF ready heap ------------------------------------------------

// serverHeap is a binary min-heap of ready servers ordered by
// (deadline, id). It is hand-rolled rather than using container/heap
// to keep index maintenance explicit and allocation-free.
type serverHeap []*Server

func (h serverHeap) less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].id < h[j].id
}

func (h serverHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}

func (h serverHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h serverHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (sd *Scheduler) edfPush(s *Server) {
	if s.heapIndex >= 0 {
		panic("sched: server already in EDF heap")
	}
	sd.edf = append(sd.edf, s)
	s.heapIndex = len(sd.edf) - 1
	sd.edf.up(s.heapIndex)
}

func (sd *Scheduler) edfRemove(s *Server) {
	i := s.heapIndex
	if i < 0 {
		panic("sched: server not in EDF heap")
	}
	last := len(sd.edf) - 1
	sd.edf.swap(i, last)
	sd.edf[last] = nil
	sd.edf = sd.edf[:last]
	s.heapIndex = -1
	if i < last {
		sd.edf.down(i)
		sd.edf.up(i)
	}
}

func (sd *Scheduler) edfFix(s *Server) {
	if s.heapIndex < 0 {
		panic("sched: server not in EDF heap")
	}
	sd.edf.down(s.heapIndex)
	sd.edf.up(s.heapIndex)
}

// Validate checks internal invariants; tests call it after stressing
// the scheduler. It returns an error describing the first violation.
func (sd *Scheduler) Validate() error {
	for i, s := range sd.edf {
		if s.heapIndex != i {
			return fmt.Errorf("heap index mismatch at %d: %v has %d", i, s, s.heapIndex)
		}
		if s.state != srvReady {
			return fmt.Errorf("non-ready server %v in EDF heap", s)
		}
		if i > 0 {
			parent := (i - 1) / 2
			if sd.edf.less(i, parent) {
				return fmt.Errorf("heap order violated between %d and parent %d", i, parent)
			}
		}
	}
	for _, s := range sd.servers {
		if s.q < 0 || s.q > s.budget {
			return fmt.Errorf("server %v budget out of range: q=%v", s, s.q)
		}
		if s.state == srvThrottled && !s.replenishEv.Pending() {
			return fmt.Errorf("throttled server %v without replenish event", s)
		}
		if s.state != srvReady && s.heapIndex != -1 {
			return fmt.Errorf("server %v in state %d has heap index %d", s, s.state, s.heapIndex)
		}
	}
	for _, t := range sd.tasks {
		for _, j := range t.pending.items() {
			if j.done > j.Total {
				return fmt.Errorf("task %v job overran demand: done=%v total=%v", t, j.done, j.Total)
			}
		}
	}
	return nil
}
