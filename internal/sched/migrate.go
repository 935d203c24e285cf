package sched

// Cross-scheduler server migration. The paper leaves the cooperation
// between load balancing and adaptive reservations as an open research
// issue (Sec. 6); this file supplies the mechanism half of an answer:
// a CBS server — together with its attached tasks — can be detached
// from one per-core scheduler and adopted by another without losing
// its reservation state. The remaining budget q and the absolute
// deadline d carry over (all cores of an smp.Machine share one
// simulated clock, so the deadline stays meaningful), a throttled
// server stays throttled and replenishes at the same instant on the
// new core, and tasks keep their PIDs: PID ranges are disjoint per
// core, so a migrated task remains unique machine-wide and the shared
// syscall tracer's per-PID drains never mix tasks.
//
// A ready server arrives under the CBS wake-up rule. The per-core
// Σ Q/T bound (checked by the caller, smp.MoveGroup) guarantees the
// destination's reservations only if every server there claims no more
// than its Q/T from now on; a server starved on its old core can carry
// a pair with q > (d-now)·Q/T, and then gets q = Q and d = now + T, as
// a waking server does. The server that moved pays for its wait, not
// the servers already on the destination.
//
// A Group is the only thing that migrates. DetachAll takes one off its
// scheduler for good (a departing workload) and MoveAll carries one to
// another scheduler once the caller's claim on the destination has
// accepted it. Both validate the group once, up front, and MoveAll
// asks for the claim before any member leaves, so the per-member steps
// below cannot fail and no move is ever undone.

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Owns reports whether srv currently belongs to this scheduler.
func (sd *Scheduler) Owns(srv *Server) bool {
	return srv != nil && srv.sched == sd
}

// Detached reports whether the server currently belongs to no
// scheduler (DetachAll took it off its last one).
func (s *Server) Detached() bool { return s.sched == nil }

// detach removes the server and its attached tasks from the
// scheduler, preserving the CBS state (remaining budget, absolute
// deadline, throttling) so adopt can re-install it elsewhere. The
// in-progress slice is settled first, so consumed-time accounting is
// exact up to the migration instant.
func (sd *Scheduler) detach(srv *Server) {
	// Settle the running slice. This may complete a job, exhaust the
	// migrating server (throttling it or postponing its deadline), or
	// idle it — all of which must happen on the old core's account.
	sd.suspend()
	if srv.heapIndex >= 0 {
		sd.edfRemove(srv)
	}
	if srv.replenishEv.Pending() {
		// A throttled server keeps state srvThrottled and its deadline;
		// adopt re-arms the replenishment timer at the same instant.
		sd.engine.Cancel(srv.replenishEv)
		srv.replenishEv = sim.Timer{}
	}
	for i, x := range sd.servers {
		if x == srv {
			sd.servers = append(sd.servers[:i], sd.servers[i+1:]...)
			break
		}
	}
	for _, t := range srv.tasks {
		for i, x := range sd.tasks {
			if x == t {
				sd.tasks = append(sd.tasks[:i], sd.tasks[i+1:]...)
				break
			}
		}
		if sd.lastTask == t {
			sd.lastTask = nil
		}
		t.sched = nil
	}
	srv.sched = nil
	if sd.log != nil {
		sd.trace(EvParamChange, nil, "srv=%s detached q=%v d=%v", srv.name, srv.q, srv.d)
	}
	// The old core moves on to its next-best entity.
	sd.dispatch()
}

// detachTask removes a bare best-effort task from the scheduler so
// another scheduler can adoptTask it (a task inside a reservation
// migrates with its server). The task keeps its PID (per-core PID
// ranges are disjoint) and its job backlog; an in-progress slice is
// settled first, so consumed-time accounting is exact up to the
// migration instant.
func (sd *Scheduler) detachTask(t *Task) {
	sd.suspend()
	if t.beQueued {
		for i, x := range sd.beQ.items() {
			if x == t {
				sd.beQ.remove(i)
				break
			}
		}
		t.beQueued = false
	}
	for i, x := range sd.tasks {
		if x == t {
			sd.tasks = append(sd.tasks[:i], sd.tasks[i+1:]...)
			break
		}
	}
	if sd.lastTask == t {
		sd.lastTask = nil
	}
	t.sched = nil
	if sd.log != nil {
		sd.trace(EvParamChange, nil, "task=%s detached backlog=%d", t.name, t.Backlog())
	}
	sd.dispatch()
}

// adoptTask installs a detached bare task on this scheduler's
// best-effort class, re-queueing it if it has backlog.
func (sd *Scheduler) adoptTask(t *Task) {
	t.sched = sd
	sd.tasks = append(sd.tasks, t)
	if t.runnable() {
		sd.beWake(t)
	}
	if sd.log != nil {
		sd.trace(EvParamChange, nil, "task=%s adopted backlog=%d", t.name, t.Backlog())
	}
	sd.dispatch()
}

// Group is one migration unit: a set of CBS servers (each carrying its
// attached tasks) plus bare best-effort tasks that must change cores
// together — a multi-reservation background load, a shared-tuner
// application, or an unreserved request server.
type Group struct {
	Servers []*Server
	Tasks   []*Task // bare (unattached) best-effort tasks
}

// Empty reports whether the group carries nothing to migrate.
func (g Group) Empty() bool { return len(g.Servers) == 0 && len(g.Tasks) == 0 }

// Bandwidth returns the summed reserved bandwidth of the group's
// servers (bare tasks contribute nothing).
func (g Group) Bandwidth() float64 {
	var sum float64
	for _, s := range g.Servers {
		sum += s.Bandwidth()
	}
	return sum
}

// DetachAll removes every member of the group from the scheduler for
// good, preserving each server's CBS state: the group is validated up
// front, so either the whole group detaches or nothing does. It must
// be called from plain simulation context (a timer event), never from
// inside a scheduling hook: re-entering the dispatcher mid-decision is
// an error.
func (sd *Scheduler) DetachAll(g Group) error {
	if err := sd.checkGroup(g, "DetachAll"); err != nil {
		return err
	}
	sd.detachAll(g)
	return nil
}

// MoveAll moves the group, every server with its CBS state, from this
// scheduler to dst. It validates the group and dst, then runs claim,
// the caller's one step that may refuse (nil never refuses), and only
// then detaches and adopts: a refused claim returns its error with
// neither scheduler touched, and once claim accepts the move cannot
// fail. claim must not touch either scheduler. MoveAll is called like
// DetachAll; schedulers on different engines must rest at the same
// instant.
func (sd *Scheduler) MoveAll(g Group, dst *Scheduler, claim func() error) error {
	if err := sd.checkGroup(g, "MoveAll"); err != nil {
		return err
	}
	if dst.busy {
		return fmt.Errorf("sched: MoveAll into a scheduler inside dispatch")
	}
	if claim != nil {
		if err := claim(); err != nil {
			return err
		}
	}
	sd.detachAll(g)
	dst.adoptAll(g)
	return nil
}

// checkGroup checks that g can leave this scheduler: it is non-empty,
// no dispatch is in progress, every member belongs to the scheduler
// and is listed once, and every listed task is bare (a task inside a
// reservation travels with its server).
func (sd *Scheduler) checkGroup(g Group, op string) error {
	if g.Empty() {
		return fmt.Errorf("sched: %s of an empty group", op)
	}
	if sd.busy {
		return fmt.Errorf("sched: %s from inside dispatch", op)
	}
	for i, srv := range g.Servers {
		if srv == nil || srv.sched != sd {
			return fmt.Errorf("sched: %s includes a server not owned by this scheduler", op)
		}
		if slices.Contains(g.Servers[:i], srv) {
			return fmt.Errorf("sched: %s lists server %s twice", op, srv.name)
		}
	}
	for i, t := range g.Tasks {
		if t == nil || t.sched != sd {
			return fmt.Errorf("sched: %s includes a task not owned by this scheduler", op)
		}
		if t.server != nil {
			return fmt.Errorf("sched: %s task %s is attached to server %s (list the server instead)",
				op, t.name, t.server.name)
		}
		if slices.Contains(g.Tasks[:i], t) {
			return fmt.Errorf("sched: %s lists task %s twice", op, t.name)
		}
	}
	return nil
}

// detachAll detaches a validated group: servers first, then bare tasks.
func (sd *Scheduler) detachAll(g Group) {
	for _, srv := range g.Servers {
		sd.detach(srv)
	}
	for _, t := range g.Tasks {
		sd.detachTask(t)
	}
}

// adoptAll installs a group detachAll took off another scheduler, in
// the same member order.
func (sd *Scheduler) adoptAll(g Group) {
	for _, srv := range g.Servers {
		sd.adopt(srv)
	}
	for _, t := range g.Tasks {
		sd.adoptTask(t)
	}
}

// adopt installs a detached server (and its tasks) on this scheduler,
// resuming it where detach left it: a ready server re-enters the EDF
// heap under the CBS wake-up rule, keeping its preserved (q, d) pair
// only if the pair cannot break the reservations already here (a
// server starved on its old core otherwise gets q = Q and d = now + T),
// a throttled one replenishes at its preserved deadline, an idle one
// waits for the next job release. The server is assigned a fresh id
// from this scheduler's sequence (ids are per-scheduler EDF
// tie-breakers); tasks keep their PIDs.
func (sd *Scheduler) adopt(srv *Server) {
	srv.id = sd.nextSrvID
	sd.nextSrvID++
	srv.sched = sd
	sd.servers = append(sd.servers, srv)
	for _, t := range srv.tasks {
		t.sched = sd
		sd.tasks = append(sd.tasks, t)
	}
	now := sd.now()
	switch srv.state {
	case srvThrottled:
		when := srv.d
		if when <= now {
			// The replenishment instant passed while detached: postpone
			// one period from now, as throttle does after a shrink.
			when = now.Add(srv.period)
			srv.d = when
		}
		srv.replenishEv = sd.engine.At(when, srv.replenishFn)
	case srvReady:
		if srv.runnableTask() != nil {
			srv.wakeupRule(now)
			sd.edfPush(srv)
		} else {
			srv.state = srvIdle
		}
	}
	if sd.log != nil {
		sd.trace(EvParamChange, nil, "srv=%s adopted q=%v d=%v", srv.name, srv.q, srv.d)
	}
	sd.dispatch()
}
