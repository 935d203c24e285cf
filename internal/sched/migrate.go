package sched

// Cross-scheduler server migration. The paper leaves the cooperation
// between load balancing and adaptive reservations as an open research
// issue (Sec. 6); this file supplies the mechanism half of an answer:
// a CBS server — together with its attached tasks — can be detached
// from one per-core scheduler and adopted by another without losing
// its reservation state. The remaining budget q and the absolute
// deadline d carry over unchanged (all cores of an smp.Machine share
// one simulated clock, so the deadline stays meaningful), a throttled
// server stays throttled and replenishes at the same instant on the
// new core, and tasks keep their PIDs: PID ranges are disjoint per
// core, so a migrated task remains unique machine-wide and the shared
// syscall tracer's per-PID drains never mix tasks.
//
// Carrying (q, d) across is the standard push-migration rule of
// partitioned EDF: the server arrives on the new core with exactly the
// bandwidth claim it held on the old one, so the per-core Σ Q/T bound
// (checked by the caller, smp.Machine.Migrate) is preserved.

import (
	"fmt"

	"repro/internal/sim"
)

// Owns reports whether srv currently belongs to this scheduler.
func (sd *Scheduler) Owns(srv *Server) bool {
	return srv != nil && srv.sched == sd
}

// Detached reports whether the server currently belongs to no
// scheduler (it has been Detached and not yet Adopted).
func (s *Server) Detached() bool { return s.sched == nil }

// Detach removes the server and its attached tasks from the
// scheduler, preserving the CBS state (remaining budget, absolute
// deadline, throttling) so Adopt can re-install it elsewhere. The
// in-progress slice is settled first, so consumed-time accounting is
// exact up to the migration instant. Detach must be called from plain
// simulation context (a timer event), never from inside a scheduling
// hook: re-entering the dispatcher mid-decision is an error.
func (sd *Scheduler) Detach(srv *Server) error {
	if srv == nil || srv.sched != sd {
		return fmt.Errorf("sched: Detach of a server not owned by this scheduler")
	}
	if sd.busy {
		return fmt.Errorf("sched: Detach from inside dispatch")
	}
	// Settle the running slice. This may complete a job, exhaust the
	// migrating server (throttling it or postponing its deadline), or
	// idle it — all of which must happen on the old core's account.
	sd.suspend()
	if srv.heapIndex >= 0 {
		sd.edfRemove(srv)
	}
	if srv.replenishEv.Pending() {
		// A throttled server keeps state srvThrottled and its deadline;
		// Adopt re-arms the replenishment timer at the same instant.
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
	return nil
}

// DetachTask removes a bare best-effort task from the scheduler so
// another scheduler can AdoptTask it. Only unattached tasks qualify:
// a task inside a reservation migrates with its server (Detach). The
// task keeps its PID (per-core PID ranges are disjoint) and its job
// backlog; an in-progress slice is settled first, so consumed-time
// accounting is exact up to the migration instant.
func (sd *Scheduler) DetachTask(t *Task) error {
	if t == nil || t.sched != sd {
		return fmt.Errorf("sched: DetachTask of a task not owned by this scheduler")
	}
	if t.server != nil {
		return fmt.Errorf("sched: DetachTask of %s, which is attached to server %s (Detach the server)",
			t.name, t.server.name)
	}
	if sd.busy {
		return fmt.Errorf("sched: DetachTask from inside dispatch")
	}
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
	return nil
}

// AdoptTask installs a detached bare task on this scheduler's
// best-effort class, re-queueing it if it has backlog.
func (sd *Scheduler) AdoptTask(t *Task) error {
	if t == nil {
		return fmt.Errorf("sched: AdoptTask(nil)")
	}
	if t.sched != nil {
		return fmt.Errorf("sched: AdoptTask of a task still owned by a scheduler")
	}
	if sd.busy {
		return fmt.Errorf("sched: AdoptTask from inside dispatch")
	}
	t.sched = sd
	sd.tasks = append(sd.tasks, t)
	if t.runnable() {
		sd.beWake(t)
	}
	if sd.log != nil {
		sd.trace(EvParamChange, nil, "task=%s adopted backlog=%d", t.name, t.Backlog())
	}
	sd.dispatch()
	return nil
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

// DetachAll removes every member of the group from the scheduler,
// preserving each server's CBS state, atomically: membership is
// validated up front, so either the whole group detaches or nothing
// does. Like Detach, it must be called from plain simulation context.
func (sd *Scheduler) DetachAll(g Group) error {
	if g.Empty() {
		return fmt.Errorf("sched: DetachAll of an empty group")
	}
	if sd.busy {
		return fmt.Errorf("sched: DetachAll from inside dispatch")
	}
	seenSrv := make(map[*Server]bool, len(g.Servers))
	for _, srv := range g.Servers {
		if srv == nil || srv.sched != sd {
			return fmt.Errorf("sched: DetachAll includes a server not owned by this scheduler")
		}
		if seenSrv[srv] {
			return fmt.Errorf("sched: DetachAll lists server %s twice", srv.name)
		}
		seenSrv[srv] = true
	}
	seenTask := make(map[*Task]bool, len(g.Tasks))
	for _, t := range g.Tasks {
		if t == nil || t.sched != sd {
			return fmt.Errorf("sched: DetachAll includes a task not owned by this scheduler")
		}
		if t.server != nil {
			return fmt.Errorf("sched: DetachAll task %s is attached to server %s (list the server instead)",
				t.name, t.server.name)
		}
		if seenTask[t] {
			return fmt.Errorf("sched: DetachAll lists task %s twice", t.name)
		}
		seenTask[t] = true
	}
	// Validation passed: the per-member operations below cannot fail.
	for _, srv := range g.Servers {
		if err := sd.Detach(srv); err != nil {
			panic(fmt.Sprintf("sched: DetachAll failed after validation: %v", err))
		}
	}
	for _, t := range g.Tasks {
		if err := sd.DetachTask(t); err != nil {
			panic(fmt.Sprintf("sched: DetachAll failed after validation: %v", err))
		}
	}
	return nil
}

// AdoptAll installs a detached group on this scheduler, atomically:
// membership is validated up front, so either the whole group arrives
// or nothing does.
func (sd *Scheduler) AdoptAll(g Group) error {
	if g.Empty() {
		return fmt.Errorf("sched: AdoptAll of an empty group")
	}
	if sd.busy {
		return fmt.Errorf("sched: AdoptAll from inside dispatch")
	}
	seenSrv := make(map[*Server]bool, len(g.Servers))
	for _, srv := range g.Servers {
		if srv == nil || srv.sched != nil {
			return fmt.Errorf("sched: AdoptAll includes a server still owned by a scheduler")
		}
		if seenSrv[srv] {
			return fmt.Errorf("sched: AdoptAll lists a server twice")
		}
		seenSrv[srv] = true
	}
	seenTask := make(map[*Task]bool, len(g.Tasks))
	for _, t := range g.Tasks {
		if t == nil || t.sched != nil {
			return fmt.Errorf("sched: AdoptAll includes a task still owned by a scheduler")
		}
		if seenTask[t] {
			return fmt.Errorf("sched: AdoptAll lists a task twice")
		}
		seenTask[t] = true
	}
	for _, srv := range g.Servers {
		if err := sd.Adopt(srv); err != nil {
			panic(fmt.Sprintf("sched: AdoptAll failed after validation: %v", err))
		}
	}
	for _, t := range g.Tasks {
		if err := sd.AdoptTask(t); err != nil {
			panic(fmt.Sprintf("sched: AdoptAll failed after validation: %v", err))
		}
	}
	return nil
}

// Adopt installs a detached server (and its tasks) on this scheduler,
// resuming it exactly where Detach left it: a ready server re-enters
// the EDF heap with its preserved (q, d) pair, a throttled one
// replenishes at its preserved deadline, an idle one waits for the
// next job release. The server is assigned a fresh id from this
// scheduler's sequence (ids are per-scheduler EDF tie-breakers); tasks
// keep their PIDs.
func (sd *Scheduler) Adopt(srv *Server) error {
	if srv == nil {
		return fmt.Errorf("sched: Adopt(nil)")
	}
	if srv.sched != nil {
		return fmt.Errorf("sched: Adopt of a server still owned by a scheduler")
	}
	if sd.busy {
		return fmt.Errorf("sched: Adopt from inside dispatch")
	}
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
			sd.edfPush(srv)
		} else {
			srv.state = srvIdle
		}
	}
	if sd.log != nil {
		sd.trace(EvParamChange, nil, "srv=%s adopted q=%v d=%v", srv.name, srv.q, srv.d)
	}
	sd.dispatch()
	return nil
}
