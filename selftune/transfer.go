package selftune

// Cross-machine live migration: the machine-scope migration machinery
// (sched.Scheduler.MoveAll carrying CBS budget/deadline/throttle state,
// workload.LaneMover carrying self-timers and syscall sinks,
// ktrace.Buffer.Inject carrying undownloaded evidence,
// core.Tuner.Claim and Rehome moving the supervisor claim and the
// sampling tick) extended across System boundaries. Transfer moves one
// spawned workload from this System to another at the same simulated
// instant through the same transaction as a move between cores
// (smp.MoveGroup), admission-checked and all-or-nothing: every step
// that may refuse runs before anything moves, so on any error both
// machines are exactly as they were.
//
// Both Systems must rest at the same simulated time — in a cluster
// that is the lockstep control fence, where every machine engine and
// every core lane has advanced to the tick instant. Executed serially
// there (the cluster executor walks its plan in order), transfers are
// byte-identical at any machine or core parallelism level.
//
// PIDs: tasks keep their PIDs across the move, and per-PID tracer
// drains must never mix tasks from different machines — a fleet whose
// machines exchange live workloads gives each System a disjoint
// WithPIDOffset, exactly as per-core PID bases keep cores disjoint
// within one machine.

import (
	"fmt"

	"repro/internal/smp"
	"repro/internal/workload"
)

// LiveMovable reports whether the handle can Transfer between
// machines with its state intact: it is not part of a TuneShared
// group, its workload carries its own timers and sink across engines
// (workload.LaneMover — every built-in kind does), and it has
// substance on its core. A multi-reservation load (rtload) has none
// until Start creates its reservations; every other built-in kind owns
// its task from construction, so it is movable before it starts and
// arrives unstarted.
func (h *Handle) LiveMovable() bool {
	_, err := h.liveUnit()
	return err == nil
}

// liveUnit returns the migration unit Transfer would carry for h, or
// the reason h cannot carry its state to another machine.
func (h *Handle) liveUnit() (*migUnit, error) {
	if h.sys == nil {
		return nil, fmt.Errorf("selftune: Transfer %q: handle was despawned", h.Name())
	}
	if h.shared != nil {
		return nil, fmt.Errorf("selftune: Transfer %q: handle is part of a TuneShared group", h.Name())
	}
	if _, ok := h.w.(workload.LaneMover); !ok {
		return nil, fmt.Errorf("selftune: Transfer %q: kind %q cannot carry its timers across machines",
			h.Name(), h.kind)
	}
	u := h.sys.unitFor(h)
	if u.group.Empty() {
		return nil, fmt.Errorf("selftune: Transfer %q: nothing to carry yet (start it first)", h.Name())
	}
	return u, nil
}

// Transfer live-moves the workload behind h from this System to dst,
// returning the destination core. The CBS server arrives with its
// remaining budget, absolute deadline and throttle state preserved
// (sched.Scheduler.MoveAll), a throttled server replenishes at the same
// instant on the destination; the workload's self-timers re-arm on
// the destination engine and its syscall sink repoints at the
// destination tracer (workload.LaneMover); the tasks' undownloaded
// syscall evidence transfers between tracers (ktrace.Buffer.Inject);
// an attached Tuner registers with the destination core's supervisor
// before anything moves (core.Tuner.Claim), then rehomes to the
// destination core's scheduler with its sampling tick carried across
// (core.Tuner.Rehome) and downloads from the destination tracer from
// now on. Request and tuner events publish on dst's observer bus
// after the move.
//
// The destination core is the one worst-fit placement would pick for
// the migration charge (the larger of the handle's hint and its
// reserved bandwidth), and the move is the same transaction as a
// Migrate between cores (smp.MoveGroup): on any refusal — no room,
// or the destination supervisor rejecting the tuner's claim — nothing
// has moved. Both Systems must rest at the same simulated instant;
// handles in a TuneShared group, workloads without LaneMover and an
// rtload before Start are not transferable (see LiveMovable) — callers
// fall back to despawn/respawn for those. Transfer carries a workload
// in whatever state it is: one that was never started stays unstarted
// on the destination.
func (s *System) Transfer(h *Handle, dst *System) (int, error) {
	if h == nil || h.sys != s {
		return 0, fmt.Errorf("selftune: Transfer of a handle from another System")
	}
	if dst == nil || dst == s {
		return 0, fmt.Errorf("selftune: Transfer %q to its own System", h.Name())
	}
	if sn, dn := s.engine.Now(), dst.engine.Now(); sn != dn {
		return 0, fmt.Errorf("selftune: Transfer %q across machines at different instants (%v vs %v)",
			h.Name(), sn, dn)
	}
	u, err := h.liveUnit()
	if err != nil {
		return 0, err
	}
	to, err := dst.machine.Fit(smp.Charge(u.hint, u.group.Bandwidth()))
	if err == nil {
		err = s.moveUnit(u, dst, to)
	}
	if err != nil {
		return 0, fmt.Errorf("selftune: Transfer %q: %w", h.Name(), err)
	}
	s.forget(h)
	dst.handles = append(dst.handles, h)
	h.sys = dst
	return to, nil
}
