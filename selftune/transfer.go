package selftune

// Cross-machine live migration: the machine-scope migration machinery
// (sched.Detach/Adopt carrying CBS budget/deadline/throttle state,
// workload.LaneMover carrying self-timers and syscall sinks,
// ktrace.Buffer.Inject carrying undownloaded evidence,
// core.Tuner.Rehome carrying the sampling tick and supervisor claim)
// extended across System boundaries. Transfer moves one spawned
// workload from this System to another at the same simulated instant,
// admission-checked and all-or-nothing: on any error the source
// machine is exactly as it was.
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

	"repro/internal/workload"
)

// LiveMovable reports whether the handle can Transfer between
// machines with its state intact: it is not part of a TuneShared
// group, its workload carries its own timers and sink across engines
// (workload.LaneMover — every built-in kind does), and it has
// substance on its core (an unstarted workload has no reservation to
// carry; respawning it on the destination is equivalent and cheaper).
func (h *Handle) LiveMovable() bool {
	if h.sys == nil || h.shared != nil {
		return false
	}
	if _, ok := h.w.(workload.LaneMover); !ok {
		return false
	}
	return !h.sys.handleUnit(h).group.Empty()
}

// Transfer live-moves the workload behind h from this System to dst,
// returning the destination core. The CBS server arrives with its
// remaining budget, absolute deadline and throttle state preserved
// (sched.Detach/Adopt), a throttled server replenishes at the same
// instant on the destination; the workload's self-timers re-arm on
// the destination engine and its syscall sink repoints at the
// destination tracer (workload.LaneMover); the tasks' undownloaded
// syscall evidence transfers between tracers (ktrace.Buffer.Inject);
// an attached Tuner rehomes to the destination core's scheduler and
// supervisor with its sampling tick carried across
// (core.Tuner.Rehome) and downloads from the destination tracer
// from now on. Request and tuner events publish on dst's observer bus
// after the move.
//
// Placement on dst is worst-fit over the migration charge (the larger
// of the handle's hint and its reserved bandwidth), admission-checked
// against the destination supervisors; on any failure — no room,
// supervisor rejection of the tuner — everything rolls back and the
// source machine is unchanged. Both Systems must rest at the same
// simulated instant; handles in a TuneShared group, workloads without
// LaneMover and unstarted workloads are not transferable (see
// LiveMovable) — callers fall back to despawn/respawn for those.
func (s *System) Transfer(h *Handle, dst *System) (int, error) {
	if h == nil || h.sys != s {
		return 0, fmt.Errorf("selftune: Transfer of a handle from another System")
	}
	if dst == nil || dst == s {
		return 0, fmt.Errorf("selftune: Transfer %q to its own System", h.Name())
	}
	if h.shared != nil {
		return 0, fmt.Errorf("selftune: Transfer %q: handle is part of a TuneShared group", h.Name())
	}
	if _, ok := h.w.(workload.LaneMover); !ok {
		return 0, fmt.Errorf("selftune: Transfer %q: kind %q cannot carry its timers across machines",
			h.Name(), h.kind)
	}
	if sn, dn := s.engine.Now(), dst.engine.Now(); sn != dn {
		return 0, fmt.Errorf("selftune: Transfer %q across machines at different instants (%v vs %v)",
			h.Name(), sn, dn)
	}
	u := s.handleUnit(h)
	if u.group.Empty() {
		return 0, fmt.Errorf("selftune: Transfer %q: nothing to carry yet (start it first)", h.Name())
	}
	srcCore := h.core
	charge := h.hint
	if bw := u.group.Bandwidth(); bw > charge {
		charge = bw
	}
	// Worst-fit placement on the destination, charged up front with the
	// full migration charge so an interleaved admission cannot fill the
	// just-checked room; the charge shrinks back to the lasting hint
	// once the unit has arrived.
	dstCore, err := dst.machine.Place(charge)
	if err != nil {
		return 0, fmt.Errorf("selftune: Transfer %q: %w", h.Name(), err)
	}
	if err := s.machine.Core(srcCore).DetachAll(u.group); err != nil {
		dst.machine.Release(dstCore, charge)
		return 0, fmt.Errorf("selftune: Transfer %q: %w", h.Name(), err)
	}
	if err := dst.machine.Core(dstCore).AdoptAll(u.group); err != nil {
		// Unreachable in practice (the group was just detached, both
		// machines rest at a fence); put it back rather than strand the
		// reservations.
		if rb := s.machine.Core(srcCore).AdoptAll(u.group); rb != nil {
			panic(fmt.Sprintf("selftune: Transfer stranded %q: %v after %v", h.Name(), rb, err))
		}
		dst.machine.Release(dstCore, charge)
		return 0, fmt.Errorf("selftune: Transfer %q: %w", h.Name(), err)
	}
	// The tuner, if any, re-registers with the destination supervisor
	// before releasing the source claim, so a rejection here leaves it
	// intact on the source — undo the physical move and report. The
	// sampling tick re-arms on the destination engine at its preserved
	// instant (core.Tuner.Rehome).
	if err := u.rehome(dst, dstCore); err != nil {
		if rb := dst.machine.Core(dstCore).DetachAll(u.group); rb != nil {
			panic(fmt.Sprintf("selftune: Transfer stranded %q: %v after %v", h.Name(), rb, err))
		}
		if rb := s.machine.Core(srcCore).AdoptAll(u.group); rb != nil {
			panic(fmt.Sprintf("selftune: Transfer stranded %q: %v after %v", h.Name(), rb, err))
		}
		dst.machine.Release(dstCore, charge)
		return 0, fmt.Errorf("selftune: Transfer %q: %w", h.Name(), err)
	}
	// Past this point nothing can fail: carry the lane-bound state —
	// self-timers, sink, undownloaded evidence, the tuner's tracer and
	// the request publisher — to dst.
	carryLane(u, s, srcCore, dst, dstCore)
	// Settle the accounts: the lasting hint leaves the source and stays
	// on the destination; the admission overcharge shrinks back.
	s.machine.Release(srcCore, h.hint)
	dst.machine.Release(dstCore, charge-h.hint)
	// Re-register the handle: it now belongs to dst.
	for i, live := range s.handles {
		if live == h {
			s.handles = append(s.handles[:i], s.handles[i+1:]...)
			break
		}
	}
	dst.handles = append(dst.handles, h)
	h.sys = dst
	h.core = dstCore
	dst.migrated++
	return dstCore, nil
}
