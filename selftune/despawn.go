package selftune

// Despawn is the inverse of Spawn: workloads with finite lifetimes
// (the cluster layer's request-driven jobs) need their capacity back
// when they complete, not just at end-of-simulation.

import "fmt"

// Despawn tears down a spawned workload: it quiesces the workload's
// generator (via its Stop method, when it has one), retires any
// attached Tuner (releasing its supervisor claim), detaches the
// workload's servers and tasks from its core's scheduler, and returns
// the placement bandwidth hint to the machine's admission account.
//
// Jobs still queued on the workload's tasks are discarded with them —
// Despawn models a departure, not a drain. Members of a TuneShared
// group cannot be despawned individually (the shared reservation ties
// their lifetimes together). Like migration, Despawn must not be
// called from inside a scheduler dispatch. The handle is dead
// afterwards: only Name and Kind remain meaningful, and a second
// Despawn reports an error.
func (s *System) Despawn(h *Handle) error {
	if h == nil {
		return fmt.Errorf("selftune: Despawn(nil)")
	}
	if h.sys == nil {
		return fmt.Errorf("selftune: Despawn %q: handle already despawned", h.Name())
	}
	if h.sys != s {
		return fmt.Errorf("selftune: Despawn of a handle from another System")
	}
	if h.shared != nil {
		return fmt.Errorf("selftune: Despawn %q: handle is part of a TuneShared group", h.Name())
	}
	// Quiesce the generator first so no release loop fires between
	// detach and the next engine step.
	if st, ok := h.w.(interface{ Stop() }); ok {
		st.Stop()
	}
	// Build the unit before retiring the tuner: it is the same set of
	// servers and tasks a migration would carry, which is exactly what
	// must leave the scheduler.
	u := s.unitFor(h)
	if h.tuner != nil {
		h.tuner.Retire()
		h.tuner = nil
	}
	if !u.group.Empty() {
		if err := s.machine.Core(h.core).DetachAll(u.group); err != nil {
			return fmt.Errorf("selftune: Despawn %q: %w", h.Name(), err)
		}
	}
	s.machine.Release(h.core, h.hint)
	s.forget(h)
	h.sys = nil
	return nil
}

// forget drops h from the System's handle list.
func (s *System) forget(h *Handle) {
	for i, live := range s.handles {
		if live == h {
			s.handles = append(s.handles[:i], s.handles[i+1:]...)
			return
		}
	}
}
