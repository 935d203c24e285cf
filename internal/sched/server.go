package sched

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simtime"
)

// Mode selects the CBS budget-exhaustion behaviour.
type Mode int

const (
	// HardCBS throttles the server until its current deadline, then
	// replenishes (AQuoSA's hard reservations: the served tasks can
	// never use more than Q every T, giving temporal isolation).
	HardCBS Mode = iota
	// SoftCBS immediately replenishes the budget and postpones the
	// deadline by one period, letting the server keep competing with a
	// worse deadline (the original CBS of Abeni & Buttazzo).
	SoftCBS
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case HardCBS:
		return "hard"
	case SoftCBS:
		return "soft"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// serverState is the CBS server lifecycle state.
type serverState int

const (
	srvIdle      serverState = iota // no runnable task
	srvReady                        // runnable, competing under EDF
	srvThrottled                    // hard CBS, budget exhausted, waiting for replenishment
)

// ServerStats aggregates per-server scheduling statistics.
type ServerStats struct {
	Consumed       simtime.Duration // CPU time delivered through this server
	Exhaustions    int              // number of budget exhaustions
	Replenishments int
	ThrottledTime  simtime.Duration // total time spent throttled (hard CBS)
}

// Server is a Constant Bandwidth Server: a CPU reservation of budget Q
// every period T, scheduled EDF by its dynamic deadline. One or more
// tasks attach to a server; when several attach, they are scheduled
// inside the reservation by fixed priority (the paper's Sec. 3.2
// multi-task configuration, Rate Monotonic if priorities are assigned
// by rate).
type Server struct {
	name  string
	id    int
	sched *Scheduler
	mode  Mode

	budget simtime.Duration // Q
	period simtime.Duration // T

	q     simtime.Duration // remaining budget
	d     simtime.Time     // current scheduling deadline
	state serverState

	tasks []*Task

	replenishEv sim.Timer
	replenishFn func() // replenishment callback, allocated once
	heapIndex   int    // position in the EDF ready heap, -1 if absent

	stats          ServerStats
	throttledSince simtime.Time
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Budget returns the configured budget Q.
func (s *Server) Budget() simtime.Duration { return s.budget }

// Period returns the configured period T.
func (s *Server) Period() simtime.Duration { return s.period }

// Mode returns the budget-exhaustion behaviour.
func (s *Server) Mode() Mode { return s.mode }

// Bandwidth returns Q/T.
func (s *Server) Bandwidth() float64 {
	if s.period <= 0 {
		return 0
	}
	return float64(s.budget) / float64(s.period)
}

// Deadline returns the current scheduling deadline.
func (s *Server) Deadline() simtime.Time { return s.d }

// RemainingBudget returns the budget left in the current period,
// accounting for the in-progress slice if the server is running.
func (s *Server) RemainingBudget() simtime.Duration {
	q := s.q
	if s.sched.runServer == s {
		q -= s.sched.now().Sub(s.sched.runStart)
	}
	return q
}

// Consumed returns the total CPU time delivered through this server
// since creation, including the in-progress slice. This is the
// reproduction's equivalent of AQuoSA's qres_get_time() sensor used by
// the LFS++ controller.
func (s *Server) Consumed() simtime.Duration {
	c := s.stats.Consumed
	if s.sched.runServer == s {
		c += s.sched.now().Sub(s.sched.runStart)
	}
	return c
}

// Stats returns a snapshot of the server statistics (Consumed includes
// the in-progress slice).
func (s *Server) Stats() ServerStats {
	st := s.stats
	if s.sched.runServer == s {
		st.Consumed += s.sched.now().Sub(s.sched.runStart)
	}
	if s.state == srvThrottled {
		st.ThrottledTime += s.sched.now().Sub(s.throttledSince)
	}
	return st
}

// Tasks returns the attached tasks.
func (s *Server) Tasks() []*Task { return s.tasks }

// SetParams changes the reservation to (Q, T). This is the actuator
// used by the feedback controllers. The change is immediate, mirroring
// AQuoSA's qres_set_params(): the remaining budget is adjusted by the
// budget delta (clamped to [0, Q]) and, if the server was throttled and
// now has budget again, it resumes competing at its current deadline.
func (s *Server) SetParams(budget, period simtime.Duration) {
	if budget <= 0 || period <= 0 || budget > period {
		panic(fmt.Sprintf("sched: invalid reservation Q=%v T=%v", budget, period))
	}
	s.sched.suspend() // settle running-slice accounting before mutating q
	delta := budget - s.budget
	s.budget = budget
	s.period = period
	s.q += delta
	if s.q < 0 {
		s.q = 0
	}
	if s.q > budget {
		s.q = budget
	}
	if s.sched.log != nil {
		s.sched.trace(EvParamChange, nil, "srv=%s Q=%v T=%v", s.name, budget, period)
	}
	if s.state == srvThrottled && s.q > 0 {
		s.unthrottle()
	} else if s.state == srvThrottled && s.replenishEv.Pending() {
		// Keep waiting; replenishment amount will use the new Q.
	}
	s.sched.dispatch()
}

// runnableTask returns the highest-priority runnable attached task,
// or nil. Priority ties break by attachment order.
func (s *Server) runnableTask() *Task {
	var best *Task
	for _, t := range s.tasks {
		if !t.runnable() {
			continue
		}
		if best == nil || t.prio < best.prio {
			best = t
		}
	}
	return best
}

// taskWoke is called when an attached task transitions idle->runnable.
// It applies the CBS wake-up rule and makes the server ready.
func (s *Server) taskWoke(now simtime.Time) {
	if s.state != srvIdle {
		return // already ready or throttled; nothing to do
	}
	s.wakeupRule(now)
	if s.q == 0 {
		s.throttle(now)
		return
	}
	s.state = srvReady
	s.sched.edfPush(s)
	if s.sched.log != nil {
		s.sched.trace(EvWakeup, nil, "srv=%s d=%v q=%v", s.name, s.d, s.q)
	}
}

// wakeupRule applies the CBS wake-up rule at now: the current pair
// (q, d) may be reused only if it cannot break the bandwidth guarantee,
// i.e. if q <= (d-now)*Q/T. Otherwise the server gets a fresh budget
// and deadline.
func (s *Server) wakeupRule(now simtime.Time) {
	if s.d > now && s.pairSafe(now) {
		return
	}
	s.q = s.budget
	s.d = now.Add(s.period)
	s.stats.Replenishments++
	if s.sched.log != nil {
		s.sched.trace(EvReplenish, nil, "srv=%s wakeup q=%v d=%v", s.name, s.q, s.d)
	}
}

// pairSafe reports whether reusing (q, d) at instant now respects the
// server bandwidth: q <= (d-now) * Q/T, computed without overflow for
// realistic magnitudes (budgets and periods well under an hour).
func (s *Server) pairSafe(now simtime.Time) bool {
	lead := int64(s.d.Sub(now))
	return int64(s.q)*int64(s.period) <= lead*int64(s.budget)
}

// exhaust handles budget depletion while work is still pending.
func (s *Server) exhaust(now simtime.Time) {
	s.stats.Exhaustions++
	if s.sched.log != nil {
		s.sched.trace(EvExhaust, nil, "srv=%s d=%v", s.name, s.d)
	}
	if s.sched.exhaustBus != nil {
		s.sched.exhaustBus(s, now)
	}
	switch s.mode {
	case SoftCBS:
		s.q = s.budget
		s.d = s.d.Add(s.period)
		s.stats.Replenishments++
		if s.heapIndex >= 0 {
			s.sched.edfFix(s)
		} else {
			s.state = srvReady
			s.sched.edfPush(s)
		}
	case HardCBS:
		s.throttle(now)
	}
}

// throttle suspends a hard server until its current deadline, at which
// point the budget is replenished and the deadline postponed.
func (s *Server) throttle(now simtime.Time) {
	if s.heapIndex >= 0 {
		s.sched.edfRemove(s)
	}
	s.state = srvThrottled
	s.throttledSince = now
	when := s.d
	if when <= now {
		// Deadline already passed (e.g. long throttling after a
		// parameter shrink): replenish one period from now.
		when = now.Add(s.period)
		s.d = when
	}
	if s.sched.log != nil {
		s.sched.trace(EvThrottle, nil, "srv=%s until=%v", s.name, when)
	}
	s.replenishEv = s.sched.engine.At(when, s.replenishFn)
}

// replenish fires at the deadline of a throttled hard server.
func (s *Server) replenish() {
	now := s.sched.now()
	s.stats.ThrottledTime += now.Sub(s.throttledSince)
	s.q = s.budget
	s.d = s.d.Add(s.period)
	s.stats.Replenishments++
	if s.sched.log != nil {
		s.sched.trace(EvReplenish, nil, "srv=%s q=%v d=%v", s.name, s.q, s.d)
	}
	if s.runnableTask() != nil {
		s.state = srvReady
		s.sched.edfPush(s)
	} else {
		s.state = srvIdle
	}
	s.sched.dispatch()
}

// unthrottle resumes a throttled server that regained budget through
// SetParams, keeping its current deadline.
func (s *Server) unthrottle() {
	now := s.sched.now()
	s.stats.ThrottledTime += now.Sub(s.throttledSince)
	if s.replenishEv.Pending() {
		s.sched.engine.Cancel(s.replenishEv)
		s.replenishEv = sim.Timer{}
	}
	if s.runnableTask() != nil {
		s.state = srvReady
		s.sched.edfPush(s)
	} else {
		s.state = srvIdle
	}
}

// maybeIdle transitions the server to idle if nothing is runnable.
func (s *Server) maybeIdle() {
	if s.state == srvReady && s.runnableTask() == nil {
		if s.heapIndex >= 0 {
			s.sched.edfRemove(s)
		}
		s.state = srvIdle
	}
}

// String implements fmt.Stringer.
func (s *Server) String() string {
	return fmt.Sprintf("srv(%s Q=%v T=%v %v)", s.name, s.budget, s.period, s.mode)
}
