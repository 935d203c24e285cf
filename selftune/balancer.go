package selftune

// Cross-core load balancing, split into mechanism and policy. The
// paper's Sec. 6 names the cooperation between load balancing and
// adaptive reservations an open research issue; this file is the
// policy seam of an answer.
//
// The System owns the mechanism: on every balance tick (and on a
// failed admission) it freezes an immutable Snapshot of the machine —
// per-core loads and bounds plus the list of migration *units* — hands
// it to the configured Balancer, and executes the returned moves
// through the migration machinery of internal/smp and internal/sched
// (batched per destination, all-or-nothing per unit, a tuner's
// registration with the destination supervisor claimed before the unit
// leaves its core, so a rejection moves nothing).
//
// A migration unit is the set of CBS servers and tasks that must
// change cores together: a tuned workload (one server), a TuneShared
// group (one shared server carrying every member task), both with a
// tuner to rehome (core.Tuner.Rehome), an untuned
// multi-reservation load like "rtload" (all its servers, nothing to
// rehome), or an unreserved request server (its bare best-effort
// task). Every workload kind is migratable once it has substance on
// its core.
//
// The Balancer is an interface, so policies are pluggable: the
// built-ins (BalanceReactive, BalanceWorkStealing and, in topology.go,
// BalanceTopologyAware) cover pull, multi-migration de-consolidation
// and cost-based placement through one greedy planner (planPush), and
// WithBalancer accepts any user implementation.
//
// With any balancer configured, admission is machine-wide: a spawn
// that fails worst-fit placement builds an admission Snapshot (its
// PendingHint set to the hint that failed), lets the policy plan
// room-making moves, and retries placement once — so the machine
// admits task sets that frozen spawn-time placement cannot.

import (
	"fmt"
	"sort"

	"repro/internal/sched"
	"repro/internal/smp"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

// Balancer plans cross-core migrations. Plan receives an immutable
// Snapshot of the machine and returns the moves to perform; the System
// executes them (and ignores moves that fail admission on their
// destination). Plan runs on the simulation goroutine; it must not
// touch the System directly — everything it may use is in the
// Snapshot. The snapshot's slices reuse the System's planning buffers
// and are valid only for the duration of the call: a policy that
// keeps planning state across calls must copy what it retains.
type Balancer interface {
	// Name identifies the policy in reports.
	Name() string
	// Plan returns the moves for one balancing opportunity. Returning
	// nil (or an empty slice) leaves placement untouched.
	Plan(snap Snapshot) []Move
}

// Plan-trigger reasons, found in Snapshot.Reason.
const (
	// PlanPeriodic marks the regular balance tick (WithBalanceInterval).
	PlanPeriodic = "periodic"
	// PlanAdmissionReason marks a plan requested because a spawn failed
	// worst-fit placement; Snapshot.PendingHint carries the hint that
	// needs room.
	PlanAdmissionReason = "admission"
)

// Snapshot is the immutable view of the machine a Balancer plans over.
type Snapshot struct {
	// At is the simulated planning instant.
	At Time
	// Reason is the plan trigger: PlanPeriodic or PlanAdmissionReason.
	Reason string
	// Threshold is the configured load-spread threshold
	// (WithBalanceThreshold) below which the machine counts as
	// balanced.
	Threshold float64
	// PendingHint is the placement hint of the spawn that failed, for
	// admission plans; zero otherwise.
	PendingHint float64
	// Loads is the per-core effective load: the larger of the
	// placement-hint account and the actually reserved bandwidth.
	Loads []float64
	// Reserved is the per-core actually reserved bandwidth (Σ Q/T).
	Reserved []float64
	// ULub is the per-core supervisor utilisation bound.
	ULub []float64
	// Domain is the per-core cache/NUMA domain index (all zero without
	// WithTopology). Distance derives migration cost from it.
	Domain []int
	// Units are the machine's migration units; Move references them by
	// index.
	Units []Unit
}

// Distance returns the migration distance between two cores: 0 within
// a cache/NUMA domain, 1 across domains. Out-of-range cores (and
// machines without a topology) are distance 0.
func (s Snapshot) Distance(a, b int) int {
	if a < 0 || b < 0 || a >= len(s.Domain) || b >= len(s.Domain) {
		return 0
	}
	if s.Domain[a] == s.Domain[b] {
		return 0
	}
	return 1
}

// Unit is one migration unit of a Snapshot: the set of CBS servers
// (and bare tasks) one workload — or one shared-reservation group —
// must move as.
type Unit struct {
	// ID is the unit's index in Snapshot.Units (and the value
	// Move.Unit refers to). IDs are only meaningful within their
	// snapshot.
	ID int
	// Name is the workload instance name (the group's first member for
	// shared groups).
	Name string
	// Kind is the registry kind, or "shared" for a TuneShared group.
	Kind string
	// Core is where the unit currently runs.
	Core int
	// Hint is the placement-account bandwidth the unit carries.
	Hint float64
	// Reserved is the summed reserved bandwidth of the unit's servers.
	Reserved float64
	// Charge is what a migration of the unit is admission-checked
	// against: the larger of Hint and Reserved.
	Charge float64
	// Servers and Tasks count the unit's CBS servers and bare
	// best-effort tasks.
	Servers int
	Tasks   int
	// Migratable reports whether the unit can move at all (it has
	// substance on its core; an unstarted multi-reservation load does
	// not yet).
	Migratable bool
}

// Move is one planned migration: Snapshot.Units[Unit] moves to core
// To. Reason, when non-empty, overrides the snapshot reason on the
// published MigrationEvent.
type Move struct {
	Unit   int
	To     int
	Reason string
}

// spread returns max(loads) - min(loads).
func spread(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	lo, hi := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	return hi - lo
}

// --- Built-in policies ----------------------------------------------

// sustainedTicks is how many consecutive imbalanced balance ticks the
// reactive policy requires before pulling: one noisy interval (e.g. a
// workload's cold-start reservation) must not bounce tasks around.
const sustainedTicks = 3

// stealMax bounds how many units one cold core may claim per
// work-stealing tick.
const stealMax = 8

type reactiveBalancer struct {
	streak int
}

// BalanceReactive returns the pull-migration policy: only a sustained
// imbalance — three consecutive balance ticks over the threshold —
// makes the coldest core pull one unit from the hottest, so transient
// load spikes never bounce tasks around.
func BalanceReactive() Balancer { return &reactiveBalancer{} }

func (*reactiveBalancer) Name() string { return "reactive" }

func (b *reactiveBalancer) Plan(snap Snapshot) []Move {
	if snap.Reason == PlanAdmissionReason {
		return PlanAdmission(snap)
	}
	if spread(snap.Loads) > snap.Threshold {
		b.streak++
	} else {
		b.streak = 0
	}
	if b.streak < sustainedTicks {
		return nil
	}
	b.streak = 0
	return planPush(snap, 1, "imbalance", 0)
}

type workStealingBalancer struct{}

// BalanceWorkStealing returns the multi-migration de-consolidation
// policy: on every tick, each under-loaded core claims up to stealMax
// units from the overloaded ones until the planned spread drops under
// the threshold. Where the single-move policies need one tick per
// migration (a 64-core recovery at 9 moves in 2s), a stealing plan
// de-consolidates a fully pinned machine in one or two ticks.
func BalanceWorkStealing() Balancer { return workStealingBalancer{} }

func (workStealingBalancer) Name() string { return "work-stealing" }

func (workStealingBalancer) Plan(snap Snapshot) []Move {
	if snap.Reason == PlanAdmissionReason {
		return PlanAdmission(snap)
	}
	return planPush(snap, stealMax*len(snap.Loads), "steal", 0)
}

// planPush is the one greedy planner behind the built-in policies: it
// repeatedly moves the best (unit, destination) pair off the
// planned-hottest core, scored
//
//	score = charge × (1 − cost × distance)
//
// until the gap to the planned-coldest core still allowed to claim is
// within the threshold, or max moves are planned. A candidate must
// reduce the pairwise imbalance (charge under the gap: moving more
// would just invert it) and fit the destination's bound; ties go to
// the colder destination, so one node fills evenly. With cost > 0,
// shared-reservation groups (TuneShared) never leave their domain.
// Each destination claims at most stealMax units per plan, so a single
// cold core cannot soak up the whole plan.
func planPush(snap Snapshot, max int, reason string, cost float64) []Move {
	loads := append([]float64(nil), snap.Loads...)
	unitCore := make([]int, len(snap.Units))
	for i, u := range snap.Units {
		unitCore[i] = u.Core
	}
	used := make([]bool, len(snap.Units))
	claims := make([]int, len(loads))
	var moves []Move
	for len(moves) < max {
		hi, lo := -1, -1
		for i, l := range loads {
			if hi < 0 || l > loads[hi] {
				hi = i
			}
			if claims[i] < stealMax && (lo < 0 || l < loads[lo]) {
				lo = i
			}
		}
		if lo < 0 || loads[hi]-loads[lo] <= snap.Threshold {
			break
		}
		best, bestDest, bestScore := -1, -1, 0.0
		for i, u := range snap.Units {
			if used[i] || unitCore[i] != hi || !u.Migratable || u.Charge <= 0 {
				continue
			}
			for dest := range loads {
				if dest == hi || claims[dest] >= stealMax || u.Charge >= loads[hi]-loads[dest] ||
					loads[dest]+u.Charge > snap.ULub[dest]+1e-9 {
					continue
				}
				dist := snap.Distance(hi, dest)
				if cost > 0 && dist > 0 && u.Kind == "shared" {
					continue
				}
				score := u.Charge * (1 - cost*float64(dist))
				if best >= 0 && (score < bestScore || (score == bestScore && loads[dest] >= loads[bestDest])) {
					continue
				}
				best, bestDest, bestScore = i, dest, score
			}
		}
		if best < 0 {
			break
		}
		// A non-positive score still moves: the gap is above the
		// threshold and this is the cheapest step down, the cross-node
		// fallback when the hot core's own node has no room left.
		charge := snap.Units[best].Charge
		used[best] = true
		unitCore[best] = bestDest
		loads[hi] -= charge
		loads[bestDest] += charge
		claims[bestDest]++
		moves = append(moves, Move{Unit: best, To: bestDest, Reason: reason})
	}
	return moves
}

// PlanAdmission is the room-making plan the built-in policies share
// (and custom policies may reuse): one migration that defragments the
// machine so a spawn whose worst-fit placement failed — its hint is
// Snapshot.PendingHint — fits somewhere. Targets are tried from least
// loaded up, and the smallest sufficient unit is moved to the core
// with the most room — least disruption first. It returns nil when no
// single migration makes room.
func PlanAdmission(snap Snapshot) []Move {
	hint := snap.PendingHint
	if hint <= 0 {
		return nil
	}
	order := make([]int, len(snap.Loads))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return snap.Loads[order[a]] < snap.Loads[order[b]] })
	for _, target := range order {
		needed := snap.Loads[target] + hint - snap.ULub[target]
		if needed <= 0 {
			// Place would have taken this core already; stale account.
			continue
		}
		// Smallest migratable unit on target that frees enough room and
		// fits somewhere else. "Frees enough" must hold on both halves
		// of the effective-load account: the unit's hint is what
		// actually leaves the placement account, and the reserved side
		// must also end up under the bound once the unit's servers are
		// gone — a bigger migration charge alone can free less room
		// than it suggests.
		reservedAfterSpawn := snap.Reserved[target] + hint
		pick, pickCharge, pickDest := -1, 0.0, -1
		for i, u := range snap.Units {
			if u.Core != target || !u.Migratable {
				continue
			}
			if u.Hint < needed-1e-9 {
				continue
			}
			if reservedAfterSpawn-u.Reserved > snap.ULub[target]+1e-9 {
				continue
			}
			if pick >= 0 && u.Charge >= pickCharge {
				continue
			}
			// Destination with the most room that can take it.
			dest, destRoom := -1, 0.0
			for d := range snap.Loads {
				if d == target {
					continue
				}
				room := snap.ULub[d] - snap.Loads[d]
				if room > destRoom && snap.Loads[d]+u.Charge <= snap.ULub[d]+1e-9 {
					dest, destRoom = d, room
				}
			}
			if dest < 0 {
				continue
			}
			pick, pickCharge, pickDest = i, u.Charge, dest
		}
		if pick >= 0 {
			return []Move{{Unit: pick, To: pickDest, Reason: "admission"}}
		}
	}
	return nil
}

// --- Mechanism: units, snapshots, execution -------------------------

// sharedGroup ties the handles of one TuneShared application, which
// share one tuner and its reservation; the group migrates as one unit.
type sharedGroup struct {
	handles []*Handle
	seenGen uint64 // last units() enumeration that visited the group
}

// migUnit is the live counterpart of a snapshot Unit: the sched.Group
// to move, the handles whose cores to update and the tuner to rehome,
// if any.
type migUnit struct {
	name    string
	kind    string
	core    int
	hint    float64
	group   sched.Group
	handles []*Handle
	tuner   *Tuner
}

// unitFor builds the live migration unit containing h: its shared
// group when it has one, otherwise the handle alone.
func (s *System) unitFor(h *Handle) *migUnit {
	u := new(migUnit)
	u.set(h)
	return u
}

// set makes u the migration unit containing h, reusing u's slices.
// The handle and server lists are copied in, never aliased: a shared
// group's handles and a workload's Servers() belong to their owners,
// and the next set appends over u's storage.
func (u *migUnit) set(h *Handle) {
	*u = migUnit{
		handles: u.handles[:0],
		group:   sched.Group{Servers: u.group.Servers[:0], Tasks: u.group.Tasks[:0]},
	}
	if g := h.shared; g != nil {
		lead := g.handles[0]
		u.name, u.kind, u.core, u.tuner = lead.Name(), "shared", lead.core, lead.tuner
		u.group.Servers = append(u.group.Servers, lead.tuner.Server())
		u.handles = append(u.handles, g.handles...)
		for _, m := range g.handles {
			u.hint += m.hint
		}
		return
	}
	u.name, u.kind, u.core, u.hint, u.tuner = h.Name(), h.kind, h.core, h.hint, h.tuner
	u.handles = append(u.handles, h)
	if h.tuner != nil {
		u.group.Servers = append(u.group.Servers, h.tuner.Server())
		return
	}
	// Untuned: the workload's own reservations (a started multi-server
	// load), or its single server or bare task.
	if sb, ok := h.w.(interface{ Servers() []*sched.Server }); ok {
		u.group.Servers = append(u.group.Servers, sb.Servers()...)
	} else if tn, ok := h.w.(Tunable); ok {
		if t := tn.Task(); t != nil {
			if t.Server() != nil {
				u.group.Servers = append(u.group.Servers, t.Server())
			} else {
				u.group.Tasks = append(u.group.Tasks, t)
			}
		}
	}
}

// carryLane moves a unit's lane-bound state after its reservations and
// tuner moved from core `from` of src to core `to` of dst: each member
// workload's self-timers re-arm on the destination engine and its sink
// repoints at the destination tracer (LaneMover), the tasks'
// undownloaded syscall evidence follows them between tracers (so the
// period analyser loses nothing), the unit's tuner downloads from the
// destination tracer, and the request publishers report the new core
// and System. It runs with every engine involved at rest.
//
// A move that keeps both engine and tracer — a migration within a
// single-engine System — carries nothing: MoveLane would overwrite a
// custom sink, draining and re-injecting into the one shared ring
// would reorder it, and request events keep reporting the spawn core.
func carryLane(u *migUnit, src *System, from int, dst *System, to int) {
	srcBuf, dstEng, dstBuf := src.tracers[from], dst.engines[to], dst.tracers[to]
	if src.engines[from] == dstEng && srcBuf == dstBuf {
		return
	}
	for _, h := range u.handles {
		if lm, ok := h.w.(workload.LaneMover); ok {
			lm.MoveLane(dstEng, dstBuf)
		}
		h.ctx.sys, h.ctx.core = dst, to
	}
	for _, srv := range u.group.Servers {
		for _, t := range srv.Tasks() {
			dstBuf.Inject(srcBuf.DrainPID(t.PID()))
		}
	}
	for _, t := range u.group.Tasks {
		dstBuf.Inject(srcBuf.DrainPID(t.PID()))
	}
	if u.tuner != nil {
		u.tuner.SetTracer(dstBuf)
	}
}

// units enumerates the machine's migration units in spawn order,
// shared groups collapsed to one unit each. The enumeration runs on
// every balance tick, so it allocates only to grow: the units and
// their slices live in per-System storage, rebuilt in place, and the
// result is only valid until the next call. Group dedup uses a
// generation counter instead of a per-call map.
func (s *System) units() []*migUnit {
	s.unitsGen++
	n := 0
	for _, h := range s.handles {
		if h.shared != nil {
			if h.shared.seenGen == s.unitsGen {
				continue
			}
			h.shared.seenGen = s.unitsGen
		}
		if n == len(s.unitsBuf) {
			s.unitsBuf = append(s.unitsBuf, new(migUnit))
		}
		s.unitsBuf[n].set(h)
		n++
	}
	return s.unitsBuf[:n]
}

// snapshot freezes the planning view over the given live units. The
// snapshot's slices reuse per-System buffers: it is valid for the
// duration of the Plan call it feeds, and a policy that keeps
// planning state across calls must copy what it retains.
func (s *System) snapshot(reason string, pendingHint float64, units []*migUnit) Snapshot {
	n := s.machine.Cores()
	if cap(s.snapUnits) < len(units) {
		s.snapUnits = make([]Unit, len(units))
	}
	if s.domainMap == nil {
		s.domainMap = s.machine.DomainMap()
	}
	snap := Snapshot{
		At:          s.engine.Now(),
		Reason:      reason,
		Threshold:   s.bal.threshold,
		PendingHint: pendingHint,
		Loads:       s.machine.LoadsInto(s.snapLoads[:0]),
		Reserved:    s.snapReserved[:0],
		ULub:        s.snapULub[:0],
		Domain:      s.domainMap,
		Units:       s.snapUnits[:len(units)],
	}
	for i := 0; i < n; i++ {
		snap.Reserved = append(snap.Reserved, s.machine.Core(i).TotalReservedBandwidth())
		snap.ULub = append(snap.ULub, s.machine.Supervisor(i).ULub())
	}
	s.snapLoads, s.snapReserved, s.snapULub = snap.Loads, snap.Reserved, snap.ULub
	for i, u := range units {
		reserved := u.group.Bandwidth()
		snap.Units[i] = Unit{
			ID:         i,
			Name:       u.name,
			Kind:       u.kind,
			Core:       u.core,
			Hint:       u.hint,
			Reserved:   reserved,
			Charge:     smp.Charge(u.hint, reserved),
			Servers:    len(u.group.Servers),
			Tasks:      len(u.group.Tasks),
			Migratable: !u.group.Empty(),
		}
	}
	return snap
}

// balancer is the System's policy driver: the configured Balancer plus
// the mechanism knobs.
type balancer struct {
	sys       *System
	policy    Balancer
	every     Duration
	threshold float64
}

// start arms the balance tick on the System's engine.
func (b *balancer) start() {
	var tick func()
	tick = func() {
		b.sys.runBalancer(PlanPeriodic, 0)
		b.sys.engine.After(b.every, tick)
	}
	b.sys.engine.After(b.every, tick)
}

// runBalancer drives one plan-and-execute cycle and returns how many
// units moved.
func (s *System) runBalancer(reason string, pendingHint float64) int {
	if s.bal == nil {
		return 0
	}
	units := s.units()
	snap := s.snapshot(reason, pendingHint, units)
	moves := s.bal.policy.Plan(snap)
	return s.execute(units, snap, moves)
}

// execute performs the planned moves, batched per destination core:
// each batch is one claiming core taking its units in a single tick,
// each unit moved on its own through the move protocol (a unit that
// fails admission or whose tuner the destination supervisor rejects
// stays where it was, and the batch goes on). Invalid moves —
// out-of-range indices, the unit's current core, immigratable units,
// duplicate units — are skipped. One MigrationBatchEvent per
// destination summarises the units that arrived.
func (s *System) execute(units []*migUnit, snap Snapshot, moves []Move) int {
	if len(moves) == 0 {
		return 0
	}
	cores := s.machine.Cores()
	if len(s.perDest) < cores {
		s.perDest = make([][]plannedMove, cores)
	}
	if len(s.takenBuf) < len(units) {
		s.takenBuf = make([]bool, len(units))
	}
	taken := s.takenBuf[:len(units)]
	for i := range taken {
		taken[i] = false
	}
	destOrder := s.destOrder[:0]
	for _, mv := range moves {
		if mv.Unit < 0 || mv.Unit >= len(units) {
			continue
		}
		u := units[mv.Unit]
		if taken[mv.Unit] || mv.To < 0 || mv.To >= cores || mv.To == u.core || u.group.Empty() {
			continue
		}
		taken[mv.Unit] = true
		reason := mv.Reason
		if reason == "" {
			reason = snap.Reason
		}
		if len(s.perDest[mv.To]) == 0 {
			destOrder = append(destOrder, mv.To)
		}
		s.perDest[mv.To] = append(s.perDest[mv.To], plannedMove{u: u, reason: reason})
	}
	s.destOrder = destOrder
	total := 0
	for _, dest := range destOrder {
		moved, reason := 0, ""
		for _, p := range s.perDest[dest] {
			if s.move(p.u, dest, p.reason) != nil {
				continue
			}
			if moved == 0 {
				reason = p.reason
			}
			moved++
		}
		if moved > 0 {
			total += moved
			s.publish(&Event{
				Kind:   MigrationBatchEvent,
				At:     s.engine.Now(),
				Core:   dest,
				From:   -1,
				Reason: reason,
				Count:  moved,
			})
		}
	}
	// Reset the per-destination staging for the next plan, dropping
	// the unit references so retired workloads can be collected.
	for _, dest := range destOrder {
		batch := s.perDest[dest]
		for i := range batch {
			batch[i] = plannedMove{}
		}
		s.perDest[dest] = batch[:0]
	}
	return total
}

// plannedMove is one validated move of an execute batch.
type plannedMove struct {
	u      *migUnit
	reason string
}

// move migrates one unit to core `to` of this System (moveUnit) and
// publishes the MigrationEvent — the move behind Migrate and the
// balancer's batches.
func (s *System) move(u *migUnit, to int, reason string) error {
	from := u.core
	if err := s.moveUnit(u, s, to); err != nil {
		return err
	}
	s.publish(&Event{
		Kind:   MigrationEvent,
		At:     s.engine.Now(),
		Core:   to,
		From:   from,
		Source: u.name,
		Reason: reason,
	})
	return nil
}

// moveUnit moves one unit from its core of s to core `to` of dst — the
// one transaction behind Migrate, the balancer's batches and Transfer.
// The unit's reservations move admission-checked, with its tuner's
// registration with the destination supervisor as the move's claim
// (smp.MoveGroup); a refusal leaves both machines as they were. Then
// the tuner switches to the new claim and core, its tick publisher,
// which captured the previous core, is rebuilt so TunerTickEvents
// report where the workload now runs, the lane-bound state follows
// (carryLane) and the unit's handles record their new core.
func (s *System) moveUnit(u *migUnit, dst *System, to int) error {
	from := u.core
	var claim func() error
	var client *supervisor.Client
	if u.tuner != nil {
		claim = func() (err error) {
			client, err = u.tuner.Claim(dst.machine.Supervisor(to))
			return err
		}
	}
	if err := smp.MoveGroup(u.group, s.machine, from, dst.machine, to, u.hint, claim); err != nil {
		return err
	}
	if u.tuner != nil {
		u.tuner.Rehome(dst.machine.Core(to), dst.machine.Supervisor(to), client)
		u.tuner.BusTick = dst.tickPublisher(to, u.tuner.Task().Name())
	}
	carryLane(u, s, from, dst, to)
	u.core = to
	for _, h := range u.handles {
		h.core = to
	}
	dst.migrated++
	return nil
}

// Migratable reports whether the handle can move between cores: it
// has substance to carry — a tuned reservation, a shared-group
// reservation, its own untuned servers, or a bare best-effort task.
// An unstarted multi-reservation load is the one thing that cannot
// move yet (its reservations do not exist until Start).
func (h *Handle) Migratable() bool {
	if h.sys == nil {
		return false
	}
	return !h.sys.unitFor(h).group.Empty()
}

// Migrate moves a workload — and everything that must travel with it:
// its reservations with their remaining budgets and deadlines, its
// tasks, its shared group, its tuner registration — to another core.
// Migrating any member of a TuneShared group moves the whole group.
// On error nothing has moved.
func (s *System) Migrate(h *Handle, to int) error {
	if h == nil || h.sys != s {
		return fmt.Errorf("selftune: Migrate of a handle from another System")
	}
	if to < 0 || to >= s.machine.Cores() {
		return fmt.Errorf("selftune: Migrate %q to core %d out of [0,%d)", h.Name(), to, s.machine.Cores())
	}
	u := s.unitFor(h)
	if to == u.core {
		return fmt.Errorf("selftune: Migrate %q within core %d", h.Name(), to)
	}
	if u.group.Empty() {
		return fmt.Errorf("selftune: workload %q (%s) has nothing to migrate yet (start it first)",
			h.Name(), h.Kind())
	}
	return s.move(u, to, "manual")
}

// Migrations returns the number of units moved onto this System's
// cores so far (by any policy, admission passes, manual Migrate calls
// and Transfers received). A move refused at any step — for example
// because the destination supervisor rejected the tuner — does not
// count; a group counts once.
func (s *System) Migrations() int { return s.migrated }

// Balancer returns the System's balancing policy, or nil when
// placement is frozen at spawn time (the default).
func (s *System) Balancer() Balancer {
	if s.bal == nil {
		return nil
	}
	return s.bal.policy
}
