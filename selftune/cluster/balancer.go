package cluster

// The fleet balancer reuses the machine-level Balancer seam one level
// up: a policy plans over an immutable FleetSnapshot and returns
// Placements, and the Cluster executes them. A Placement between two
// detail machines is live whenever the job can carry its state: the
// job's CBS server — tasks, remaining budget, absolute deadline,
// throttle state, undownloaded syscall evidence, tuner sampling tick —
// transfers from source machine to destination at the same simulated
// instant (selftune.System.Transfer). Jobs from placement-only
// machines (never started), jobs that cannot carry their state (an
// unstarted multi-reservation load, kinds without lane-movable timers)
// and transfers the destination refuses fall back to despawn/respawn.
// Within a machine, the per-machine selftune.Balancer still performs
// state-carrying migrations between cores.

import (
	"cmp"
	"slices"

	"repro/selftune"
)

// JobStat is one resident job as a fleet policy sees it.
type JobStat struct {
	// ID identifies the job for Placement.Job. IDs are stable for the
	// job's lifetime.
	ID int
	// Realm is the owning realm's name.
	Realm string
	// Kind is the registered workload kind.
	Kind string
	// Machine is the machine index the job currently occupies.
	Machine int
	// Hint is the placement bandwidth the job is charged, in fractions
	// of one core.
	Hint float64
}

// FleetSnapshot is the immutable view of the cluster a ClusterBalancer
// plans over.
type FleetSnapshot struct {
	// At is the planning instant.
	At selftune.Time
	// MachineCap is one machine's capacity in core-equivalents
	// (cores x U_lub; the fleet is homogeneous).
	MachineCap float64
	// MachineUsed is the per-machine sum of resident jobs' hints.
	MachineUsed []float64
	// MachineLoads is the per-machine mean effective core load as the
	// machines themselves report it (reservations included on machines
	// running their workloads).
	MachineLoads []float64
	// Realms is the per-realm accounting at planning time.
	Realms []RealmStats
	// Jobs is every resident job, sorted by ID.
	Jobs []JobStat
}

// Placement is one planned re-placement: job Job moves to machine To.
// The executor live-migrates every job that can carry its state and
// respawns the rest (see Cluster.rebalance).
type Placement struct {
	Job int
	To  int
	// Reason annotates the published MigrationEvent: FleetWorstFit
	// emits "drain-hot", BalanceSLOAware "slo-steal". Empty falls back
	// to "fleet".
	Reason string
}

// ClusterBalancer plans cross-machine re-placements. Plan runs
// synchronously in the cluster tick; it must not touch the Cluster
// directly — everything it may use is in the FleetSnapshot. The
// snapshot's slices reuse the cluster's planning buffers and are
// valid only for the duration of the call: a policy that keeps
// planning state across calls must copy what it retains. Placements
// that no longer apply (departed job, full destination) are skipped,
// not errors.
type ClusterBalancer interface {
	// Name identifies the policy in reports.
	Name() string
	// Plan returns the re-placements for one balancing opportunity.
	// The returned slice may reuse the policy's own planning buffer
	// (the built-ins do): it is valid only until the next Plan call.
	Plan(snap FleetSnapshot) []Placement
}

// FleetWorstFit returns the built-in fleet policy: while the
// most-loaded machine exceeds the least-loaded by more than threshold
// (in fractions of one machine's capacity), move the job that best
// fills half the gap from the former to the latter, up to maxMoves
// re-placements per plan. The fleet analogue of the machine-level push
// policies; its placements carry Reason "drain-hot".
func FleetWorstFit(threshold float64, maxMoves int) ClusterBalancer {
	if threshold <= 0 {
		threshold = 0.1
	}
	if maxMoves <= 0 {
		maxMoves = 8
	}
	return &fleetWorstFit{threshold: threshold, maxMoves: maxMoves}
}

// fleetPlan is the scaffold both built-in fleet policies plan
// through: a working copy of the hint ledger and the moves planned so
// far, which are also the IDs a policy may not plan twice. Plan runs
// every fleet tick, so both buffers are reused and a warm Plan
// allocates nothing.
type fleetPlan struct {
	used []float64
	plan []Placement
}

// start resets the scaffold for one Plan call and returns the ledger
// copy.
func (p *fleetPlan) start(snap FleetSnapshot) []float64 {
	p.used = append(p.used[:0], snap.MachineUsed...)
	p.plan = p.plan[:0]
	return p.used
}

// planned reports whether job id already moves in this plan.
func (p *fleetPlan) planned(id int) bool {
	return slices.ContainsFunc(p.plan, func(m Placement) bool { return m.Job == id })
}

// move plans job id (charged hint) from machine from to machine to,
// shifting the ledger copy.
func (p *fleetPlan) move(id, from, to int, hint float64, reason string) {
	p.plan = append(p.plan, Placement{Job: id, To: to, Reason: reason})
	p.used[from] -= hint
	p.used[to] += hint
}

// sorted returns the plan ordered by job ID. A plan never holds an ID
// twice, so the unstable sort has one result.
func (p *fleetPlan) sorted() []Placement {
	slices.SortFunc(p.plan, func(a, b Placement) int { return cmp.Compare(a.Job, b.Job) })
	return p.plan
}

type fleetWorstFit struct {
	threshold float64
	maxMoves  int
	fleetPlan
}

func (f *fleetWorstFit) Name() string { return "fleet-worst-fit" }

func (f *fleetWorstFit) Plan(snap FleetSnapshot) []Placement {
	if len(snap.MachineUsed) < 2 || snap.MachineCap <= 0 {
		return nil
	}
	used := f.start(snap)
	for len(f.plan) < f.maxMoves {
		hot, cold := 0, 0
		for i := range used {
			if used[i] > used[hot] {
				hot = i
			}
			if used[i] < used[cold] {
				cold = i
			}
		}
		gap := (used[hot] - used[cold]) / snap.MachineCap
		if gap <= f.threshold {
			break
		}
		// Best single job to shed: the largest hint that still fits in
		// half the gap (moving more would overshoot and oscillate).
		// snap.Jobs is sorted by ID, so the scan keeps the smallest ID
		// on equal hints.
		half := (used[hot] - used[cold]) / 2
		best := -1
		var bestHint float64
		for _, j := range snap.Jobs {
			if j.Machine != hot || j.Hint > half || f.planned(j.ID) {
				continue
			}
			if j.Hint > bestHint || (j.Hint == bestHint && (best < 0 || j.ID < best)) {
				best, bestHint = j.ID, j.Hint
			}
		}
		if best < 0 {
			break // nothing on the hot machine fits the gap
		}
		if used[cold]+bestHint > snap.MachineCap {
			break
		}
		f.move(best, hot, cold, bestHint, "drain-hot")
	}
	return f.sorted()
}

// BalanceSLOAware returns the SLO-chasing fleet policy: instead of
// draining the hottest machine, it steals capacity *for the most
// tardy realm*. Realms with a latency objective are ranked by how far
// their observed p99 sits above the SLO threshold and by error-budget
// burn (RealmStats.ErrorBudgetBurn); the worst offender — if it is
// actually tardy — gets up to sloAwareMaxMoves of its jobs moved off
// the machines with the highest pressure (the worse of actual core
// load and hint mass per machine) onto the machines with the lowest.
// Planning on MachineLoads rather than the hint ledger alone is the
// point: a fleet can be perfectly balanced by hints while one
// tenant's requests queue behind real contention, which is invisible
// to FleetWorstFit. The policy is itself a feedback controller: after
// a wave of moves that fails to improve the realm's severity it backs
// off exponentially (severity is cumulative, so a surge already over
// would otherwise keep it churning to the horizon), and a recovered
// fleet resets it. Placements carry Reason "slo-steal" and default to
// live moves, so the tardy realm's jobs keep their budgets and
// evidence across the rescue.
func BalanceSLOAware() ClusterBalancer {
	return &sloAware{maxMoves: sloAwareMaxMoves}
}

// sloAwareMaxMoves bounds how many jobs one plan may move: a rescue
// relocates a few jobs per tick rather than thrashing the whole realm.
const sloAwareMaxMoves = 4

// sloAwareImprovement is the severity ratio a wave of moves must buy
// before the next planning opportunity to keep the full cadence; a
// wave that improves less backs the policy off exponentially.
const sloAwareImprovement = 0.95

// sloAwareMaxBackoff caps the exponential backoff, so a persistently
// tardy realm is still probed every so often.
const sloAwareMaxBackoff = 16

// sloAwareInflate multiplies the tardy realm's own hint mass in the
// planner's pressure ledger. A realm gets tardy precisely when its
// real demand is invisible to the ledgers (best-effort jobs hold no
// reservations, under-hinted jobs under-charge), so its hints are
// treated as understatements — without this the greedy loop funnels
// every tardy job onto the one reservation-cold machine and
// re-creates the contention it is fleeing.
const sloAwareInflate = 3

// sloAwareMargin is the minimum actual-load gap (in mean core load)
// between source and destination for a steal to be worth it.
const sloAwareMargin = 0.05

type sloAware struct {
	maxMoves int

	// Feedback state: lastSev is the severity observed when the last
	// wave of moves was planned; an unproductive wave doubles backoff
	// and sits out that many planning opportunities (skip).
	lastSev float64
	backoff int
	skip    int

	press []float64 // reused pressure ledger
	fleetPlan
}

func (b *sloAware) Name() string { return "slo-aware" }

func (b *sloAware) Plan(snap FleetSnapshot) []Placement {
	if len(snap.MachineLoads) < 2 || snap.MachineCap <= 0 {
		return nil
	}
	// Most tardy realm: severity is the worse of p99/threshold and
	// error-budget burn; only realms actually over the line (severity
	// > 1) qualify, so a healthy fleet plans nothing.
	tardy, worst := -1, 1.0
	for i := range snap.Realms {
		r := &snap.Realms[i]
		if r.SLOThreshold <= 0 || r.Requests == 0 {
			continue
		}
		sev := float64(r.LatencyP99) / float64(r.SLOThreshold)
		if burn := r.ErrorBudgetBurn(); burn > sev {
			sev = burn
		}
		if sev > worst {
			tardy, worst = i, sev
		}
	}
	if tardy < 0 {
		// Recovered (or never tardy): reset the feedback state so the
		// next incident starts at full cadence.
		b.lastSev, b.backoff, b.skip = 0, 0, 0
		return nil
	}
	if b.skip > 0 {
		b.skip--
		return nil
	}
	realm := snap.Realms[tardy].Name
	used := b.start(snap)
	// Pressure is the worse of the two ledgers per machine: the mean
	// core load (actual reservations — catches under-hinted jobs) and
	// the hint mass with the tardy realm's own share inflated (its
	// demand is the one the ledgers demonstrably missed). Planning on
	// loads alone would keep stacking the tardy realm's
	// reservation-free jobs onto the same reservation-cold machine
	// plan after plan — the moved mass has to count somewhere for the
	// greedy loop to converge, and to spread.
	press := append(b.press[:0], used...)
	for _, j := range snap.Jobs {
		if j.Realm == realm && j.Machine >= 0 && j.Machine < len(press) {
			press[j.Machine] += (sloAwareInflate - 1) * j.Hint
		}
	}
	for i, l := range snap.MachineLoads {
		if h := press[i] / snap.MachineCap; h > l {
			l = h
		}
		press[i] = l
	}
	b.press = press
	// loadShift approximates how much one job's hint moves a machine's
	// mean core load (MachineCap is cores x U_lub, so hint/MachineCap
	// is within U_lub of exact — plenty for greedy planning).
	loadShift := func(hint float64) float64 { return hint / snap.MachineCap }
	for len(b.plan) < b.maxMoves {
		cold := 0
		for i := range press {
			if press[i] < press[cold] {
				cold = i
			}
		}
		// The tardy realm's job on the machine with the highest
		// pressure — the job most likely queueing behind contention —
		// largest hint first so one move buys the most relief.
		best, bestFrom := -1, -1
		var bestHint float64
		for _, j := range snap.Jobs {
			if j.Realm != realm || j.Machine == cold || b.planned(j.ID) {
				continue
			}
			// The move must leave the source above the destination by
			// the margin even after the inflated mass lands — keeping
			// the ordering monotone is what rules out planning a job
			// back and forth.
			if press[j.Machine]-(press[cold]+loadShift(sloAwareInflate*j.Hint)) <= sloAwareMargin {
				continue
			}
			if used[cold]+j.Hint > snap.MachineCap {
				continue
			}
			hotter := bestFrom >= 0 && press[j.Machine] > press[bestFrom]
			sameHot := bestFrom >= 0 && press[j.Machine] == press[bestFrom]
			if bestFrom < 0 || hotter || (sameHot && j.Hint > bestHint) {
				best, bestFrom, bestHint = j.ID, j.Machine, j.Hint
			}
		}
		if best < 0 {
			break
		}
		b.move(best, bestFrom, cold, bestHint, "slo-steal")
		press[bestFrom] -= loadShift(sloAwareInflate * bestHint)
		press[cold] += loadShift(sloAwareInflate * bestHint)
	}
	if len(b.plan) > 0 {
		// Severity is cumulative (run-long quantiles), so "did the last
		// wave help" is the only honest progress signal: a wave that did
		// not buy the improvement ratio doubles the backoff, one that
		// did restores the full cadence.
		if b.lastSev > 0 && worst > b.lastSev*sloAwareImprovement {
			if b.backoff *= 2; b.backoff < 1 {
				b.backoff = 1
			}
			if b.backoff > sloAwareMaxBackoff {
				b.backoff = sloAwareMaxBackoff
			}
			b.skip = b.backoff
		} else {
			b.backoff = 0
		}
		b.lastSev = worst
	}
	return b.sorted()
}
