// Package smp implements the paper's Sec. 6 multicore direction in its
// simplest sound form: a partitioned multiprocessor. Each core runs
// its own EDF+CBS scheduler with its own supervisor (so the per-core
// Σ Q/T ≤ U_lub bound of Eq. 1 applies unchanged), and a partitioner
// places applications on cores by worst-fit decreasing over reserved
// bandwidth — the classic heuristic that leaves every core the most
// headroom for the feedback loops to adapt into.
//
// On top of the partitioned baseline the machine supports migration:
// MoveGroup moves a migration unit (CBS servers with their tasks, bare
// tasks, and its placement hint) from one core to another — of the
// same machine, or of another machine at the same simulated instant —
// as one all-or-nothing transaction, using the sched package's
// Scheduler.MoveAll to carry the budget/deadline state across. The
// paper calls the cooperation between load balancing and adaptive
// reservations "an open research issue"; the policies built on this
// mechanism live in the selftune balancer.
//
// Concurrency: the placement accounts are mutex-guarded, so
// interleaved Place/Reserve/Release calls never corrupt each other or
// leak an orphaned hint. The effective-load reads underneath them also
// consult live scheduler state, which only the simulation goroutine
// may touch — so admission, like everything else here, must be driven
// from the simulation goroutine (or while the engine is idle); the
// mutex is about account integrity, not about racing the simulation.
package smp

import (
	"fmt"
	"sync"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/supervisor"
)

// Machine is a set of independent cores, each scheduling on its entry
// of the engine table it was built from.
type Machine struct {
	cores []*sched.Scheduler
	sups  []*supervisor.Supervisor

	mu         sync.Mutex
	placed     []float64 // bandwidth hints accepted per core
	inflight   []float64 // admission charges of moves not yet settled, per core
	migrations int
	crossNode  int // migrations that crossed a topology domain

	topo     Topology
	domainOf []int // per-core domain index, aligned with cores
}

// New builds a machine with one core per engine, each supervised at
// ulub: core i's scheduler schedules exclusively on engines[i].
//
// A single-engine machine passes the same engine for every core, so
// events across cores interleave in global (when, seq) order on one
// goroutine. A laned machine passes one engine per core, and the lanes
// advance concurrently between causality fences (selftune.System.Run);
// cross-core operations (MoveGroup, LoadsInto) are then only legal
// while every lane rests at the same fence instant. Migration carries a
// reservation's timers across lanes: sched.Scheduler.MoveAll cancels
// and re-arms them on each scheduler's own engine, which is exactly
// lane-correct at a fence.
//
// Every core gets a disjoint PID range (the cores share — or, laned,
// migrate trace evidence between — syscall tracers, and per-PID drains
// must never mix tasks from different cores), and pidOffset shifts the
// whole machine's range: fleets of machines that exchange tasks (live
// cross-machine migration carries syscall evidence between tracers)
// give each machine a disjoint offset. Offset 0 keeps core 0 on the
// uniprocessor default base.
func New(engines []*sim.Engine, ulub float64, pidOffset int) *Machine {
	if len(engines) == 0 {
		panic("smp: need at least one core")
	}
	n := len(engines)
	m := &Machine{placed: make([]float64, n), inflight: make([]float64, n), domainOf: make([]int, n)}
	for i, eng := range engines {
		if eng == nil {
			panic(fmt.Sprintf("smp: core %d has a nil engine", i))
		}
		m.cores = append(m.cores, sched.New(sched.Config{
			Engine:  eng,
			PIDBase: pidOffset + 1000 + i*1_000_000,
		}))
		m.sups = append(m.sups, supervisor.New(ulub))
	}
	return m
}

// Cores returns the number of cores.
func (m *Machine) Cores() int { return len(m.cores) }

// Core returns core i's scheduler.
func (m *Machine) Core(i int) *sched.Scheduler { return m.cores[i] }

// Supervisor returns core i's supervisor.
func (m *Machine) Supervisor(i int) *supervisor.Supervisor { return m.sups[i] }

// Place picks a core for an application expected to need the given
// bandwidth, worst-fit (the least-loaded core), and records the hint.
// It returns the core index, or an error when no core has room. The
// load metric combines accepted hints with the cores' actually
// reserved bandwidth, so placement stays meaningful after the tuners
// have adapted away from their hints.
func (m *Machine) Place(bandwidth float64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	core, err := m.fit(bandwidth)
	if err == nil {
		m.placed[core] += bandwidth
	}
	return core, err
}

// Fit returns the core Place would pick for the given bandwidth,
// without charging it: callers that charge through MoveGroup choose
// their destination core with it.
func (m *Machine) Fit(bandwidth float64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fit(bandwidth)
}

// fit is the worst-fit scan of Place and Fit, with m.mu held.
func (m *Machine) fit(bandwidth float64) (int, error) {
	if bandwidth <= 0 || bandwidth > 1 {
		return 0, fmt.Errorf("smp: bandwidth hint %v out of (0,1]", bandwidth)
	}
	best, bestLoad := -1, 2.0
	for i := range m.cores {
		load := m.load(i)
		if load+bandwidth <= m.sups[i].ULub()+1e-9 && load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("smp: no core fits %.3f (loads %v)", bandwidth, m.loads())
	}
	return best, nil
}

// Reserve records a bandwidth hint against a specific core, for
// callers that pin placement instead of letting Place choose. Like
// Place it rejects hints the core has no room for.
func (m *Machine) Reserve(core int, bandwidth float64) error {
	if core < 0 || core >= len(m.cores) {
		return fmt.Errorf("smp: core %d out of [0,%d)", core, len(m.cores))
	}
	if bandwidth <= 0 || bandwidth > 1 {
		return fmt.Errorf("smp: bandwidth hint %v out of (0,1]", bandwidth)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if load := m.load(core); load+bandwidth > m.sups[core].ULub()+1e-9 {
		return fmt.Errorf("smp: core %d at load %.3f cannot fit %.3f", core, load, bandwidth)
	}
	m.placed[core] += bandwidth
	return nil
}

// Release returns a previously accepted bandwidth hint (from Place or
// Reserve) to core i, for callers whose placement fell through before
// the application materialised. Out-of-range arguments are ignored;
// the hint account never goes negative.
func (m *Machine) Release(core int, bandwidth float64) {
	if core < 0 || core >= len(m.cores) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.release(core, bandwidth)
}

// release is Release for an in-range core, with m.mu held.
func (m *Machine) release(core int, bandwidth float64) {
	if bandwidth <= 0 {
		return
	}
	m.placed[core] -= bandwidth
	if m.placed[core] < 0 {
		m.placed[core] = 0
	}
}

// Charge is what moving a migration unit is admission-checked
// against: the larger of its placement hint and its servers' summed
// reserved bandwidth.
func Charge(hint, reserved float64) float64 { return max(hint, reserved) }

// MoveGroup moves a whole migration unit — a set of CBS servers (each
// with its attached tasks) plus bare best-effort tasks — from core
// `from` of src to core `to` of dst, together with `hint` of
// placement-account bandwidth. dst may be src (a move between one
// machine's cores) or another machine resting at the same simulated
// instant (a live cross-machine move).
//
// It is one all-or-nothing transaction that decides before it acts.
// Admission is checked and the destination charged in one step: the
// unit's Charge must fit under the destination supervisor's bound, and
// it stays on the destination's load as an in-flight charge until the
// move settles. One sched.Scheduler.MoveAll then runs claim — the
// caller's one step that may refuse, such as registering a tuner with
// the destination supervisor — while the unit is still on its core,
// and moves the unit with its CBS state once claim accepts. On success
// the in-flight charge folds into the destination's hint account, the
// source core gives up the hint and only the hint stays charged on the
// destination. On any refusal nothing has moved and the in-flight
// charge is dropped, so both machines' load ledgers are exactly as
// they were, bit for bit. A nil claim never refuses.
func MoveGroup(g sched.Group, src *Machine, from int, dst *Machine, to int, hint float64, claim func() error) error {
	if from < 0 || from >= len(src.cores) || to < 0 || to >= len(dst.cores) {
		return fmt.Errorf("smp: migrate from core %d of %d to core %d of %d: out of range",
			from, len(src.cores), to, len(dst.cores))
	}
	if src == dst && from == to {
		return fmt.Errorf("smp: migrate within core %d", from)
	}
	if g.Empty() {
		return fmt.Errorf("smp: migrate of an empty group")
	}
	for _, srv := range g.Servers {
		if srv == nil || !src.cores[from].Owns(srv) {
			return fmt.Errorf("smp: migrating server not owned by core %d", from)
		}
	}
	hint = max(hint, 0)
	charge := Charge(hint, g.Bandwidth())
	// Check admission and charge the destination in one critical
	// section, so an interleaved Place cannot fill the just-checked
	// room. The charge is in flight — kept apart from the hint account
	// — so dropping it restores the account bit for bit.
	dst.mu.Lock()
	if load := dst.load(to); load+charge > dst.sups[to].ULub()+1e-9 {
		dst.mu.Unlock()
		return fmt.Errorf("smp: core %d at load %.3f cannot fit %.3f migrating from core %d",
			to, load, charge, from)
	}
	dst.inflight[to] += charge
	dst.mu.Unlock()

	if err := src.cores[from].MoveAll(g, dst.cores[to], claim); err != nil {
		dst.mu.Lock()
		dst.inflight[to] -= charge
		dst.mu.Unlock()
		return fmt.Errorf("smp: migrate group: %w", err)
	}
	settle(src, from, dst, to, hint, charge)
	return nil
}

// settle books a move that completed: the in-flight charge folds into
// the destination's hint account, the admission overcharge above the
// hint leaves it again, and the hint leaves the source core. A move
// between one machine's cores counts as a migration. Folding the
// charge and releasing the overcharge, rather than adding the hint,
// keeps every completed move's ledger bits those of the Place-then-
// Release arithmetic live transfers have always used.
func settle(src *Machine, from int, dst *Machine, to int, hint, charge float64) {
	dst.mu.Lock()
	dst.inflight[to] -= charge
	dst.placed[to] += charge
	dst.release(to, charge-hint)
	dst.mu.Unlock()
	src.mu.Lock()
	src.release(from, hint)
	if src == dst {
		src.migrations++
		if src.domainAt(from) != src.domainAt(to) {
			src.crossNode++
		}
	}
	src.mu.Unlock()
}

// Migrations returns the number of completed group moves between this
// machine's cores (a refused move and a move to another machine do not
// count; selftune's System.Migrations counts workload moves instead).
func (m *Machine) Migrations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrations
}

// load returns the effective load of core i: the larger of the hint
// account (with any in-flight move charge) and the actually reserved
// bandwidth.
func (m *Machine) load(i int) float64 {
	reserved := m.cores[i].TotalReservedBandwidth()
	if placed := m.placed[i] + m.inflight[i]; placed > reserved {
		return placed
	}
	return reserved
}

// loads returns the effective load of every core.
func (m *Machine) loads() []float64 {
	out := make([]float64, len(m.cores))
	for i := range m.cores {
		out[i] = m.load(i)
	}
	return out
}

// Loads returns a snapshot of the per-core effective loads.
func (m *Machine) Loads() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.loads()
}

// LoadsInto appends a snapshot of the per-core effective loads to dst
// and returns the extended slice — the allocation-free form of Loads
// for periodic samplers (pass dst[:0] to reuse its storage).
func (m *Machine) LoadsInto(dst []float64) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.cores {
		dst = append(dst, m.load(i))
	}
	return dst
}

// Load returns core i's effective load.
func (m *Machine) Load(i int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.load(i)
}

// TotalUtilization returns the machine-wide fraction of busy CPU time.
func (m *Machine) TotalUtilization() float64 {
	var sum float64
	for _, c := range m.cores {
		sum += c.Utilization()
	}
	return sum / float64(len(m.cores))
}
