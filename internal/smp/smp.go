// Package smp implements the paper's Sec. 6 multicore direction in its
// simplest sound form: a partitioned multiprocessor. Each core runs
// its own EDF+CBS scheduler with its own supervisor (so the per-core
// Σ Q/T ≤ U_lub bound of Eq. 1 applies unchanged), and a partitioner
// places applications on cores by worst-fit decreasing over reserved
// bandwidth — the classic heuristic that leaves every core the most
// headroom for the feedback loops to adapt into.
//
// On top of the partitioned baseline the machine supports migration:
// MigrateGroup atomically releases a migration unit (CBS servers with
// their tasks, bare tasks, and its placement hint) from one core and
// re-places it on another, using the sched package's DetachAll/AdoptAll
// to carry the budget/deadline state across. The paper calls the cooperation between load balancing and
// adaptive reservations "an open research issue"; the policies built
// on this mechanism live in the selftune balancer.
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
// advance concurrently between causality fences (sim.EngineGroup);
// cross-core operations (MigrateGroup, LoadsInto) are then only legal
// while every lane rests at the same fence instant. Migration carries a
// reservation's timers across lanes: sched.Detach/Adopt cancel and
// re-arm on each scheduler's own engine, which is exactly lane-correct
// at a fence.
//
// Every core gets a disjoint PID range (the cores share — or, laned,
// migrate trace evidence between — syscall tracers, and per-PID drains
// must never mix tasks from different cores), and pidOffset shifts the
// whole machine's range: fleets of machines that exchange tasks (live
// cross-machine migration carries syscall evidence between tracers)
// give each machine a disjoint offset. Offset 0 keeps core 0 on the
// uniprocessor default base. Job storage is pooled: every job a
// machine workload completes is recycled generation-tagged.
func New(engines []*sim.Engine, ulub float64, pidOffset int) *Machine {
	if len(engines) == 0 {
		panic("smp: need at least one core")
	}
	n := len(engines)
	m := &Machine{placed: make([]float64, n), domainOf: make([]int, n)}
	for i, eng := range engines {
		if eng == nil {
			panic(fmt.Sprintf("smp: core %d has a nil engine", i))
		}
		m.cores = append(m.cores, sched.New(sched.Config{
			Engine:      eng,
			PIDBase:     pidOffset + 1000 + i*1_000_000,
			RecycleJobs: true,
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
	if bandwidth <= 0 || bandwidth > 1 {
		return 0, fmt.Errorf("smp: bandwidth hint %v out of (0,1]", bandwidth)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
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
	m.placed[best] += bandwidth
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
	if core < 0 || core >= len(m.cores) || bandwidth <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.placed[core] -= bandwidth
	if m.placed[core] < 0 {
		m.placed[core] = 0
	}
}

// MigrateGroup atomically moves a whole migration unit — a set of CBS
// servers (each with its attached tasks) plus bare best-effort tasks —
// from core `from` to core `to`, together with `hint` of
// placement-account bandwidth. Admission is batch and all-or-nothing:
// the unit arrives with the larger of its aggregate hint and its
// summed reserved bandwidth, that total must fit under the target
// supervisor's bound in one check, and on any error the machine is
// left exactly as it was — either every member moves or none does.
// This is what lets a multi-reservation background load or a
// shared-reservation application change cores as one unit.
func (m *Machine) MigrateGroup(g sched.Group, from, to int, hint float64) error {
	return m.migrateGroup(g, from, to, hint, true)
}

// ForceMigrateGroup moves a group like MigrateGroup but skips the
// target admission check. It exists for rollback paths that restore a
// unit to a core it just vacated: a state that was legal moments ago
// must be restorable even if the accounts shifted meanwhile, and
// re-running admission there could strand the reservations.
func (m *Machine) ForceMigrateGroup(g sched.Group, from, to int, hint float64) error {
	return m.migrateGroup(g, from, to, hint, false)
}

func (m *Machine) migrateGroup(g sched.Group, from, to int, hint float64, admit bool) error {
	if from < 0 || from >= len(m.cores) || to < 0 || to >= len(m.cores) {
		return fmt.Errorf("smp: migrate cores %d -> %d out of [0,%d)", from, to, len(m.cores))
	}
	if from == to {
		return fmt.Errorf("smp: migrate within core %d", from)
	}
	if g.Empty() {
		return fmt.Errorf("smp: migrate of an empty group")
	}
	for _, srv := range g.Servers {
		if srv == nil || !m.cores[from].Owns(srv) {
			return fmt.Errorf("smp: migrating server not owned by core %d", from)
		}
	}
	if hint < 0 {
		hint = 0
	}
	charge := hint
	if bw := g.Bandwidth(); bw > charge {
		charge = bw
	}
	// Check admission and charge the target in one critical section:
	// the full admission charge lands on the target's account up front
	// — the reserved-bandwidth half only materialises at AdoptAll — so
	// an interleaved Place cannot fill the just-checked room; the
	// charge shrinks back to the lasting hint once the unit has
	// arrived.
	m.mu.Lock()
	if admit {
		if load := m.load(to); load+charge > m.sups[to].ULub()+1e-9 {
			m.mu.Unlock()
			return fmt.Errorf("smp: core %d at load %.3f cannot fit %.3f migrating from core %d",
				to, load, charge, from)
		}
	}
	m.moveHint(from, to, hint)
	m.placed[to] += charge - hint
	m.mu.Unlock()
	undoCharge := func() {
		m.mu.Lock()
		m.placed[to] -= charge - hint
		m.moveHint(to, from, hint)
		m.mu.Unlock()
	}
	if err := m.cores[from].DetachAll(g); err != nil {
		undoCharge()
		return fmt.Errorf("smp: migrate group: %w", err)
	}
	if err := m.cores[to].AdoptAll(g); err != nil {
		// Unreachable in practice (the group was just detached and the
		// simulation is single-goroutine); put it back rather than
		// strand the reservations.
		if rb := m.cores[from].AdoptAll(g); rb != nil {
			panic(fmt.Sprintf("smp: migration stranded group: %v after %v", rb, err))
		}
		undoCharge()
		return fmt.Errorf("smp: migrate group: %w", err)
	}
	m.mu.Lock()
	m.placed[to] -= charge - hint
	if m.placed[to] < 0 {
		m.placed[to] = 0
	}
	m.migrations++
	if m.domainAt(from) != m.domainAt(to) {
		m.crossNode++
	}
	m.mu.Unlock()
	return nil
}

// moveHint transfers placement-account bandwidth between cores. The
// caller must hold m.mu.
func (m *Machine) moveHint(from, to int, hint float64) {
	if hint <= 0 {
		return
	}
	m.placed[from] -= hint
	if m.placed[from] < 0 {
		m.placed[from] = 0
	}
	m.placed[to] += hint
}

// Migrations returns the number of successful group migrations (a
// rolled-back migration counts each direction; selftune's
// System.Migrations counts workload moves instead).
func (m *Machine) Migrations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrations
}

// load returns the effective load of core i: the larger of the hint
// account and the actually reserved bandwidth.
func (m *Machine) load(i int) float64 {
	reserved := m.cores[i].TotalReservedBandwidth()
	if m.placed[i] > reserved {
		return m.placed[i]
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
