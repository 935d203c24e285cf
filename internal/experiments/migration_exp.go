package experiments

import (
	"fmt"

	"repro/internal/simtime"
	"repro/selftune"
)

// MigrationResult is the outcome of the cross-core contention
// experiment: the admission half compares how many workloads of a
// fragmenting spawn sequence a machine admits under frozen worst-fit
// placement versus with the balancer's one-migration admission pass;
// the recovery half starts the machine deliberately imbalanced and
// lets the work-stealing policy spread it.
type MigrationResult struct {
	Cores int

	// Admission phase.
	AdmittedStatic      int // workloads admitted with BalanceNone
	AdmittedRebalance   int // workloads admitted with the balancer on
	Offered             int // workloads in the spawn sequence
	AdmissionMigrations int

	// Recovery phase (work-stealing policy, all load pinned on core 0).
	RecoverySpreadStart float64
	RecoverySpreadEnd   float64
	RecoveryMigrations  int
	FramesDecoded       int
	DeadlineMisses      int
}

// Table renders the result in the repo's report style.
func (r MigrationResult) Table() string {
	return fmt.Sprintf(`== Cross-core migration & machine-wide admission (%d cores) ==
admitted: static worst-fit %d/%d, with rebalance %d/%d (admission migrations: %d)
recovery: load spread %.3f -> %.3f after %d work-stealing migrations
QoS during recovery: %d frames decoded, %d deadline misses
`, r.Cores,
		r.AdmittedStatic, r.Offered, r.AdmittedRebalance, r.Offered, r.AdmissionMigrations,
		r.RecoverySpreadStart, r.RecoverySpreadEnd, r.RecoveryMigrations,
		r.FramesDecoded, r.DeadlineMisses)
}

// contentionSequence is the spawn sequence of the admission phase: the
// per-spawn placement hints that drive worst-fit into fragmentation.
// With `cores` cores at U_lub = 0.9, worst-fit spreads the 0.45s one
// per core and the 0.40s onto cores 0..n-2, leaving every core but the
// last at 0.85 and the last at 0.45 — and then no core has room for
// the final 0.50, although migrating a 0.45 onto the last core frees
// one. A single rebalance migration is exactly the slack the sequence
// is built to need.
func contentionSequence(cores int) []float64 {
	seq := make([]float64, 0, 2*cores)
	for i := 0; i < cores; i++ {
		seq = append(seq, 0.45)
	}
	for i := 0; i < cores-1; i++ {
		seq = append(seq, 0.40)
	}
	return append(seq, 0.50)
}

// admitSequence spawns the contention sequence as tuned video players
// and returns the spawned handles; it stops at the first rejection.
func admitSequence(sys *selftune.System, seq []float64) []*selftune.Handle {
	handles := make([]*selftune.Handle, 0, len(seq))
	for i, hint := range seq {
		h, err := sys.Spawn("video",
			selftune.SpawnName(fmt.Sprintf("v%02d", i)),
			selftune.SpawnHint(hint),
			selftune.SpawnUtil(0.10),
			selftune.Tuned(selftune.DefaultTunerConfig()))
		if err != nil {
			break
		}
		handles = append(handles, h)
	}
	return handles
}

func loadSpread(sys *selftune.System) float64 {
	loads := sys.Machine().Loads()
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

// MigrationContention runs the cross-core contention experiment on the
// given core count (the headline configuration is 8) for the given
// recovery horizon per phase.
func MigrationContention(seed uint64, cores int, horizon simtime.Duration) MigrationResult {
	if cores < 2 {
		cores = 8
	}
	if horizon <= 0 {
		horizon = 4 * simtime.Second
	}
	seq := contentionSequence(cores)
	res := MigrationResult{Cores: cores, Offered: len(seq)}

	// Admission, frozen placement: the paper's partitioned baseline.
	static, err := selftune.NewSystem(
		selftune.WithSeed(seed), selftune.WithCPUs(cores), selftune.WithULub(0.90))
	if err != nil {
		panic(err)
	}
	res.AdmittedStatic = len(admitSequence(static, seq))

	// Admission, machine-wide: the failed worst-fit triggers one
	// rebalance migration before rejecting.
	rebal, err := selftune.NewSystem(
		selftune.WithSeed(seed), selftune.WithCPUs(cores), selftune.WithULub(0.90),
		selftune.WithBalancer(selftune.BalanceReactive()))
	if err != nil {
		panic(err)
	}
	res.AdmittedRebalance = len(admitSequence(rebal, seq))
	res.AdmissionMigrations = rebal.Migrations()

	// Recovery: everything lands on core 0 (a consolidated boot, or a
	// machine whose other cores just came online) and the work-stealing
	// policy must spread it without stopping playback. Stealing is what
	// makes the 64-core case recover inside the window: every cold core
	// claims tenants in the same tick, where one-migration-per-tick
	// policies need a tick per tenant.
	rec, err := selftune.NewSystem(
		selftune.WithSeed(seed+1), selftune.WithCPUs(cores),
		selftune.WithBalancer(selftune.BalanceWorkStealing()),
		selftune.WithBalanceInterval(100*simtime.Millisecond),
		selftune.WithBalanceThreshold(0.1))
	if err != nil {
		panic(err)
	}
	nPinned := cores - 2
	if nPinned < 2 {
		nPinned = 2
	}
	// A lean initial reservation: the default generous 25% bootstrap
	// budget times nPinned tuners would saturate core 0's admission
	// before the load even starts (exactly the consolidation pressure
	// the recovery phase models); the hold-phase growth re-expands the
	// budget once each tuner sees its application throttled. At high
	// core counts even 2ms each would overflow the consolidated core
	// (64 cores pin 62 tuners), so the bootstrap shrinks with the
	// tenant count: all initial reservations together take at most
	// half the core.
	leanCfg := selftune.DefaultTunerConfig()
	leanCfg.InitialBudget = 2 * simtime.Millisecond
	if cap := leanCfg.InitialPeriod / (2 * simtime.Duration(nPinned)); cap < leanCfg.InitialBudget {
		leanCfg.InitialBudget = cap
	}
	// A 100ms control loop: the recovery window is 2s, and the spread
	// floor after de-consolidation is set by how fast each tuner
	// tightens out of its hold-phase over-provision on its new core —
	// the default 200ms sampling leaves that tail inside the window.
	leanCfg.Sampling = 100 * simtime.Millisecond
	pinned := make([]*selftune.Handle, 0, nPinned)
	for i := 0; i < nPinned; i++ {
		h, err := rec.Spawn("video",
			selftune.SpawnName(fmt.Sprintf("pin%02d", i)),
			selftune.OnCore(0),
			selftune.SpawnHint(0.9/float64(nPinned)),
			selftune.SpawnUtil(0.06),
			selftune.Tuned(leanCfg))
		if err != nil {
			panic(err)
		}
		h.Start(0)
		pinned = append(pinned, h)
	}
	res.RecoverySpreadStart = loadSpread(rec)
	rec.Run(horizon)
	res.RecoverySpreadEnd = loadSpread(rec)
	res.RecoveryMigrations = rec.Migrations()
	for _, h := range pinned {
		st := h.Player().Task().Stats()
		res.FramesDecoded += st.Completed
		res.DeadlineMisses += st.Missed
	}
	return res
}
