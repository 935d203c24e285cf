package experiments

import (
	"fmt"

	"repro/internal/simtime"
	"repro/selftune"
)

// The NUMA contention experiment prices migrations for the first time:
// on a machine whose cores group into cache/NUMA nodes, a migration
// that crosses a node boundary forfeits cache warmth, so a balancing
// policy should spread load with as few node crossings as it can get
// away with. The scenario is a per-node consolidated boot — every
// node's first core holds all of that node's tenants (the state a
// node-local boot CPU or a suspend/resume leaves behind) — which a
// topology-blind policy de-consolidates by shipping tenants to
// whatever core is globally coldest, crossing nodes for no reason,
// while the topology-aware policy reaches the same spread almost
// entirely with intra-node moves.

// NUMAPolicyResult is one policy's half of the NUMA contention
// experiment.
type NUMAPolicyResult struct {
	Policy string

	SpreadStart float64
	SpreadEnd   float64

	// Migrations and CrossNode count the machine-level moves of the
	// recovery; CrossNodeFraction is their ratio (0 when nothing
	// moved).
	Migrations        int
	CrossNode         int
	CrossNodeFraction float64

	FramesDecoded  int
	DeadlineMisses int
}

// NUMAResult is the outcome of the NUMA contention experiment: the
// same per-node consolidated boot recovered by plain work-stealing
// (topology-blind) and by the topology-aware cost-based policy.
type NUMAResult struct {
	Cores        int
	Nodes        int
	CoresPerNode int
	Tenants      int

	WorkStealing NUMAPolicyResult // BalanceWorkStealing: blind de-consolidation
	Topo         NUMAPolicyResult // BalanceTopologyAware: cost-based placement
}

// Table renders the result in the repo's report style.
func (r NUMAResult) Table() string {
	row := func(p NUMAPolicyResult) string {
		return fmt.Sprintf("%-15s spread %.3f -> %.3f | migrations %3d, cross-node %3d (%.0f%%) | frames %d, missed %d",
			p.Policy, p.SpreadStart, p.SpreadEnd, p.Migrations, p.CrossNode,
			p.CrossNodeFraction*100, p.FramesDecoded, p.DeadlineMisses)
	}
	return fmt.Sprintf(`== NUMA-aware balancing (%d cores = %d nodes x %d, %d tenants booted per-node consolidated) ==
%s
%s
`, r.Cores, r.Nodes, r.CoresPerNode, r.Tenants, row(r.WorkStealing), row(r.Topo))
}

// NUMAContention runs the recovery scenario on nodes×coresPerNode
// cores (the headline configuration is 4×16) for the given horizon,
// once per policy, and reports how much of each policy's migration
// traffic crossed a node boundary.
func NUMAContention(seed uint64, nodes, coresPerNode int, horizon simtime.Duration) NUMAResult {
	if nodes < 2 {
		nodes = 4
	}
	if coresPerNode < 4 {
		coresPerNode = 16
	}
	if horizon <= 0 {
		horizon = 2 * simtime.Second
	}
	cores := nodes * coresPerNode
	perBoot := coresPerNode - 2
	res := NUMAResult{
		Cores: cores, Nodes: nodes, CoresPerNode: coresPerNode,
		Tenants: nodes * perBoot,
	}
	res.WorkStealing = numaRecovery(seed, nodes, coresPerNode, horizon, selftune.BalanceWorkStealing())
	res.Topo = numaRecovery(seed, nodes, coresPerNode, horizon, selftune.BalanceTopologyAware())
	return res
}

// numaRecovery boots every node's tenants consolidated on the node's
// first core and lets the given policy spread them for the horizon.
func numaRecovery(seed uint64, nodes, coresPerNode int, horizon simtime.Duration, policy selftune.Balancer) NUMAPolicyResult {
	cores := nodes * coresPerNode
	sys, err := selftune.NewSystem(
		selftune.WithSeed(seed+1),
		selftune.WithCPUs(cores),
		selftune.WithTopology(selftune.UniformTopology(cores, coresPerNode)),
		selftune.WithBalancer(policy),
		selftune.WithBalanceInterval(100*simtime.Millisecond),
		selftune.WithBalanceThreshold(0.1))
	if err != nil {
		panic(err)
	}
	perBoot := coresPerNode - 2
	// The same lean bootstrap as the migration contention study: the
	// default generous initial budget times perBoot tuners would
	// saturate the boot core's admission before the load starts, so all
	// initial reservations together take at most half the core.
	leanCfg := selftune.DefaultTunerConfig()
	leanCfg.InitialBudget = 2 * simtime.Millisecond
	if cap := leanCfg.InitialPeriod / (2 * simtime.Duration(perBoot)); cap < leanCfg.InitialBudget {
		leanCfg.InitialBudget = cap
	}
	leanCfg.Sampling = 100 * simtime.Millisecond
	var tenants []*selftune.Handle
	for node := 0; node < nodes; node++ {
		boot := node * coresPerNode
		for i := 0; i < perBoot; i++ {
			h, err := sys.Spawn("video",
				selftune.SpawnName(fmt.Sprintf("n%dv%02d", node, i)),
				selftune.OnCore(boot),
				selftune.SpawnHint(0.9/float64(perBoot)),
				selftune.SpawnUtil(0.06),
				selftune.Tuned(leanCfg))
			if err != nil {
				panic(err)
			}
			h.Start(0)
			tenants = append(tenants, h)
		}
	}
	out := NUMAPolicyResult{Policy: policy.Name(), SpreadStart: loadSpread(sys)}
	sys.Run(horizon)
	out.SpreadEnd = loadSpread(sys)
	out.Migrations = sys.Machine().Migrations()
	out.CrossNode = sys.Machine().CrossNodeMigrations()
	if out.Migrations > 0 {
		out.CrossNodeFraction = float64(out.CrossNode) / float64(out.Migrations)
	}
	for _, h := range tenants {
		st := h.Player().Task().Stats()
		out.FramesDecoded += st.Completed
		out.DeadlineMisses += st.Missed
	}
	return out
}
