package selftune_test

import (
	"fmt"
	"testing"

	"repro/selftune"
)

// topoSnap builds a synthetic planning snapshot: two 2-core NUMA nodes
// ({0,1} and {2,3}) with the given per-core loads, and one unit per
// entry of units (core, charge, kind), all migratable.
func topoSnap(loads []float64, units []struct {
	core   int
	charge float64
	kind   string
}) selftune.Snapshot {
	snap := selftune.Snapshot{
		Reason:    selftune.PlanPeriodic,
		Threshold: 0.1,
		Loads:     loads,
		Reserved:  make([]float64, len(loads)),
		ULub:      make([]float64, len(loads)),
		Domain:    []int{0, 0, 1, 1}[:len(loads)],
	}
	for i := range snap.ULub {
		snap.ULub[i] = 1
	}
	for i, u := range units {
		snap.Units = append(snap.Units, selftune.Unit{
			ID: i, Name: fmt.Sprintf("u%d", i), Kind: u.kind, Core: u.core,
			Hint: u.charge, Reserved: u.charge, Charge: u.charge,
			Servers: 1, Migratable: true,
		})
	}
	return snap
}

func TestSnapshotDistance(t *testing.T) {
	snap := topoSnap([]float64{0, 0, 0, 0}, nil)
	if snap.Distance(0, 1) != 0 || snap.Distance(2, 3) != 0 {
		t.Error("intra-node distance is not 0")
	}
	if snap.Distance(1, 2) != 1 {
		t.Error("cross-node distance is not 1")
	}
	if snap.Distance(-1, 2) != 0 || snap.Distance(0, 99) != 0 {
		t.Error("out-of-range cores should be distance 0")
	}
	var flat selftune.Snapshot
	if flat.Distance(0, 1) != 0 {
		t.Error("snapshot without a topology should be a single zero-distance domain")
	}
}

func TestTopologyAwarePrefersIntraNode(t *testing.T) {
	// Core 0 is hot, its node peer (core 1) has plenty of room: the
	// first moves must stay inside node 0, and only once core 1 cannot
	// absorb more does a unit cross to node 1.
	snap := topoSnap([]float64{0.8, 0.1, 0.1, 0.1}, []struct {
		core   int
		charge float64
		kind   string
	}{
		{0, 0.15, "video"}, {0, 0.15, "video"}, {0, 0.15, "video"}, {0, 0.15, "video"},
	})
	moves := selftune.BalanceTopologyAware().Plan(snap)
	if len(moves) == 0 {
		t.Fatal("no moves planned off a 0.8-load core")
	}
	cross := 0
	for _, mv := range moves {
		if snap.Distance(snap.Units[mv.Unit].Core, mv.To) > 0 {
			cross++
		}
	}
	if moves[0].To != 1 {
		t.Errorf("first move went to core %d, want the intra-node core 1", moves[0].To)
	}
	if cross > 1 {
		t.Errorf("%d of %d moves crossed the node with intra-node room available", cross, len(moves))
	}
}

func TestTopologyAwareCrossNodeFallbackWhenNodeSaturates(t *testing.T) {
	// Core 0's only node peer is nearly full: the unit cannot stay in
	// node 0, and the policy must fall back to a cross-node move rather
	// than leave the spread standing.
	snap := topoSnap([]float64{0.9, 0.85, 0, 0}, []struct {
		core   int
		charge float64
		kind   string
	}{
		{0, 0.2, "video"}, {0, 0.2, "video"},
	})
	moves := selftune.BalanceTopologyAware().Plan(snap)
	if len(moves) == 0 {
		t.Fatal("saturated node planned no moves: no cross-node fallback")
	}
	for _, mv := range moves {
		if snap.Distance(snap.Units[mv.Unit].Core, mv.To) != 1 {
			t.Errorf("move to core %d stayed in the saturated node", mv.To)
		}
	}
}

func TestTopologyAwareSharedGroupAffinity(t *testing.T) {
	// A shared-reservation group on the hot core, with every intra-node
	// destination full: the group stays put (affinity), the plain unit
	// crosses instead.
	snap := topoSnap([]float64{0.95, 0.9, 0, 0}, []struct {
		core   int
		charge float64
		kind   string
	}{
		{0, 0.3, "shared"}, {0, 0.3, "video"},
	})
	moves := selftune.BalanceTopologyAware().Plan(snap)
	if len(moves) == 0 {
		t.Fatal("no moves planned")
	}
	for _, mv := range moves {
		if snap.Units[mv.Unit].Kind == "shared" {
			t.Errorf("shared group planned out of its domain (to core %d)", mv.To)
		}
	}
}

// TestTopologyAwareSharedGroupAffinityLive drives a real system: a
// TuneShared application pinned with heavy neighbours on node 0 keeps
// its domain through every balancing tick, while untuned pressure is
// free to spill across.
func TestTopologyAwareSharedGroupAffinityLive(t *testing.T) {
	sys, err := selftune.NewSystem(
		selftune.WithSeed(11), selftune.WithCPUs(4),
		selftune.WithTopology(selftune.UniformTopology(4, 2)),
		selftune.WithBalancer(selftune.BalanceTopologyAware()),
		selftune.WithBalanceInterval(200*selftune.Millisecond),
		selftune.WithBalanceThreshold(0.1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Spawn("mp3", selftune.SpawnName("audio"), selftune.OnCore(0))
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.Spawn("video",
		selftune.SpawnName("video"), selftune.SpawnUtil(0.15), selftune.OnCore(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TuneShared([]*selftune.Handle{a, v}, []int{0, 1},
		selftune.DefaultTunerConfig()); err != nil {
		t.Fatal(err)
	}
	// Pressure: pinned tenants consolidating node 0's first core.
	lean := selftune.DefaultTunerConfig()
	lean.InitialBudget = 2 * selftune.Millisecond
	for i := 0; i < 4; i++ {
		h, err := sys.Spawn("video",
			selftune.SpawnName(fmt.Sprintf("pin-%d", i)),
			selftune.OnCore(0), selftune.SpawnHint(0.12), selftune.SpawnUtil(0.10),
			selftune.Tuned(lean))
		if err != nil {
			t.Fatal(err)
		}
		h.Start(0)
	}
	a.Start(0)
	v.Start(0)

	domainLog := make(map[int]bool)
	sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
		if e.Kind == selftune.MigrationEvent && e.Source == "audio" {
			domainLog[sys.Core(e.Core).Domain()] = true
		}
	}))
	sys.Run(4 * selftune.Second)

	if got := a.Core().Domain(); got != 0 {
		t.Errorf("shared group ended in domain %d, want 0 (group affinity)", got)
	}
	if domainLog[1] {
		t.Error("shared group visited domain 1 during balancing")
	}
	if sys.Migrations() == 0 {
		t.Error("no migrations at all: the pressure scenario lost its teeth")
	}
}

func TestWithTopologyValidation(t *testing.T) {
	// A topology that does not partition the cores is a NewSystem error.
	if _, err := selftune.NewSystem(selftune.WithCPUs(4),
		selftune.WithTopology(selftune.Topology{Domains: [][]int{{0, 1}}})); err == nil {
		t.Error("NewSystem accepted a topology missing cores 2 and 3")
	}
	// An empty domain fails too (smp validation at NewSystem time).
	if _, err := selftune.NewSystem(selftune.WithCPUs(4),
		selftune.WithTopology(selftune.Topology{Domains: [][]int{{0, 1, 2, 3}, {}}})); err == nil {
		t.Error("NewSystem accepted an empty domain")
	}
	// The zero value selects the 8-cores-per-node default.
	sys, err := selftune.NewSystem(selftune.WithCPUs(16), selftune.WithTopology(selftune.Topology{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Topology().NumDomains(); got != 2 {
		t.Errorf("default topology on 16 cores has %d domains, want 2", got)
	}
	if sys.Core(7).Domain() != 0 || sys.Core(8).Domain() != 1 {
		t.Errorf("default node boundary wrong: core 7 in %d, core 8 in %d",
			sys.Core(7).Domain(), sys.Core(8).Domain())
	}
	// Without WithTopology everything is one domain.
	plain, err := selftune.NewSystem(selftune.WithCPUs(4))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Topology().NumDomains() != 1 || plain.Core(3).Domain() != 0 {
		t.Error("machine without WithTopology is not a single domain")
	}
}
