package smp

import (
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// newMachine builds an n-core single-engine machine at U_lub 1: every
// core schedules on eng.
func newMachine(eng *sim.Engine, n int) *Machine {
	return New(slices.Repeat([]*sim.Engine{eng}, n), 1, 0)
}

func TestTopologyValidatePartition(t *testing.T) {
	cases := []struct {
		name    string
		domains [][]int
		cores   int
		ok      bool
	}{
		{"zero value", nil, 4, true},
		{"flat", [][]int{{0, 1, 2, 3}}, 4, true},
		{"two nodes", [][]int{{0, 1}, {2, 3}}, 4, true},
		{"interleaved", [][]int{{0, 2}, {1, 3}}, 4, true},
		{"missing core", [][]int{{0, 1}, {3}}, 4, false},
		{"duplicate core", [][]int{{0, 1}, {1, 2, 3}}, 4, false},
		{"out of range", [][]int{{0, 1}, {2, 4}}, 4, false},
		{"negative core", [][]int{{0, -1}, {1, 2, 3}}, 4, false},
		{"empty domain", [][]int{{0, 1, 2, 3}, {}}, 4, false},
	}
	for _, tc := range cases {
		err := (Topology{Domains: tc.domains}).Validate(tc.cores)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validated a non-partition", tc.name)
		}
	}
}

func TestTopologyUniformShapes(t *testing.T) {
	topo := Uniform(10, 4)
	if got := topo.NumDomains(); got != 3 {
		t.Fatalf("Uniform(10,4) has %d domains, want 3 (4+4+2)", got)
	}
	if err := topo.Validate(10); err != nil {
		t.Fatalf("Uniform(10,4) invalid: %v", err)
	}
	if len(topo.Domains[2]) != 2 {
		t.Errorf("remainder domain has %d cores, want 2", len(topo.Domains[2]))
	}
	// perNode <= 0 selects the default width.
	if got := Uniform(16, 0).NumDomains(); got != 16/DefaultNodeCores {
		t.Errorf("Uniform(16,0) has %d domains, want %d", got, 16/DefaultNodeCores)
	}
	// perNode >= cores collapses to a single domain.
	if got := Uniform(4, 8).NumDomains(); got != 1 {
		t.Errorf("Uniform(4,8) has %d domains, want 1", got)
	}
}

func TestTopologyDomainMap(t *testing.T) {
	topo := Topology{Domains: [][]int{{0, 2}, {1, 3}}}
	want := []int{0, 1, 0, 1}
	got := topo.DomainMap(4)
	for c, d := range want {
		if got[c] != d {
			t.Errorf("DomainMap[%d] = %d, want %d", c, got[c], d)
		}
	}
	var zero Topology
	for c, d := range zero.DomainMap(4) {
		if d != 0 {
			t.Errorf("zero-value topology puts core %d in domain %d, want 0", c, d)
		}
	}
}

func TestMachineSetTopologyRejectsNonPartition(t *testing.T) {
	m := newMachine(sim.New(), 4)
	if err := m.SetTopology(Topology{Domains: [][]int{{0, 1}}}); err == nil {
		t.Error("SetTopology accepted a topology missing cores 2 and 3")
	}
	if err := m.SetTopology(Uniform(4, 2)); err != nil {
		t.Fatalf("SetTopology rejected a valid partition: %v", err)
	}
	if m.NumDomains() != 2 || m.DomainOf(3) != 1 {
		t.Errorf("topology not installed: %d domains, DomainOf(3)=%d", m.NumDomains(), m.DomainOf(3))
	}
}

func TestMachineTopologyCopyIsIsolated(t *testing.T) {
	m := newMachine(sim.New(), 4)
	if err := m.SetTopology(Uniform(4, 2)); err != nil {
		t.Fatal(err)
	}
	topo := m.Topology()
	topo.Domains[0][0] = 99 // mutate the returned copy
	if m.DomainOf(0) != 0 || m.Topology().Domains[0][0] != 0 {
		t.Error("Topology() returned a view of live machine state")
	}
}

// migrateOne places one reservation on core `from` and migrates it to
// core `to`, so the topology counters have a real move to count.
func migrateOne(t *testing.T, m *Machine, from, to int) {
	t.Helper()
	if err := m.Reserve(from, 0.3); err != nil {
		t.Fatal(err)
	}
	srv := m.Core(from).NewServer("srv", 10_000_000, 100_000_000, sched.HardCBS)
	if err := MoveGroup(sched.Group{Servers: []*sched.Server{srv}}, m, from, m, to, 0.3, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMachineCrossNodeCounter(t *testing.T) {
	m := newMachine(sim.New(), 4)
	if err := m.SetTopology(Uniform(4, 2)); err != nil {
		t.Fatal(err)
	}
	migrateOne(t, m, 0, 1) // intra-node
	if got := m.CrossNodeMigrations(); got != 0 {
		t.Errorf("intra-node migration counted as cross-node (%d)", got)
	}
	migrateOne(t, m, 2, 1) // node 1 -> node 0
	if got := m.CrossNodeMigrations(); got != 1 {
		t.Errorf("cross-node migrations = %d, want 1", got)
	}
	if m.Migrations() != 2 {
		t.Errorf("migrations = %d, want 2", m.Migrations())
	}
}

// TestMachineSingleDomainEqualsFlat pins the degenerate case: a
// machine with an explicit single-domain topology behaves exactly like
// one that never heard of topologies — one domain holding every core,
// and no migration ever counted as cross-node.
func TestMachineSingleDomainEqualsFlat(t *testing.T) {
	flat := newMachine(sim.New(), 4)
	single := newMachine(sim.New(), 4)
	if err := single.SetTopology(Flat(4)); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Machine{flat, single} {
		if m.NumDomains() != 1 {
			t.Errorf("NumDomains = %d, want 1", m.NumDomains())
		}
		if m.DomainOf(0) != m.DomainOf(3) {
			t.Error("single-domain machine puts cores 0 and 3 in different domains")
		}
		migrateOne(t, m, 0, 3)
		if m.CrossNodeMigrations() != 0 {
			t.Error("single-domain machine counted a cross-node migration")
		}
	}
	// The two machines agree on every per-core load.
	fl, sl := flat.Loads(), single.Loads()
	for i := range fl {
		if fl[i] != sl[i] {
			t.Errorf("core %d load differs: flat %v vs single-domain %v", i, fl[i], sl[i])
		}
	}
}
