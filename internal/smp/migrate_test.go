package smp_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/smp"
)

// single is the migration unit of one server and its attached tasks.
func single(srv *sched.Server) sched.Group {
	return sched.Group{Servers: []*sched.Server{srv}}
}

// reservedServer places a hint on a specific core and backs it with a
// real CBS server of the same bandwidth, the shape a tuned workload
// leaves on the machine.
func reservedServer(t *testing.T, m *smp.Machine, core int, name string, bw float64) *sched.Server {
	t.Helper()
	if err := m.Reserve(core, bw); err != nil {
		t.Fatalf("Reserve(%d, %v): %v", core, bw, err)
	}
	period := 100 * simtime.Millisecond
	srv := m.Core(core).NewServer(name, simtime.Duration(bw*float64(period)), period, sched.HardCBS)
	task := m.Core(core).NewTask(name)
	task.AttachTo(srv, 0)
	return srv
}

func TestMigrateToFullCoreRejected(t *testing.T) {
	eng := sim.New()
	m := newMachine(eng, 2)
	srv := reservedServer(t, m, 0, "mover", 0.3)
	// Fill core 1 so the 0.3 reservation cannot fit.
	if err := m.Reserve(1, 0.8); err != nil {
		t.Fatal(err)
	}
	before := m.Loads()
	if err := m.MigrateGroup(single(srv), 0, 1, 0.3); err == nil {
		t.Fatal("migration to a full core accepted")
	}
	// Rejection must leave the machine untouched: same loads, server
	// still owned by core 0, no migration counted.
	after := m.Loads()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("core %d load changed across rejected migration: %v -> %v", i, before[i], after[i])
		}
	}
	if !m.Core(0).Owns(srv) {
		t.Error("server left core 0 despite rejection")
	}
	if m.Migrations() != 0 {
		t.Errorf("Migrations() = %d after rejection", m.Migrations())
	}
	// A rollback (ForceMigrateGroup) bypasses the admission check: a state
	// that was legal moments ago must be restorable.
	if err := m.ForceMigrateGroup(single(srv), 0, 1, 0.3); err != nil {
		t.Fatalf("ForceMigrateGroup: %v", err)
	}
	if !m.Core(1).Owns(srv) {
		t.Error("server did not move under ForceMigrateGroup")
	}
	if got := m.Load(1); math.Abs(got-1.1) > 1e-9 {
		t.Errorf("core 1 load %.3f after forced move, want 1.1", got)
	}
}

func TestMigrateValidation(t *testing.T) {
	eng := sim.New()
	m := newMachine(eng, 2)
	srv := reservedServer(t, m, 0, "s", 0.2)
	foreign := sched.New(sched.Config{Engine: eng}).NewServer("foreign", 10*simtime.Millisecond, 100*simtime.Millisecond, sched.HardCBS)
	cases := []struct {
		name     string
		srv      *sched.Server
		from, to int
	}{
		{"nil server", nil, 0, 1},
		{"from out of range", srv, -1, 1},
		{"to out of range", srv, 0, 2},
		{"same core", srv, 0, 0},
		{"wrong source core", srv, 1, 0},
		{"foreign server", foreign, 0, 1},
	}
	for _, tc := range cases {
		if err := m.MigrateGroup(single(tc.srv), tc.from, tc.to, 0.2); err == nil {
			t.Errorf("%s: migration accepted", tc.name)
		}
	}
	if m.Migrations() != 0 {
		t.Errorf("Migrations() = %d", m.Migrations())
	}
}

func TestMigrateConservesBandwidth(t *testing.T) {
	eng := sim.New()
	m := newMachine(eng, 4)
	srvs := []*sched.Server{
		reservedServer(t, m, 0, "a", 0.40),
		reservedServer(t, m, 0, "b", 0.25),
		reservedServer(t, m, 1, "c", 0.30),
	}
	total := func() float64 {
		var s float64
		for _, l := range m.Loads() {
			s += l
		}
		return s
	}
	reserved := func() float64 {
		var s float64
		for i := 0; i < m.Cores(); i++ {
			s += m.Core(i).TotalReservedBandwidth()
		}
		return s
	}
	wantTotal, wantReserved := total(), reserved()
	moves := []struct {
		srv      *sched.Server
		from, to int
		hint     float64
	}{
		{srvs[0], 0, 2, 0.40},
		{srvs[1], 0, 3, 0.25},
		{srvs[2], 1, 0, 0.30},
		{srvs[0], 2, 1, 0.40},
	}
	for i, mv := range moves {
		if err := m.MigrateGroup(single(mv.srv), mv.from, mv.to, mv.hint); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if got := total(); math.Abs(got-wantTotal) > 1e-9 {
			t.Errorf("move %d: hint bandwidth not conserved: %v, want %v", i, got, wantTotal)
		}
		if got := reserved(); math.Abs(got-wantReserved) > 1e-9 {
			t.Errorf("move %d: reserved bandwidth not conserved: %v, want %v", i, got, wantReserved)
		}
		if !m.Core(mv.to).Owns(mv.srv) {
			t.Errorf("move %d: server not owned by destination", i)
		}
	}
	if m.Migrations() != len(moves) {
		t.Errorf("Migrations() = %d, want %d", m.Migrations(), len(moves))
	}
}

// TestConcurrentPlaceReleaseLeavesNoOrphan hammers the placement
// accounts from many goroutines: every successful Place is eventually
// Released, so the accounts must drain back to zero — an orphaned
// reservation would permanently shrink the machine. Run under -race
// this also proves the accounts are safe to probe concurrently.
func TestConcurrentPlaceReleaseLeavesNoOrphan(t *testing.T) {
	m := newMachine(sim.New(), 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 500; i++ {
				bw := r.Uniform(0.05, 0.3)
				core, err := m.Place(bw)
				if err != nil {
					continue // machine transiently full: fine
				}
				if m.Load(core) > 1+1e-9 {
					t.Errorf("core %d overloaded at %.3f", core, m.Load(core))
				}
				m.Release(core, bw)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	for i, load := range m.Loads() {
		if load > 1e-9 {
			t.Errorf("core %d still charged %.6f after all releases", i, load)
		}
	}
}
