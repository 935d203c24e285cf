package smp_test

import (
	"errors"
	"math"
	"slices"
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
	if err := smp.MoveGroup(single(srv), m, 0, m, 1, 0.3, nil); err == nil {
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
}

// errRefused is the commit refusal of the MoveGroup tests.
var errRefused = errors.New("refused")

// twoMachines builds a 2-core source and a 2-core destination machine
// on engines of their own, in disjoint PID ranges: a 0.3-hint unit
// whose server reserves 0.4 on source core 0, and a 0.1 hint already
// held by destination core 1.
func twoMachines(t *testing.T) (src, dst *smp.Machine, srv *sched.Server) {
	t.Helper()
	src = smp.New([]*sim.Engine{sim.New(), sim.New()}, 1, 0)
	dst = smp.New([]*sim.Engine{sim.New(), sim.New()}, 1, 1_000_000_000)
	if err := src.Reserve(0, 0.3); err != nil {
		t.Fatal(err)
	}
	srv = src.Core(0).NewServer("mover", 40*simtime.Millisecond, 100*simtime.Millisecond, sched.HardCBS)
	src.Core(0).NewTask("mover").AttachTo(srv, 0)
	if err := dst.Reserve(1, 0.1); err != nil {
		t.Fatal(err)
	}
	return src, dst, srv
}

// TestMoveGroupBetweenMachines: while the claim runs, the unit is
// still on its source core, which carries its 0.4 reservation, and the
// destination carries the full admission charge in flight. Afterwards
// only the hint stays charged on the destination. A move to another
// machine counts as no migration of either machine.
func TestMoveGroupBetweenMachines(t *testing.T) {
	src, dst, srv := twoMachines(t)
	var dstDuring, srcDuring float64
	claim := func() error {
		dstDuring, srcDuring = dst.Load(1), src.Load(0)
		return nil
	}
	if err := smp.MoveGroup(single(srv), src, 0, dst, 1, 0.3, claim); err != nil {
		t.Fatalf("MoveGroup: %v", err)
	}
	if math.Abs(dstDuring-0.5) > 1e-9 {
		t.Errorf("destination load %v while the claim ran, want the 0.1 hint plus the 0.4 charge", dstDuring)
	}
	if math.Abs(srcDuring-0.4) > 1e-9 {
		t.Errorf("source load %v while the claim ran, want the unit's 0.4 reservation", srcDuring)
	}
	if !dst.Core(1).Owns(srv) {
		t.Error("server not owned by the destination")
	}
	if got := src.Load(0); got != 0 {
		t.Errorf("source load %v after the move, want 0", got)
	}
	// With the server gone again, the destination's load is its hint
	// account: the held 0.1 plus the unit's 0.3, not its 0.4 charge.
	if err := dst.Core(1).DetachAll(single(srv)); err != nil {
		t.Fatal(err)
	}
	if got := dst.Load(1); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("destination hint account %v after the move, want 0.4", got)
	}
	for name, m := range map[string]*smp.Machine{"source": src, "destination": dst} {
		if m.Migrations() != 0 || m.CrossNodeMigrations() != 0 {
			t.Errorf("%s counted %d migrations (%d cross-node) for a move to another machine",
				name, m.Migrations(), m.CrossNodeMigrations())
		}
	}
}

// TestMoveGroupRefusedCommitChangesNothing: a commit that refuses puts
// the unit back on its core, and both machines' loads are bit for bit
// what they were.
func TestMoveGroupRefusedCommitChangesNothing(t *testing.T) {
	src, dst, srv := twoMachines(t)
	srcLoads, dstLoads := src.Loads(), dst.Loads()
	err := smp.MoveGroup(single(srv), src, 0, dst, 1, 0.3, func() error { return errRefused })
	if !errors.Is(err, errRefused) {
		t.Fatalf("MoveGroup error %v, want the commit's refusal", err)
	}
	if !src.Core(0).Owns(srv) || dst.Core(1).Owns(srv) {
		t.Error("server did not return to source core 0")
	}
	if got := src.Loads(); !slices.Equal(got, srcLoads) {
		t.Errorf("source loads %v after refused move, want %v", got, srcLoads)
	}
	if got := dst.Loads(); !slices.Equal(got, dstLoads) {
		t.Errorf("destination loads %v after refused move, want %v", got, dstLoads)
	}
}

// TestMoveGroupRefusedKeepsReservedSum: the source core's reserved
// bandwidth is a float sum in server order, so a refused move must put
// the unit back in its old place, not at the end of the list. With
// hints of 0.01 the reserved side dominates Load: 0.1+0.2+0.3 sums to
// 0.6000000000000001, while 0.2+0.3+0.1 sums to 0.6.
func TestMoveGroupRefusedKeepsReservedSum(t *testing.T) {
	m := newMachine(sim.New(), 2)
	var srvs []*sched.Server
	for _, bw := range []float64{0.1, 0.2, 0.3} {
		if err := m.Reserve(0, 0.01); err != nil {
			t.Fatal(err)
		}
		period := 100 * simtime.Millisecond
		srv := m.Core(0).NewServer("s", simtime.Duration(bw*float64(period)), period, sched.HardCBS)
		m.Core(0).NewTask("s").AttachTo(srv, 0)
		srvs = append(srvs, srv)
	}
	before := m.Load(0)
	if err := smp.MoveGroup(single(srvs[0]), m, 0, m, 1, 0.01, func() error { return errRefused }); !errors.Is(err, errRefused) {
		t.Fatalf("MoveGroup error %v, want the commit's refusal", err)
	}
	if got := m.Load(0); got != before {
		t.Errorf("source load %v after refused move, want %v", got, before)
	}
	if got := m.Core(0).Servers(); !slices.Equal(got, srvs) {
		t.Errorf("source servers reordered by a refused move")
	}
}

// TestMoveGroupCountsOnlyCompletedMoves: within one machine, a move
// whose commit refuses counts neither as a migration nor as a
// cross-node one; the same move committed counts once each.
func TestMoveGroupCountsOnlyCompletedMoves(t *testing.T) {
	m := newMachine(sim.New(), 4)
	if err := m.SetTopology(smp.Uniform(4, 2)); err != nil {
		t.Fatal(err)
	}
	srv := reservedServer(t, m, 0, "mover", 0.3)
	loads := m.Loads()
	if err := smp.MoveGroup(single(srv), m, 0, m, 2, 0.3, func() error { return errRefused }); err == nil {
		t.Fatal("refused commit reported success")
	}
	if m.Migrations() != 0 || m.CrossNodeMigrations() != 0 {
		t.Errorf("refused move counted: %d migrations, %d cross-node", m.Migrations(), m.CrossNodeMigrations())
	}
	if got := m.Loads(); !slices.Equal(got, loads) {
		t.Errorf("loads %v after refused move, want %v", got, loads)
	}
	if err := smp.MoveGroup(single(srv), m, 0, m, 2, 0.3, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if m.Migrations() != 1 || m.CrossNodeMigrations() != 1 {
		t.Errorf("committed move counted %d migrations, %d cross-node, want 1 and 1",
			m.Migrations(), m.CrossNodeMigrations())
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
		if err := smp.MoveGroup(single(tc.srv), m, tc.from, m, tc.to, 0.2, nil); err == nil {
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
		if err := smp.MoveGroup(single(mv.srv), m, mv.from, m, mv.to, mv.hint, nil); err != nil {
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

// TestMoveGroupKeepsDestinationReservations runs sched's
// TestMoveKeepsDestinationReservations through the machine: X (0.5)
// moves at 5 ms from core 0, where it was starved behind Y, to core 1,
// whose Z (0.45) has a 3.6 ms job due at 12 ms. The move passes
// admission, 0.45 + 0.5 under U_lub = 1, so it must not cost Z its
// deadline: Z finishes at 7.6 ms, as it does without the move.
func TestMoveGroupKeepsDestinationReservations(t *testing.T) {
	const ms, us = simtime.Millisecond, simtime.Microsecond
	eng := sim.New()
	m := newMachine(eng, 2)
	var x *sched.Server
	for _, name := range []string{"Y", "X"} {
		if err := m.Reserve(0, 0.5); err != nil {
			t.Fatal(err)
		}
		x = m.Core(0).NewServer(name, 5*ms, 10*ms, sched.HardCBS)
		task := m.Core(0).NewTask(name)
		task.AttachTo(x, 0)
		eng.At(0, func() { task.Release(task.NewJob(0, 5*ms, simtime.Time(10*ms))) })
	}
	if err := m.Reserve(1, 0.45); err != nil {
		t.Fatal(err)
	}
	z := m.Core(1).NewServer("Z", 3600*us, 8*ms, sched.HardCBS)
	zTask := m.Core(1).NewTask("Z")
	zTask.AttachTo(z, 0)
	var done simtime.Time
	zTask.OnJobComplete = func(_ *sched.Job, now simtime.Time) { done = now }
	eng.At(simtime.Time(4*ms), func() {
		zTask.Release(zTask.NewJob(eng.Now(), 3600*us, simtime.Time(12*ms)))
	})
	eng.At(simtime.Time(5*ms), func() {
		if err := smp.MoveGroup(single(x), m, 0, m, 1, 0.5, nil); err != nil {
			t.Fatalf("MoveGroup: %v", err)
		}
	})
	eng.RunUntil(simtime.Time(30 * ms))
	if done != simtime.Time(7600*us) {
		t.Errorf("Z's job due at 12ms finished at %v, want 7.6ms", done)
	}
	if zTask.Stats().Missed != 0 {
		t.Errorf("Z missed %d deadlines", zTask.Stats().Missed)
	}
}
