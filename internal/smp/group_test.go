package smp_test

import (
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/smp"
)

// reservedGroup builds a multi-reservation unit on one core — the
// shape an untuned background load leaves on the machine: n servers
// of bw each, one aggregate placement hint.
func reservedGroup(t *testing.T, m *smp.Machine, core int, name string, bw float64, n int) sched.Group {
	t.Helper()
	if err := m.Reserve(core, bw*float64(n)); err != nil {
		t.Fatalf("Reserve(%d, %v): %v", core, bw*float64(n), err)
	}
	var g sched.Group
	period := 100 * simtime.Millisecond
	for i := 0; i < n; i++ {
		srv := m.Core(core).NewServer(name, simtime.Duration(bw*float64(period)), period, sched.HardCBS)
		task := m.Core(core).NewTask(name)
		task.AttachTo(srv, 0)
		g.Servers = append(g.Servers, srv)
	}
	return g
}

func totalMachineBandwidth(m *smp.Machine) float64 {
	var sum float64
	for i := 0; i < m.Cores(); i++ {
		sum += m.Core(i).TotalReservedBandwidth()
	}
	return sum
}

// TestMigrateGroupConservesBandwidth is the first group-migration
// invariant: moving a multi-server unit changes where bandwidth is
// reserved, never how much.
func TestMigrateGroupConservesBandwidth(t *testing.T) {
	eng := sim.New()
	m := newMachine(eng, 4)
	g := reservedGroup(t, m, 0, "bg", 0.1, 3)
	before := totalMachineBandwidth(m)
	loadSumBefore := 0.0
	for _, l := range m.Loads() {
		loadSumBefore += l
	}

	if err := smp.MoveGroup(g, m, 0, m, 2, 0.3, nil); err != nil {
		t.Fatalf("MoveGroup: %v", err)
	}
	if got := totalMachineBandwidth(m); math.Abs(got-before) > 1e-12 {
		t.Errorf("total reserved bandwidth changed: %.6f -> %.6f", before, got)
	}
	loadSumAfter := 0.0
	for _, l := range m.Loads() {
		loadSumAfter += l
	}
	if math.Abs(loadSumAfter-loadSumBefore) > 1e-9 {
		t.Errorf("total effective load changed: %.6f -> %.6f", loadSumBefore, loadSumAfter)
	}
	// The whole unit lives on the destination.
	for _, srv := range g.Servers {
		if !m.Core(2).Owns(srv) {
			t.Errorf("server %s not owned by the destination", srv.Name())
		}
	}
	if got := m.Core(0).TotalReservedBandwidth(); got != 0 {
		t.Errorf("origin still reserves %.3f", got)
	}
	if m.Migrations() != 1 {
		t.Errorf("Migrations() = %d, want 1 (a group is one migration)", m.Migrations())
	}
}

// TestMigrateGroupAllOrNothing is the second invariant: when the
// destination cannot admit the whole unit, nothing moves — not even
// the members that would fit individually.
func TestMigrateGroupAllOrNothing(t *testing.T) {
	eng := sim.New()
	m := newMachine(eng, 2)
	g := reservedGroup(t, m, 0, "bg", 0.2, 3) // 0.6 aggregate
	// Core 1 has room for any single member (0.2) but not the unit.
	if err := m.Reserve(1, 0.5); err != nil {
		t.Fatal(err)
	}
	loadsBefore := m.Loads()

	if err := smp.MoveGroup(g, m, 0, m, 1, 0.6, nil); err == nil {
		t.Fatal("partial-fit group migration accepted")
	}
	loadsAfter := m.Loads()
	for i := range loadsBefore {
		if loadsBefore[i] != loadsAfter[i] {
			t.Errorf("core %d load changed across rejected group migration: %v -> %v",
				i, loadsBefore[i], loadsAfter[i])
		}
	}
	for _, srv := range g.Servers {
		if !m.Core(0).Owns(srv) {
			t.Errorf("server %s left the origin despite rejection", srv.Name())
		}
	}
	if m.Migrations() != 0 {
		t.Errorf("Migrations() = %d after rejection", m.Migrations())
	}

	// The same unit fits once the blocker shrinks; the rejection must
	// not have corrupted the accounts.
	m.Release(1, 0.4)
	if err := smp.MoveGroup(g, m, 0, m, 1, 0.6, nil); err != nil {
		t.Fatalf("group migration after freeing room: %v", err)
	}
}
