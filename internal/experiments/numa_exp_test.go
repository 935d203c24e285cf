package experiments

import (
	"testing"

	"repro/internal/simtime"
)

// TestNUMAContention64CoreCutsCrossNodeMoves is the acceptance
// scenario of the topology work: on the 4×16 machine both policies
// must reach a final spread of 0.2, and the topology-aware policy must
// do it with at most half the cross-node migration fraction of plain
// work-stealing.
func TestNUMAContention64CoreCutsCrossNodeMoves(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core recovery is a long simulation")
	}
	r := NUMAContention(1, 4, 16, 2*simtime.Second)
	for _, p := range []NUMAPolicyResult{r.WorkStealing, r.Topo} {
		if p.SpreadStart < 0.8 {
			t.Fatalf("%s recovery started at spread %.3f; the consolidation lost its teeth",
				p.Policy, p.SpreadStart)
		}
		if p.SpreadEnd > 0.2 {
			t.Errorf("%s left spread %.3f after 2s, want <= 0.2", p.Policy, p.SpreadEnd)
		}
		if p.Migrations == 0 {
			t.Errorf("%s performed no migrations", p.Policy)
		}
		if p.FramesDecoded == 0 {
			t.Errorf("%s decoded no frames during recovery", p.Policy)
		}
	}
	if r.WorkStealing.CrossNodeFraction < 0.2 {
		t.Fatalf("plain work-stealing crossed nodes on only %.0f%% of moves; the contrast lost its teeth",
			r.WorkStealing.CrossNodeFraction*100)
	}
	if r.Topo.CrossNodeFraction > r.WorkStealing.CrossNodeFraction/2 {
		t.Errorf("topology-aware cross-node fraction %.3f, want <= half of work-stealing's %.3f",
			r.Topo.CrossNodeFraction, r.WorkStealing.CrossNodeFraction)
	}
}

// TestNUMAContentionScalesDown keeps the scenario's shape on a small
// machine, where the full test budget allows it to run un-skipped.
func TestNUMAContentionScalesDown(t *testing.T) {
	r := NUMAContention(5, 2, 6, simtime.Second)
	if r.Cores != 12 || r.Tenants != 8 {
		t.Fatalf("2x6 scenario shaped %d cores / %d tenants", r.Cores, r.Tenants)
	}
	if r.Topo.SpreadEnd >= r.Topo.SpreadStart/2 {
		t.Errorf("topology-aware left spread %.3f of initial %.3f",
			r.Topo.SpreadEnd, r.Topo.SpreadStart)
	}
	if r.Topo.CrossNode > r.WorkStealing.CrossNode {
		t.Errorf("topology-aware crossed nodes %d times, work-stealing %d",
			r.Topo.CrossNode, r.WorkStealing.CrossNode)
	}
}
