package selftune

import "testing"

// TestTopologyAwareCostMonotonicity pins the scoring contract: raising
// the cross-node cost never plans more cross-node moves on the same
// snapshot. Two 2-core nodes ({0,1} and {2,3}); the hot core offers a
// big unit that only fits across the boundary and a small one that
// fits next door, so the cost weight is exactly what arbitrates.
func TestTopologyAwareCostMonotonicity(t *testing.T) {
	crossAt := func(cost float64) int {
		snap := Snapshot{
			Reason:    PlanPeriodic,
			Threshold: 0.1,
			Loads:     []float64{0.9, 0.75, 0, 0.3},
			Reserved:  make([]float64, 4),
			ULub:      []float64{1, 1, 1, 1},
			Domain:    []int{0, 0, 1, 1},
			Units: []Unit{
				{ID: 0, Kind: "video", Core: 0, Charge: 0.5, Migratable: true}, // fits only on node 1
				{ID: 1, Kind: "video", Core: 0, Charge: 0.1, Migratable: true}, // fits next door on core 1
			},
		}
		cross := 0
		for _, mv := range (topologyAware{cost: cost}).Plan(snap) {
			if snap.Distance(snap.Units[mv.Unit].Core, mv.To) > 0 {
				cross++
			}
		}
		return cross
	}
	prev := -1
	var prevCost float64
	for i, cost := range []float64{0, 0.4, 0.8, 0.95, 1.5} {
		cross := crossAt(cost)
		if i > 0 && cross > prev {
			t.Errorf("cost %.2f plans %d cross-node moves, more than %d at cost %.2f",
				cost, cross, prev, prevCost)
		}
		prev, prevCost = cross, cost
	}
	if crossAt(0) == 0 {
		t.Error("cost 0 planned no cross-node move; the scenario lost its teeth")
	}
	if crossAt(1.5) != 0 {
		t.Error("cost 1.5 still crossed the node with an intra-node candidate available")
	}
}
