package selftune

import (
	"math/rand/v2"
	"testing"
)

// TestStealingStopsWhenColdestClaimerIsWithinThreshold is the
// claims-saturation case of the shared planner: core 0 holds ninety
// migratable 0.01 units (load 0.9), core 1 is empty and core 2 holds
// one unmovable 0.75 unit. Core 1 claims stealMax units, after which
// the coldest core still allowed to claim is core 2, whose gap to the
// hot core (0.07) is within the 0.1 threshold: the plan stops there,
// under the topology-aware policy too.
func TestStealingStopsWhenColdestClaimerIsWithinThreshold(t *testing.T) {
	snap := Snapshot{
		Reason:    PlanPeriodic,
		Threshold: 0.1,
		Loads:     []float64{0.9, 0, 0.75},
		Reserved:  make([]float64, 3),
		ULub:      []float64{1, 1, 1},
		Domain:    []int{0, 0, 0},
	}
	for i := 0; i < 90; i++ {
		snap.Units = append(snap.Units, Unit{ID: i, Kind: "video", Core: 0, Charge: 0.01, Migratable: true})
	}
	snap.Units = append(snap.Units, Unit{ID: 90, Kind: "rtload", Core: 2, Charge: 0.75})
	for _, b := range []Balancer{BalanceWorkStealing(), BalanceTopologyAware()} {
		moves := b.Plan(snap)
		if len(moves) != stealMax {
			t.Errorf("%s planned %d moves, want %d", b.Name(), len(moves), stealMax)
		}
		for _, mv := range moves {
			if mv.To != 1 {
				t.Errorf("%s moved unit %d to core %d, want core 1", b.Name(), mv.Unit, mv.To)
			}
		}
	}
}

// genSnapshot builds a flat-topology planning snapshot of 2–8 cores
// at one U_lub. Half the shapes pile 20–90 small units on core 0, so
// a cold core runs out of claims before the spread closes; the rest
// scatter bigger units, some unmovable and some of kind "shared".
func genSnapshot(r *rand.Rand) Snapshot {
	n := 2 + r.IntN(7)
	ulub := []float64{0.7, 0.9, 1}[r.IntN(3)]
	snap := Snapshot{
		Reason:    PlanPeriodic,
		Threshold: 0.05 + 0.15*r.Float64(),
		Loads:     make([]float64, n),
		Reserved:  make([]float64, n),
		ULub:      make([]float64, n),
		Domain:    make([]int, n),
	}
	for c := range snap.ULub {
		snap.ULub[c] = ulub
	}
	add := func(core int, charge float64, kind string, migratable bool) {
		if snap.Loads[core]+charge > ulub {
			return
		}
		snap.Loads[core] += charge
		snap.Units = append(snap.Units, Unit{
			ID: len(snap.Units), Kind: kind, Core: core,
			Hint: charge, Reserved: charge, Charge: charge, Migratable: migratable,
		})
	}
	if r.IntN(2) == 0 {
		for i, m := 0, 20+r.IntN(71); i < m; i++ {
			add(0, 0.005+0.01*r.Float64(), "video", true)
		}
		for c := 1; c < n; c++ {
			if r.IntN(2) == 0 {
				add(c, ulub*r.Float64(), "rtload", false)
			}
		}
	} else {
		for i, m := 0, r.IntN(6*n); i < m; i++ {
			kind := []string{"video", "shared", "rtload"}[r.IntN(3)]
			add(r.IntN(n), 0.01+0.3*r.Float64(), kind, r.IntN(5) > 0)
		}
	}
	// Hint-only load the units do not account for.
	for c := range snap.Loads {
		snap.Loads[c] += 0.05 * r.Float64() * (ulub - snap.Loads[c])
	}
	return snap
}

// TestPoliciesPlanAlikeOnFlatTopologies checks the shared planner over
// generated snapshots: on a flat topology, work stealing and the
// topology-aware policy plan the same (unit, destination) sequence,
// and no planned move overfills its destination, exceeds the pairwise
// gap at its step or takes a destination past stealMax claims.
func TestPoliciesPlanAlikeOnFlatTopologies(t *testing.T) {
	r := rand.New(rand.NewPCG(24, 1))
	saturated := 0
	for k := 0; k < 400; k++ {
		snap := genSnapshot(r)
		steal := BalanceWorkStealing().Plan(snap)
		numa := BalanceTopologyAware().Plan(snap)
		if len(steal) != len(numa) {
			t.Fatalf("snapshot %d: work stealing planned %d moves, topology-aware %d", k, len(steal), len(numa))
		}
		loads := append([]float64(nil), snap.Loads...)
		claims := make([]int, len(loads))
		for i, mv := range steal {
			if numa[i].Unit != mv.Unit || numa[i].To != mv.To {
				t.Fatalf("snapshot %d, move %d: work stealing moves unit %d to core %d, topology-aware unit %d to core %d",
					k, i, mv.Unit, mv.To, numa[i].Unit, numa[i].To)
			}
			u := snap.Units[mv.Unit]
			from := u.Core
			if !u.Migratable {
				t.Fatalf("snapshot %d, move %d: unit %d is not migratable", k, i, mv.Unit)
			}
			if u.Charge >= loads[from]-loads[mv.To] {
				t.Fatalf("snapshot %d, move %d: charge %.4f not under the gap %.4f between cores %d and %d",
					k, i, u.Charge, loads[from]-loads[mv.To], from, mv.To)
			}
			if loads[mv.To]+u.Charge > snap.ULub[mv.To]+1e-9 {
				t.Fatalf("snapshot %d, move %d: core %d overfilled to %.4f", k, i, mv.To, loads[mv.To]+u.Charge)
			}
			loads[from] -= u.Charge
			loads[mv.To] += u.Charge
			claims[mv.To]++
			if claims[mv.To] > stealMax {
				t.Fatalf("snapshot %d: core %d claimed more than %d units", k, mv.To, stealMax)
			}
			if claims[mv.To] == stealMax {
				saturated++
			}
		}
	}
	if saturated == 0 {
		t.Error("no generated snapshot ran a core out of claims: the generator lost its teeth")
	}
}
