package selftune

// Topology-aware balancing: the first policy that makes migrations
// cost something. The built-in push/pull/stealing policies treat every
// core as equidistant, which is exactly what a partitioned
// multiprocessor simulation lets them get away with — but on real
// hardware a move across a NUMA boundary forfeits cache warmth and
// memory locality. With WithTopology installed, the Snapshot carries
// each core's domain, and this policy scores every candidate move by
// what it gains (bandwidth taken off the hottest core) minus what it
// costs (a distance-weighted fraction of the moved bandwidth). The
// result: intra-node steals win while a node has room, crossing a node
// boundary happens only when the spread cannot come down any other
// way, and TuneShared groups never leave their domain at all.

// DefaultCrossNodeCost is the fraction of a unit's bandwidth a
// cross-node move forfeits in the default BalanceTopologyAware scoring
// (the stand-in for lost cache warmth). At 0.75 a cross-node candidate
// must carry four times the bandwidth of an intra-node one to win the
// same planning step.
const DefaultCrossNodeCost = 0.75

// topologyAware is the cost-based policy. cost is the cross-node
// weight: 0 prices node crossings like local moves (plain stealing), 1
// makes a cross-node move worthless in itself, chosen only as the
// saturation fallback, and values above 1 actively prefer the smallest
// unit when forced across.
type topologyAware struct {
	cost float64
}

// BalanceTopologyAware returns the cost-based placement policy over
// the machine topology (WithTopology): on every balance tick it moves
// units off the hottest core like the work-stealing policy, but each
// candidate (unit, destination) pair is scored
//
//	score = charge × (1 − cost × distance)
//
// with distance 0 inside a cache/NUMA domain and 1 across — so
// intra-node destinations are preferred, cross-node moves happen only
// when a node saturates (no intra-node destination can take the load),
// and shared-reservation groups (TuneShared) keep hard affinity to
// their domain. On a machine without a topology every distance is 0
// and the policy degenerates to plain greedy stealing.
func BalanceTopologyAware() Balancer { return topologyAware{cost: DefaultCrossNodeCost} }

func (topologyAware) Name() string { return "topology-aware" }

func (b topologyAware) Plan(snap Snapshot) []Move {
	if snap.Reason == PlanAdmissionReason {
		return PlanAdmission(snap)
	}
	loads := append([]float64(nil), snap.Loads...)
	unitCore := make([]int, len(snap.Units))
	for i, u := range snap.Units {
		unitCore[i] = u.Core
	}
	used := make([]bool, len(snap.Units))
	claims := make([]int, len(loads))
	maxMoves := stealMax * len(loads)
	var moves []Move
	for len(moves) < maxMoves {
		if spread(loads) <= snap.Threshold {
			break
		}
		hi := 0
		for i, l := range loads {
			if l > loads[hi] {
				hi = i
			}
		}
		// Best-scoring (unit, destination) pair off the hot core. A
		// candidate must actually reduce the pairwise imbalance (charge
		// under the gap) and fit the destination's bound; among the
		// survivors the score decides, ties going to the colder
		// destination so one node fills evenly.
		best, bestDest, bestScore, bestDestLoad := -1, -1, 0.0, 0.0
		for i, u := range snap.Units {
			if used[i] || unitCore[i] != hi || !u.Migratable || u.Charge <= 0 {
				continue
			}
			for dest := range loads {
				if dest == hi || claims[dest] >= stealMax {
					continue
				}
				if u.Charge >= loads[hi]-loads[dest] {
					continue
				}
				if loads[dest]+u.Charge > snap.ULub[dest]+1e-9 {
					continue
				}
				dist := snap.Distance(hi, dest)
				if dist > 0 && u.Kind == "shared" {
					// Group affinity: a shared-reservation application's
					// threads stay co-located within their domain, whatever
					// the pressure.
					continue
				}
				score := u.Charge * (1 - b.cost*float64(dist))
				if best >= 0 && (score < bestScore ||
					(score == bestScore && loads[dest] >= bestDestLoad)) {
					continue
				}
				best, bestDest, bestScore, bestDestLoad = i, dest, score, loads[dest]
			}
		}
		if best < 0 {
			break
		}
		// A non-positive score still moves: the spread is above the
		// threshold and this is the cheapest step down — the cross-node
		// fallback when the hot core's own node has no room left.
		charge := snap.Units[best].Charge
		used[best] = true
		unitCore[best] = bestDest
		loads[hi] -= charge
		loads[bestDest] += charge
		claims[bestDest]++
		moves = append(moves, Move{Unit: best, To: bestDest, Reason: "numa"})
	}
	return moves
}
