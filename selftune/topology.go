package selftune

// Topology-aware balancing: the first policy that makes migrations
// cost something. The built-in push/pull/stealing policies treat every
// core as equidistant, which is exactly what a partitioned
// multiprocessor simulation lets them get away with — but on real
// hardware a move across a NUMA boundary forfeits cache warmth and
// memory locality. With WithTopology installed, the Snapshot carries
// each core's domain, and this policy runs the stealing planner with
// every candidate move scored by what it gains (bandwidth taken off
// the hottest core) minus what it costs (a distance-weighted fraction
// of the moved bandwidth). The result: intra-node steals win while a
// node has room, crossing a node boundary happens only when the spread
// cannot come down any other way, and TuneShared groups never leave
// their domain at all.

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
// the machine topology (WithTopology): on every balance tick it plans
// like the work-stealing policy, and stops where it stops, but each
// candidate (unit, destination) pair is scored
//
//	score = charge × (1 − cost × distance)
//
// with distance 0 inside a cache/NUMA domain and 1 across, and cost
// DefaultCrossNodeCost — so intra-node destinations are preferred,
// cross-node moves happen only when a node saturates (no intra-node
// destination can take the load), and shared-reservation groups
// (TuneShared) keep hard affinity to their domain. On a machine
// without a topology every distance is 0 and the policy degenerates
// to plain greedy stealing.
func BalanceTopologyAware() Balancer { return topologyAware{cost: DefaultCrossNodeCost} }

func (topologyAware) Name() string { return "topology-aware" }

func (b topologyAware) Plan(snap Snapshot) []Move {
	if snap.Reason == PlanAdmissionReason {
		return PlanAdmission(snap)
	}
	return planPush(snap, stealMax*len(snap.Loads), "numa", b.cost)
}
