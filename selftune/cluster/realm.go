package cluster

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/selftune"
	"repro/selftune/telemetry"
)

// WorkloadSpec is one entry of a realm's workload mix: which
// registered kind an arrival spawns, what placement bandwidth it is
// charged, and how long it stays.
type WorkloadSpec struct {
	// Kind is the registered workload kind ("webserver", "vmboot", ...).
	Kind string
	// Hint is the placement bandwidth charged per job, in fractions of
	// one core; it is also what the job's reservation accounting debits
	// from the realm. Zero derives the kind's default utilisation.
	Hint float64
	// Util, when positive, is passed to the spawn as SpawnUtil (kinds
	// that scale with one). Zero leaves the kind's default.
	Util float64
	// Service is the job residency distribution. Required.
	Service Dist
	// Weight is the spec's share of the realm's arrivals (relative to
	// the other specs' weights; zero counts as 1).
	Weight float64
}

// RealmConfig describes one tenant realm.
type RealmConfig struct {
	// Name identifies the realm (telemetry source, reports). Required
	// and unique within a cluster.
	Name string
	// Reservation is the realm's initial capacity slice, in
	// core-equivalents across the whole fleet. Required. It is also the
	// autoscaler's floor: a realm is never scaled below what it was
	// statically promised.
	Reservation float64
	// MaxReservation caps autoscaler growth; 0 means the fleet
	// capacity.
	MaxReservation float64
	// Rate is the open-loop arrival rate in jobs per second (Poisson).
	// Zero is a valid idle realm; change it mid-run via SetRate.
	Rate float64
	// QueueCap bounds the realm's front-end queue; arrivals beyond it
	// are rejected. 0 means 64.
	QueueCap int
	// Mix is the realm's workload mix. Required (at least one spec).
	Mix []WorkloadSpec
	// SLO, when set (Quantile > 0), is the realm's latency objective,
	// scored over the realm's completed requests under
	// WithRequestStats: fraction Quantile must finish within Threshold.
	// Name and Source are ignored — the realm itself is the scope.
	SLO telemetry.SLO
}

// arrival is one not-yet-admitted request.
type arrival struct {
	spec    int // index into cfg.Mix
	service selftune.Duration
}

// Realm is a tenant: a capacity reservation sliced across the fleet, a
// Poisson arrival stream over a workload mix, a bounded front-end
// queue, and admission/departure accounting.
type Realm struct {
	c   *Cluster
	cfg RealmConfig
	r   *rng.Source

	rate        float64
	reservation float64
	floor       float64
	used        float64
	queue       []arrival
	mixCum      []float64

	arrived  int
	admitted int
	queuedT  int // total arrivals that went through the queue
	rejected int
	departed int
	replaced int
	grows    int
	shrinks  int

	// sloWithin counts the realm's completions within its SLO
	// threshold. The cluster collector holds every other request
	// statistic; it scores only the SLOs installed on it, which its
	// Snapshot publishes.
	sloWithin int64

	growStreak   int
	shrinkStreak int
}

// Name returns the realm's name.
func (r *Realm) Name() string { return r.cfg.Name }

// Reservation returns the realm's current capacity slice in
// core-equivalents (the autoscaler moves it).
func (r *Realm) Reservation() float64 { return r.reservation }

// Used returns the core-equivalents currently charged to admitted,
// still-resident jobs.
func (r *Realm) Used() float64 { return r.used }

// QueueDepth returns the number of arrivals waiting in the front-end
// queue.
func (r *Realm) QueueDepth() int { return len(r.queue) }

// Rate returns the current arrival rate in jobs per second.
func (r *Realm) Rate() float64 { return r.rate }

// SetRate changes the arrival rate from the next tick on — the surge
// lever of the scaling scenarios.
func (r *Realm) SetRate(perSec float64) {
	if perSec < 0 {
		panic(fmt.Sprintf("cluster: SetRate(%v)", perSec))
	}
	r.rate = perSec
}

// RealmStats is a realm's accounting snapshot.
type RealmStats struct {
	Name        string
	Reservation float64 // current capacity slice, core-equivalents
	Used        float64 // charged to resident jobs
	Queue       int     // current queue depth
	Arrived     int     // total arrivals
	Admitted    int     // placed on a machine (immediately or from the queue)
	Queued      int     // arrivals that waited in the queue first
	Rejected    int     // turned away (queue full)
	Departed    int     // completed and despawned
	Replaced    int     // re-placed across machines by the fleet balancer
	Grows       int     // autoscaler grow decisions applied
	Shrinks     int     // autoscaler shrink decisions applied

	// Request-level latency stats, populated under WithRequestStats
	// from the detail machines' completions (zero otherwise).
	Requests int64 // completed requests observed
	Misses   int64 // of them, past their deadline
	// Latency quantile estimates over the observed completions (0 with
	// no requests).
	LatencyP50 selftune.Duration
	LatencyP95 selftune.Duration
	LatencyP99 selftune.Duration
	// SLOAttainment is the fraction of scored requests within the
	// realm's SLO threshold (1 with no SLO or no requests); SLOMet
	// reports whether it meets the objective's quantile.
	SLOAttainment float64
	SLOMet        bool
	// SLOQuantile and SLOThreshold echo the realm's configured
	// objective (both zero without one), so fleet policies can rank
	// tardiness against the target (BalanceSLOAware does).
	SLOQuantile  float64
	SLOThreshold selftune.Duration
}

// ErrorBudgetBurn returns the realm's observed SLO miss rate relative
// to the miss budget its objective allows (1 - quantile): burn 1.0
// means misses arrive exactly at the budgeted rate, above 1 the
// objective is heading for violation (the same convention as
// telemetry.SLOStatus.ErrorBudgetBurn). Realms without an objective —
// or without scored requests — burn nothing.
func (s RealmStats) ErrorBudgetBurn() float64 {
	if s.SLOQuantile <= 0 {
		return 0
	}
	miss := 1 - s.SLOAttainment
	budget := 1 - s.SLOQuantile
	if budget <= 0 {
		if miss > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return miss / budget
}

// RejectFraction returns Rejected/Arrived (0 for an idle realm).
func (s RealmStats) RejectFraction() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.Rejected) / float64(s.Arrived)
}

// AdmitFraction returns Admitted/Arrived (1 for an idle realm).
func (s RealmStats) AdmitFraction() float64 {
	if s.Arrived == 0 {
		return 1
	}
	return float64(s.Admitted) / float64(s.Arrived)
}

// Stats returns the realm's current accounting snapshot.
func (r *Realm) Stats() RealmStats {
	g, _ := r.c.col.RequestGroup(r.cfg.Name)
	st := RealmStats{
		Name:        r.cfg.Name,
		Reservation: r.reservation,
		Used:        r.used,
		Queue:       len(r.queue),
		Arrived:     r.arrived,
		Admitted:    r.admitted,
		Queued:      r.queuedT,
		Rejected:    r.rejected,
		Departed:    r.departed,
		Replaced:    r.replaced,
		Grows:       r.grows,
		Shrinks:     r.shrinks,
		Requests:    g.Requests,
		Misses:      g.Misses,
		LatencyP50:  g.Latency.Quantile(0.50),
		LatencyP95:  g.Latency.Quantile(0.95),
		LatencyP99:  g.Latency.Quantile(0.99),
	}
	st.SLOAttainment = 1
	if r.cfg.SLO.Quantile > 0 && g.Requests > 0 {
		st.SLOAttainment = float64(r.sloWithin) / float64(g.Requests)
	}
	st.SLOMet = st.SLOAttainment >= r.cfg.SLO.Quantile
	st.SLOQuantile = r.cfg.SLO.Quantile
	st.SLOThreshold = r.cfg.SLO.Threshold
	return st
}

// Latency returns a copy of the realm's completion-latency
// distribution (empty without WithRequestStats).
func (r *Realm) Latency() telemetry.LatencyHistogram {
	g, _ := r.c.col.RequestGroup(r.cfg.Name)
	return g.Latency
}

// queueCap returns the realm's configured queue bound.
func (r *Realm) queueCap() int {
	if r.cfg.QueueCap > 0 {
		return r.cfg.QueueCap
	}
	return 64
}

// maxReservation returns the autoscaler's growth ceiling.
func (r *Realm) maxReservation() float64 {
	if r.cfg.MaxReservation > 0 {
		return r.cfg.MaxReservation
	}
	return r.c.Capacity()
}

// pickSpec draws one mix entry by weight.
func (r *Realm) pickSpec() int {
	if len(r.mixCum) == 1 {
		return 0
	}
	u := r.r.Float64() * r.mixCum[len(r.mixCum)-1]
	for i, c := range r.mixCum {
		if u < c {
			return i
		}
	}
	return len(r.mixCum) - 1
}

// specHint returns the placement bandwidth charged for a mix entry.
func (r *Realm) specHint(i int) float64 {
	s := r.cfg.Mix[i]
	if s.Hint > 0 {
		return s.Hint
	}
	if s.Util > 0 {
		return s.Util
	}
	return 0.10
}

// demand returns the realm's observed appetite in core-equivalents:
// what resident jobs hold plus what the queued arrivals would need.
func (r *Realm) demand() float64 {
	d := r.used
	for _, a := range r.queue {
		d += r.specHint(a.spec)
	}
	return d
}

// validate checks a RealmConfig before AddRealm accepts it.
func (cfg RealmConfig) validate(fleetCapacity float64) error {
	if cfg.Name == "" {
		return fmt.Errorf("cluster: realm needs a name")
	}
	if cfg.Reservation <= 0 {
		return fmt.Errorf("cluster: realm %q: reservation %v must be positive", cfg.Name, cfg.Reservation)
	}
	if cfg.Reservation > fleetCapacity {
		return fmt.Errorf("cluster: realm %q: reservation %v exceeds fleet capacity %v",
			cfg.Name, cfg.Reservation, fleetCapacity)
	}
	if cfg.MaxReservation != 0 && cfg.MaxReservation < cfg.Reservation {
		return fmt.Errorf("cluster: realm %q: max reservation %v below initial %v",
			cfg.Name, cfg.MaxReservation, cfg.Reservation)
	}
	if cfg.Rate < 0 {
		return fmt.Errorf("cluster: realm %q: negative arrival rate", cfg.Name)
	}
	if cfg.QueueCap < 0 {
		return fmt.Errorf("cluster: realm %q: negative queue capacity", cfg.Name)
	}
	if len(cfg.Mix) == 0 {
		return fmt.Errorf("cluster: realm %q: empty workload mix", cfg.Name)
	}
	for i, s := range cfg.Mix {
		if s.Kind == "" {
			return fmt.Errorf("cluster: realm %q: mix[%d] needs a kind", cfg.Name, i)
		}
		if s.Service == nil {
			return fmt.Errorf("cluster: realm %q: mix[%d] (%s) needs a service distribution",
				cfg.Name, i, s.Kind)
		}
		if s.Hint < 0 || s.Hint > 1 {
			return fmt.Errorf("cluster: realm %q: mix[%d] (%s) hint %v out of [0,1]",
				cfg.Name, i, s.Kind, s.Hint)
		}
		if s.Weight < 0 {
			return fmt.Errorf("cluster: realm %q: mix[%d] (%s) negative weight",
				cfg.Name, i, s.Kind)
		}
	}
	if cfg.SLO.Quantile != 0 || cfg.SLO.Threshold != 0 {
		if cfg.SLO.Quantile <= 0 || cfg.SLO.Quantile > 1 {
			return fmt.Errorf("cluster: realm %q: SLO quantile %v must be in (0,1]",
				cfg.Name, cfg.SLO.Quantile)
		}
		if cfg.SLO.Threshold <= 0 {
			return fmt.Errorf("cluster: realm %q: SLO threshold %v must be positive",
				cfg.Name, cfg.SLO.Threshold)
		}
	}
	return nil
}
