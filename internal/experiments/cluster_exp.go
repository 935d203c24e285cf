package experiments

import (
	"fmt"
	"time"

	"repro/internal/simtime"
	"repro/selftune"
	"repro/selftune/cluster"
)

// The cluster contention experiment lifts the paper's question to a
// fleet: when tenants hold static capacity reservations and one of
// them surges, the surge tenant drowns in admission rejects while the
// fleet idles — exactly the over/under-provisioning bind that
// motivated adaptive reservations per task. Running the same arrival
// streams twice, once with static realm reservations and once with the
// autoscaler growing them out of observed queue pressure (never below
// the static promise), shows the cluster-scope version of the paper's
// result: the adaptive policy admits strictly more of every realm's
// work without taking anything from the others.

// ClusterRunResult is one policy's half of the experiment.
type ClusterRunResult struct {
	Policy string

	// Realms is the final per-realm accounting, in registration order.
	Realms []cluster.RealmStats

	// RejectFraction is the fleet-wide rejected/arrived ratio.
	RejectFraction float64
	// Requests is the fleet-wide request completions observed on the
	// detail machines; LatencyP99 is their p99 completion latency.
	Requests int64
	// LatencyP99 is the p99 of the fleet-wide latency distribution.
	LatencyP99 simtime.Duration
	// Unfairness is 1 - Jain's fairness index over the realms'
	// admitted fractions: 0 when every realm is admitted evenly,
	// approaching 1-1/n when one realm starves.
	Unfairness float64
	// Replacements counts cross-machine re-placements by the fleet
	// balancer.
	Replacements int
	// Parallelism is the number of worker goroutines that advanced the
	// machine engines each tick (1 = serial advance).
	Parallelism int
	// Events is the simulation work: machine engine steps plus cluster
	// admissions, departures and re-placements.
	Events uint64
	// WallSeconds is the host time the run took (not part of any
	// determinism contract).
	WallSeconds float64
}

// EventsPerSecond returns simulation events per wall second.
func (r ClusterRunResult) EventsPerSecond() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Events) / r.WallSeconds
}

// ClusterResult is the outcome of the cluster contention experiment.
type ClusterResult struct {
	Machines int
	Cores    int
	RealmN   int
	Horizon  simtime.Duration

	Static ClusterRunResult // fixed reservations
	Auto   ClusterRunResult // autoscaled reservations
}

// Table renders the result in the repo's report style.
func (r ClusterResult) Table() string {
	s := fmt.Sprintf("== Cluster contention (%d machines x %d cores, %d realms, %v) ==\n",
		r.Machines, r.Cores, r.RealmN, r.Horizon)
	for _, run := range []ClusterRunResult{r.Static, r.Auto} {
		s += fmt.Sprintf("%-7s reject %.4f | unfairness %.4f | replacements %d | %d requests p99 %v | %.0f events/s (x%d workers)\n",
			run.Policy, run.RejectFraction, run.Unfairness, run.Replacements,
			run.Requests, run.LatencyP99, run.EventsPerSecond(),
			run.Parallelism)
		for _, st := range run.Realms {
			s += fmt.Sprintf("        %-10s res %6.1f arrived %6d admitted %6d rejected %5d (%.4f) grows %d shrinks %d\n",
				st.Name, st.Reservation, st.Arrived, st.Admitted, st.Rejected,
				st.RejectFraction(), st.Grows, st.Shrinks)
		}
	}
	return s
}

// ClusterContention runs the surge scenario on machines x cores with
// the given number of realms (a quarter of them surging mid-run),
// once with static reservations and once with the autoscaler. The
// headline configuration is 100 machines x 64 cores x 8 realms over
// 30s. Both runs see identical arrival streams: the realms' random
// streams are derived from the cluster seed and never consumed by
// admission decisions, so the comparison is paired sample-for-sample.
// parallel sets the per-tick engine-advance workers (0 = GOMAXPROCS);
// it moves only the wall clock, never a result — the cluster's
// determinism contract.
func ClusterContention(seed uint64, machines, cores, realms int, horizon simtime.Duration, parallel int) ClusterResult {
	if machines < 2 {
		machines = 100
	}
	if cores < 2 {
		cores = 64
	}
	if realms < 2 {
		realms = 8
	}
	if horizon <= 0 {
		horizon = 30 * simtime.Second
	}
	res := ClusterResult{Machines: machines, Cores: cores, RealmN: realms, Horizon: horizon}
	res.Static = clusterRun(seed, machines, cores, realms, horizon, false, parallel)
	res.Auto = clusterRun(seed, machines, cores, realms, horizon, true, parallel)
	return res
}

// clusterScenario describes one realm of the contention scenario.
type clusterScenario struct {
	cfg   cluster.RealmConfig
	surge bool
	base  float64 // baseline arrival rate, jobs/s
}

// clusterScenarios builds the realm set: three quarters steady
// interactive tenants, one quarter surge tenants whose arrival rate
// triples for the middle third of the run (a tenant-wide VM boot
// storm, heavy-tailed service included).
func clusterScenarios(machines, cores, realms int) []clusterScenario {
	capacity := float64(machines * cores)
	perRealm := capacity / float64(8*realms) // 1/8 of the fleet statically promised
	if perRealm < 2 {
		perRealm = 2
	}
	surgeN := realms / 4
	if surgeN < 1 {
		surgeN = 1
	}
	out := make([]clusterScenario, 0, realms)
	for i := 0; i < realms; i++ {
		if i < realms-surgeN {
			// Steady tenant: ~75% of its reservation busy on average.
			rate := 0.75 * perRealm / (0.30 * 1.3)
			out = append(out, clusterScenario{
				base: rate,
				cfg: cluster.RealmConfig{
					Name:        fmt.Sprintf("steady%d", i),
					Reservation: perRealm,
					Rate:        rate,
					QueueCap:    32,
					Mix: []cluster.WorkloadSpec{
						{Kind: "webserver", Hint: 0.30, Service: cluster.Exp(1200 * selftune.Millisecond), Weight: 3},
						{Kind: "gameloop", Hint: 0.25, Service: cluster.Uniform(800*selftune.Millisecond, 1800*selftune.Millisecond), Weight: 2},
						{Kind: "rtload", Hint: 0.25, Util: 0.25, Service: cluster.Exp(1500 * selftune.Millisecond)},
					},
				},
			})
			continue
		}
		// Surge tenant: half-busy at baseline, tripling mid-run; VM
		// boots with Pareto residency dominate the mix.
		rate := 0.5 * perRealm / (0.35 * 1.2)
		out = append(out, clusterScenario{
			surge: true,
			base:  rate,
			cfg: cluster.RealmConfig{
				Name:        fmt.Sprintf("surge%d", i),
				Reservation: perRealm,
				Rate:        rate,
				QueueCap:    32,
				Mix: []cluster.WorkloadSpec{
					{Kind: "vmboot", Hint: 0.40, Util: 0.30, Service: cluster.Pareto(900*selftune.Millisecond, 1.6), Weight: 2},
					{Kind: "webserver", Hint: 0.30, Service: cluster.Exp(1000 * selftune.Millisecond)},
				},
			},
		})
	}
	return out
}

// clusterRun executes the scenario once.
func clusterRun(seed uint64, machines, cores, realms int, horizon simtime.Duration, auto bool, parallel int) ClusterRunResult {
	opts := []cluster.Option{
		cluster.WithSeed(seed),
		cluster.WithMachines(machines),
		cluster.WithCores(cores),
		cluster.WithDetail(1),
		cluster.WithRequestStats(),
		cluster.WithFleetBalancer(cluster.FleetWorstFit(0, 0)),
	}
	if parallel > 0 {
		opts = append(opts, cluster.WithParallelism(parallel))
	}
	if auto {
		opts = append(opts, cluster.WithAutoscaler(cluster.DefaultAutoscalerConfig()))
	}
	c, err := cluster.New(opts...)
	if err != nil {
		panic(err)
	}
	defer c.Close()
	scen := clusterScenarios(machines, cores, realms)
	handles := make([]*cluster.Realm, len(scen))
	for i, s := range scen {
		r, err := c.AddRealm(s.cfg)
		if err != nil {
			panic(err)
		}
		handles[i] = r
	}

	// Thirds: baseline, surge, recovery. SetRate between chunked Run
	// calls is the surge lever.
	third := horizon / 3
	start := time.Now()
	c.Run(third)
	for i, s := range scen {
		if s.surge {
			handles[i].SetRate(3 * s.base)
		}
	}
	c.Run(third)
	for i, s := range scen {
		if s.surge {
			handles[i].SetRate(s.base)
		}
	}
	c.Run(horizon - 2*third)
	wall := time.Since(start).Seconds()

	out := ClusterRunResult{
		Policy:       "static",
		WallSeconds:  wall,
		Replacements: c.Replacements(),
		Parallelism:  c.Parallelism(),
	}
	if auto {
		out.Policy = "auto"
	}
	var arrived, rejected, departed, admitted int
	admitFracs := make([]float64, 0, len(handles))
	for _, r := range handles {
		st := r.Stats()
		out.Realms = append(out.Realms, st)
		arrived += st.Arrived
		rejected += st.Rejected
		admitted += st.Admitted
		departed += st.Departed
		admitFracs = append(admitFracs, st.AdmitFraction())
	}
	if arrived > 0 {
		out.RejectFraction = float64(rejected) / float64(arrived)
	}
	out.Unfairness = 1 - jainIndex(admitFracs)
	out.Requests, _ = c.FleetRequests()
	out.LatencyP99 = c.FleetLatency().Quantile(0.99)
	out.Events = c.Steps() + uint64(admitted) + uint64(departed) + uint64(c.Replacements())
	return out
}

// jainIndex computes Jain's fairness index (sum x)^2 / (n * sum x^2):
// 1 when all shares are equal, 1/n when one share takes everything.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
