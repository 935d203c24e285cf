package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/selftune"
	"repro/selftune/telemetry"
)

// testCluster builds a small fleet with the given extra options.
func testCluster(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	base := []Option{
		WithSeed(7),
		WithMachines(2),
		WithCores(4),
	}
	c, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestReservationAccounting(t *testing.T) {
	c := testCluster(t, WithDetail(0))
	r, err := c.AddRealm(RealmConfig{
		Name:        "tenant",
		Reservation: 1.0,
		Rate:        40,
		Mix: []WorkloadSpec{
			{Kind: "webserver", Hint: 0.25, Service: Fixed(350 * selftune.Millisecond)},
		},
	})
	if err != nil {
		t.Fatalf("AddRealm: %v", err)
	}

	c.Run(2 * selftune.Second)

	// Mid-run invariants: the realm never exceeds its reservation, and
	// machine accounting agrees with the resident job set.
	if r.Used() > r.Reservation()+1e-9 {
		t.Fatalf("realm used %.3f exceeds reservation %.3f", r.Used(), r.Reservation())
	}
	snap := c.Snapshot()
	var machineSum, jobSum float64
	for _, u := range snap.MachineUsed {
		machineSum += u
	}
	for _, j := range snap.Jobs {
		jobSum += j.Hint
	}
	if diff := machineSum - jobSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("machine accounting %.4f disagrees with resident jobs %.4f", machineSum, jobSum)
	}
	if diff := jobSum - r.Used(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("realm used %.4f disagrees with resident jobs %.4f", r.Used(), jobSum)
	}
	if r.Stats().Admitted == 0 {
		t.Fatal("no job was ever admitted")
	}

	// Stop arrivals and let everything depart (the queue holds up to 64
	// jobs draining about 11 per second): every core-equivalent must
	// come back.
	r.SetRate(0)
	c.Run(10 * selftune.Second)
	if c.Resident() != 0 {
		t.Fatalf("%d jobs still resident after drain", c.Resident())
	}
	if r.Used() != 0 {
		t.Fatalf("realm still charged %.4f after full drain", r.Used())
	}
	st := r.Stats()
	if st.Admitted != st.Departed {
		t.Fatalf("admitted %d != departed %d after drain", st.Admitted, st.Departed)
	}
	if st.Arrived != st.Admitted+st.Rejected {
		t.Fatalf("arrived %d != admitted %d + rejected %d with an empty queue",
			st.Arrived, st.Admitted, st.Rejected)
	}
}

func TestQueueBuildupAndDrain(t *testing.T) {
	c := testCluster(t, WithDetail(0))
	r, err := c.AddRealm(RealmConfig{
		Name:        "choked",
		Reservation: 0.5, // room for two 0.25 jobs at a time
		Rate:        30,
		QueueCap:    10,
		Mix: []WorkloadSpec{
			{Kind: "webserver", Hint: 0.25, Service: Fixed(2 * selftune.Second)},
		},
	})
	if err != nil {
		t.Fatalf("AddRealm: %v", err)
	}

	c.Run(1 * selftune.Second)
	if got := r.QueueDepth(); got != 10 {
		t.Fatalf("queue depth %d after overload second, want full (10)", got)
	}
	st := r.Stats()
	if st.Rejected == 0 {
		t.Fatal("overloaded realm rejected nothing")
	}
	if r.Used() < 0.5-1e-9 {
		t.Fatalf("reservation not saturated under overload: used %.3f", r.Used())
	}

	// Cut arrivals: two jobs complete every 2s, so the ten queued jobs
	// drain within 10s and then the residents finish.
	r.SetRate(0)
	c.Run(14 * selftune.Second)
	if got := r.QueueDepth(); got != 0 {
		t.Fatalf("queue depth %d after drain, want 0", got)
	}
	if c.Resident() != 0 || r.Used() != 0 {
		t.Fatalf("resident=%d used=%.3f after drain", c.Resident(), r.Used())
	}
	st = r.Stats()
	if st.Queued == 0 {
		t.Fatal("no arrival ever waited in the queue")
	}
	if st.Admitted != st.Departed {
		t.Fatalf("admitted %d != departed %d", st.Admitted, st.Departed)
	}
}

func TestAutoscalerHysteresis(t *testing.T) {
	c := testCluster(t,
		WithMachines(1),
		WithCores(8),
		WithDetail(0),
		WithAutoscaler(AutoscalerConfig{
			Every:        1 * selftune.Second,
			QueueHigh:    2,
			UtilLow:      0.5,
			Sustain:      3,
			GrowFactor:   2.0,
			ShrinkFactor: 0.5,
		}),
	)
	// QueueCap equals QueueHigh: the queue pins at the grow trigger
	// while overloaded and empties within one tick once arrivals stop,
	// so each phase exercises exactly one controller path. The 2.5s
	// service keeps departures off the 1s decision grid — a departure
	// landing exactly on a decision tick would drain the queue first
	// and reset the streak.
	r, err := c.AddRealm(RealmConfig{
		Name:        "bursty",
		Reservation: 0.5,
		Rate:        100,
		QueueCap:    2,
		Mix: []WorkloadSpec{
			{Kind: "webserver", Hint: 0.25, Service: Fixed(2500 * selftune.Millisecond)},
		},
	})
	if err != nil {
		t.Fatalf("AddRealm: %v", err)
	}

	// Decisions fire at t=0s, 1s, 2s, ... The queue is over QueueHigh
	// from the very first tick, so the grow streak reaches Sustain=3 at
	// the t=2s decision — and not a moment earlier. That is the
	// hysteresis: two sustained intervals of pressure move nothing.
	c.Run(1900 * selftune.Millisecond) // decisions at 0s and 1s have fired
	if got := r.Reservation(); got != 0.5 {
		t.Fatalf("reservation moved to %.3f before the Sustain guard elapsed", got)
	}
	c.Run(200 * selftune.Millisecond) // crosses the t=2s decision
	if got := r.Reservation(); got != 1.0 {
		t.Fatalf("reservation %.3f after sustained pressure, want one 2.0x grow to 1.0", got)
	}
	if r.Stats().Grows != 1 {
		t.Fatalf("grows=%d, want exactly 1", r.Stats().Grows)
	}

	// Cut arrivals. The queue is already drained (the post-grow
	// re-drain admitted it), residents finish within 2s, and the grown
	// reservation then sits idle; the shrink path must bring it back
	// down but never below the initial reservation (the static
	// promise).
	r.SetRate(0)
	c.Run(15 * selftune.Second)
	if got := r.Reservation(); got != 0.5 {
		t.Fatalf("reservation %.3f after sustained idleness, want the 0.5 floor", got)
	}
	if r.Stats().Shrinks == 0 {
		t.Fatal("autoscaler never shrank an idle realm")
	}
}

func TestAutoscalerGrowthBoundedByFleet(t *testing.T) {
	c := testCluster(t,
		WithMachines(1),
		WithCores(2), // tiny fleet: capacity 2.0
		WithDetail(0),
		WithAutoscaler(AutoscalerConfig{
			Every:      1 * selftune.Second,
			QueueHigh:  1,
			Sustain:    1,
			GrowFactor: 10,
		}),
	)
	a, err := c.AddRealm(RealmConfig{
		Name: "greedy", Reservation: 1.0, Rate: 200, QueueCap: 100,
		Mix: []WorkloadSpec{{Kind: "webserver", Hint: 0.25, Service: Fixed(time30s)}},
	})
	if err != nil {
		t.Fatalf("AddRealm: %v", err)
	}
	b, err := c.AddRealm(RealmConfig{
		Name: "neighbour", Reservation: 0.5, Rate: 0,
		Mix: []WorkloadSpec{{Kind: "webserver", Hint: 0.25, Service: Fixed(time30s)}},
	})
	if err != nil {
		t.Fatalf("AddRealm: %v", err)
	}

	c.Run(5 * selftune.Second)
	// greedy wants 10x its reservation but may only take the fleet's
	// unreserved headroom: 2.0 - 1.0 - 0.5 = 0.5.
	if got := a.Reservation(); got != 1.5 {
		t.Fatalf("greedy reservation %.3f, want 1.5 (capped by fleet headroom)", got)
	}
	if got := b.Reservation(); got != 0.5 {
		t.Fatalf("neighbour reservation %.3f, its slice must be untouched", got)
	}
	if c.Reserved() > c.Capacity()+1e-9 {
		t.Fatalf("fleet overcommitted: %.3f reserved of %.3f", c.Reserved(), c.Capacity())
	}
}

const time30s = 30 * selftune.Second

func TestAddRealmValidation(t *testing.T) {
	c := testCluster(t) // capacity 2x4 = 8
	mix := []WorkloadSpec{{Kind: "webserver", Hint: 0.25, Service: Fixed(selftune.Second)}}
	if _, err := c.AddRealm(RealmConfig{Name: "a", Reservation: 6, Mix: mix}); err != nil {
		t.Fatalf("valid realm rejected: %v", err)
	}
	cases := []RealmConfig{
		{Name: "", Reservation: 1, Mix: mix},                          // no name
		{Name: "a", Reservation: 1, Mix: mix},                         // duplicate
		{Name: "b", Reservation: 0, Mix: mix},                         // no reservation
		{Name: "b", Reservation: 100, Mix: mix},                       // beyond capacity
		{Name: "b", Reservation: 3, Mix: mix},                         // overcommits remaining 2
		{Name: "b", Reservation: 1, Mix: nil},                         // no mix
		{Name: "b", Reservation: 1, Mix: []WorkloadSpec{{Kind: "x"}}}, // no service dist
		{Name: "b", Reservation: 1, MaxReservation: 0.5, Mix: mix},    // max below initial
		{Name: "b", Reservation: 1, Rate: -1, Mix: mix},               // negative rate
		{Name: "b", Reservation: 1, Mix: mix[:1], QueueCap: -3},       // negative queue
	}
	for i, cfg := range cases {
		if _, err := c.AddRealm(cfg); err == nil {
			t.Errorf("case %d (%+v): invalid realm accepted", i, cfg)
		}
	}
}

func TestFleetWorstFitPlans(t *testing.T) {
	snap := FleetSnapshot{
		MachineCap:  4,
		MachineUsed: []float64{2.0, 0},
		Jobs: []JobStat{
			{ID: 1, Machine: 0, Hint: 0.5},
			{ID: 2, Machine: 0, Hint: 0.5},
			{ID: 3, Machine: 0, Hint: 0.5},
			{ID: 4, Machine: 0, Hint: 0.5},
		},
	}
	plan := FleetWorstFit(0.1, 8).Plan(snap)
	if len(plan) == 0 {
		t.Fatal("imbalanced snapshot produced no plan")
	}
	used := []float64{2.0, 0}
	seen := map[int]bool{}
	for i, p := range plan {
		if i > 0 && plan[i-1].Job >= p.Job {
			t.Fatalf("plan not sorted by job ID: %+v", plan)
		}
		if seen[p.Job] {
			t.Fatalf("job %d planned twice", p.Job)
		}
		seen[p.Job] = true
		if p.To != 1 {
			t.Fatalf("move %d targeted machine %d, want the cold machine 1", p.Job, p.To)
		}
		used[0] -= 0.5
		used[1] += 0.5
	}
	if gap := (used[0] - used[1]) / snap.MachineCap; gap > 0.1 && gap < -0.1 {
		t.Fatalf("plan leaves gap %.2f above threshold", gap)
	}
	// Balanced snapshots must not churn.
	snap.MachineUsed = []float64{1.0, 1.0}
	if p := FleetWorstFit(0.1, 8).Plan(snap); len(p) != 0 {
		t.Fatalf("balanced snapshot produced churn: %+v", p)
	}
}

// buildDeterministic assembles the fleet the determinism tests run
// repeatedly: detail machines, an autoscaler, a fleet balancer,
// heavy-tailed service and a vmboot mix — every moving part in one
// pot. Extra options (parallelism, machine telemetry) stack on top.
func buildDeterministic(t *testing.T, extra ...Option) *Cluster {
	t.Helper()
	c, err := New(append([]Option{
		WithSeed(42),
		WithMachines(3),
		WithCores(8),
		WithDetail(1),
		WithAutoscaler(DefaultAutoscalerConfig()),
		WithFleetBalancer(FleetWorstFit(0, 0)),
	}, extra...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.AddRealm(RealmConfig{
		Name: "web", Reservation: 3, Rate: 12, QueueCap: 16,
		Mix: []WorkloadSpec{
			{Kind: "webserver", Hint: 0.2, Service: Exp(900 * selftune.Millisecond), Weight: 3},
			{Kind: "gameloop", Hint: 0.3, Service: Uniform(500*selftune.Millisecond, 2*selftune.Second)},
		},
		SLO: telemetry.SLO{Quantile: 0.95, Threshold: 200 * selftune.Millisecond},
	}); err != nil {
		t.Fatalf("AddRealm web: %v", err)
	}
	if _, err := c.AddRealm(RealmConfig{
		Name: "batch", Reservation: 2, Rate: 6, QueueCap: 16,
		Mix: []WorkloadSpec{
			{Kind: "vmboot", Hint: 0.4, Util: 0.3, Service: Pareto(800*selftune.Millisecond, 1.5)},
			{Kind: "rtload", Hint: 0.25, Util: 0.25, Service: Exp(1200 * selftune.Millisecond), Weight: 2},
		},
	}); err != nil {
		t.Fatalf("AddRealm batch: %v", err)
	}
	return c
}

// TestSeededDeterminism is the reproducibility contract: two clusters
// built from the same seed produce deeply equal fleet snapshots and
// byte-identical telemetry, regardless of how the run is chunked.
func TestSeededDeterminism(t *testing.T) {
	c1 := buildDeterministic(t)
	c2 := buildDeterministic(t)

	c1.Run(4 * selftune.Second)
	for i := 0; i < 4; i++ { // same horizon, different Run chunking
		c2.Run(1 * selftune.Second)
	}

	if c1.Steps() != c2.Steps() {
		t.Fatalf("engine steps diverged: %d vs %d", c1.Steps(), c2.Steps())
	}
	s1, s2 := c1.Snapshot(), c2.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("fleet snapshots diverged:\n%+v\nvs\n%+v", s1, s2)
	}
	b1, err := json.Marshal(c1.Collector().Snapshot())
	if err != nil {
		t.Fatalf("marshal telemetry: %v", err)
	}
	b2, err := json.Marshal(c2.Collector().Snapshot())
	if err != nil {
		t.Fatalf("marshal telemetry: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("telemetry snapshots not byte-identical (%d vs %d bytes)", len(b1), len(b2))
	}
	if s1.At == 0 || len(s1.Jobs) == 0 {
		t.Fatal("determinism test ran an empty scenario")
	}

	// The scenario must actually have exercised the moving parts it
	// claims to seal: queueing and the cluster telemetry fold.
	tel := c1.Collector().Snapshot()
	if tel.Ticks == 0 || tel.LoadEvents == 0 {
		t.Fatalf("telemetry fold missed realm ticks (%d) or load samples (%d)", tel.Ticks, tel.LoadEvents)
	}
}

// TestSnapshotJobsSortedAfterScatteredDepartures admits hundreds of
// jobs whose exponential service times make them depart in scattered
// order, not in the order they arrived; the resident list must stay
// strictly ascending by ID, and the fleet snapshot must list exactly
// the resident jobs in that order.
func TestSnapshotJobsSortedAfterScatteredDepartures(t *testing.T) {
	c := testCluster(t, WithMachines(8), WithCores(16), WithDetail(0))
	if _, err := c.AddRealm(RealmConfig{
		Name: "churn", Reservation: 100, Rate: 400,
		Mix: []WorkloadSpec{{Kind: "webserver", Hint: 0.05, Service: Exp(2 * selftune.Second)}},
	}); err != nil {
		t.Fatalf("AddRealm: %v", err)
	}
	c.Run(4 * selftune.Second)

	resident := make(map[int]bool, len(c.active))
	for i, j := range c.active {
		resident[j.id] = true
		if i > 0 && j.id <= c.active[i-1].id {
			t.Fatalf("resident list not strictly ascending at %d: %d after %d", i, j.id, c.active[i-1].id)
		}
	}
	// IDs are dense, so the departed jobs are [1, jobSeq] minus the
	// residents. Departures were scattered if one of them left after a
	// job that is still resident had arrived.
	lastDeparted := 0
	for id := c.jobSeq; id > 0; id-- {
		if !resident[id] {
			lastDeparted = id
			break
		}
	}
	if len(resident) < 200 || len(c.active) == 0 || lastDeparted <= c.active[0].id {
		t.Fatalf("scenario too tame: %d residents of %d issued, largest departed ID %d",
			len(resident), c.jobSeq, lastDeparted)
	}
	jobs := c.Snapshot().Jobs
	if len(jobs) != len(resident) {
		t.Fatalf("snapshot lists %d jobs, %d resident", len(jobs), len(resident))
	}
	for i, j := range jobs {
		if !resident[j.ID] {
			t.Fatalf("snapshot job %d is not resident", j.ID)
		}
		if i > 0 && j.ID <= jobs[i-1].ID {
			t.Fatalf("snapshot jobs not strictly ascending at %d: %d after %d", i, j.ID, jobs[i-1].ID)
		}
	}
}

// shuffler is a test balancer that re-places the lowest-ID job onto
// the next machine every opportunity — worthless as policy, but it
// drives the execution path the load-balanced experiment rarely needs.
type shuffler struct{ n int }

func (s *shuffler) Name() string { return "shuffler" }
func (s *shuffler) Plan(snap FleetSnapshot) []Placement {
	if len(snap.Jobs) == 0 {
		return nil
	}
	j := snap.Jobs[0]
	return []Placement{{Job: j.ID, To: (j.Machine + 1) % s.n}}
}

func TestFleetReplacementAccounting(t *testing.T) {
	c := testCluster(t,
		WithDetail(2), // both machines run their workloads for real
		WithFleetBalancer(&shuffler{n: 2}),
		WithFleetBalanceInterval(100*selftune.Millisecond),
	)
	r, err := c.AddRealm(RealmConfig{
		Name: "mobile", Reservation: 1.5, Rate: 8,
		Mix: []WorkloadSpec{{Kind: "webserver", Hint: 0.25, Service: Fixed(2 * selftune.Second)}},
	})
	if err != nil {
		t.Fatalf("AddRealm: %v", err)
	}
	c.Run(3 * selftune.Second)

	if c.Replacements() == 0 {
		t.Fatal("shuffler produced no re-placements")
	}
	if got := r.Stats().Replaced; got != c.Replacements() {
		t.Fatalf("realm counted %d replacements, cluster %d", got, c.Replacements())
	}
	tel := c.Collector().Snapshot()
	if tel.Migrations != c.Replacements() {
		t.Fatalf("telemetry folded %d migrations, want %d", tel.Migrations, c.Replacements())
	}
	if tel.Batches == 0 {
		t.Fatal("no migration batches folded")
	}
	// Re-placement must conserve the accounting exactly.
	snap := c.Snapshot()
	var machineSum, jobSum float64
	for _, u := range snap.MachineUsed {
		machineSum += u
	}
	for _, j := range snap.Jobs {
		jobSum += j.Hint
	}
	if diff := machineSum - jobSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("machine accounting %.4f disagrees with resident jobs %.4f after shuffling", machineSum, jobSum)
	}
	// The queue backlog drains at ~3 jobs/s; give it room.
	r.SetRate(0)
	c.Run(12 * selftune.Second)
	if c.Resident() != 0 || r.Used() != 0 {
		t.Fatalf("resident=%d used=%.3f after drain despite shuffling", c.Resident(), r.Used())
	}
}

// stalePlanner waits until a job it saw in its previous snapshot has
// departed, then returns one plan of five placements the executor must
// skip (that departed job, an ID never issued, a negative ID, a
// destination out of range, a job's own machine) around one valid
// move, and plans nothing afterwards.
type stalePlanner struct {
	prev  []int // job IDs in the previous snapshot, ascending
	fired bool
}

func (s *stalePlanner) Name() string { return "stale" }
func (s *stalePlanner) Plan(snap FleetSnapshot) []Placement {
	if s.fired {
		return nil
	}
	departed := -1
	for _, id := range s.prev {
		if !slices.ContainsFunc(snap.Jobs, func(j JobStat) bool { return j.ID == id }) {
			departed = id
			break
		}
	}
	s.prev = s.prev[:0]
	for _, j := range snap.Jobs {
		s.prev = append(s.prev, j.ID)
	}
	var onHot []JobStat // resident jobs on the machine with more hint mass
	hot, cold := 0, 1
	if snap.MachineUsed[1] > snap.MachineUsed[0] {
		hot, cold = 1, 0
	}
	for _, j := range snap.Jobs {
		if j.Machine == hot {
			onHot = append(onHot, j)
		}
	}
	if departed < 0 || len(onHot) < 3 {
		return nil
	}
	s.fired = true
	return []Placement{
		{Job: departed, To: cold},
		{Job: math.MaxInt32, To: cold}, // never issued
		{Job: -1, To: cold},
		{Job: onHot[0].ID, To: len(snap.MachineUsed)},
		{Job: onHot[1].ID, To: hot},
		{Job: onHot[2].ID, To: cold}, // the valid move
	}
}

// TestRebalanceSkipsStalePlacements: a plan may name jobs that are no
// longer resident, IDs that never were, and destinations that make no
// move; the executor skips each of them and runs only the valid move,
// so every counter rises by one and the hint ledger still balances.
func TestRebalanceSkipsStalePlacements(t *testing.T) {
	planner := &stalePlanner{}
	c := testCluster(t,
		WithDetail(0),
		WithFleetBalancer(planner),
		WithFleetBalanceInterval(100*selftune.Millisecond),
	)
	r, err := c.AddRealm(RealmConfig{
		Name: "churn", Reservation: 2, Rate: 40,
		Mix: []WorkloadSpec{{Kind: "webserver", Hint: 0.1, Service: Exp(500 * selftune.Millisecond)}},
	})
	if err != nil {
		t.Fatalf("AddRealm: %v", err)
	}
	c.Run(2 * selftune.Second)

	if !planner.fired {
		t.Fatal("no job departed between two plans — the stale placements were never issued")
	}
	if got := c.Replacements(); got != 1 {
		t.Errorf("cluster executed %d re-placements, want only the valid move", got)
	}
	if got := r.Stats().Replaced; got != 1 {
		t.Errorf("realm counted %d re-placements, want 1", got)
	}
	if got := c.Collector().Snapshot().Migrations; got != 1 {
		t.Errorf("collector folded %d migration events, want 1", got)
	}
	snap := c.Snapshot()
	var machineSum, jobSum float64
	for _, u := range snap.MachineUsed {
		machineSum += u
	}
	for _, j := range snap.Jobs {
		jobSum += j.Hint
	}
	if diff := machineSum - jobSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("machine accounting %.4f disagrees with resident jobs %.4f", machineSum, jobSum)
	}
}

func TestClusterTelemetryFold(t *testing.T) {
	c := testCluster(t, WithDetail(0), WithFleetBalancer(FleetWorstFit(0.05, 4)))
	_, err := c.AddRealm(RealmConfig{
		Name: "t", Reservation: 0.5, Rate: 60, QueueCap: 4,
		Mix: []WorkloadSpec{{Kind: "webserver", Hint: 0.25, Service: Fixed(3 * selftune.Second)}},
	})
	if err != nil {
		t.Fatalf("AddRealm: %v", err)
	}
	c.Run(3 * selftune.Second)

	tel := c.Collector().Snapshot()
	if tel.LoadEvents == 0 {
		t.Fatal("no machine load samples folded")
	}
	if tel.Cores != c.Machines() {
		t.Fatalf("collector sees %d cores, want %d machines-as-cores", tel.Cores, c.Machines())
	}
	if tel.Exhaustions == 0 {
		t.Fatal("queued arrivals folded no exhaustion events")
	}
	if tel.Rejects == 0 {
		t.Fatal("queue-full rejections folded no admission rejects")
	}
	if tel.Ticks == 0 {
		t.Fatal("realm reservation trajectory folded no tuner ticks")
	}
}

// TestMachineTracerBudget pins a fleet machine's tracer: every core
// traces into its own lane ring, and the rings share one default
// ring's capacity, so a fleet whose tracers nobody drains buffers no
// more per machine than one shared ring did.
func TestMachineTracerBudget(t *testing.T) {
	c := testCluster(t, WithMachines(1), WithCores(64), WithDetail(1))
	defer c.Close()
	if _, err := c.AddRealm(RealmConfig{
		Name: "web", Reservation: 48, Rate: 40, QueueCap: 64,
		Mix: []WorkloadSpec{{Kind: "webserver", Hint: 0.2, Service: Exp(20 * selftune.Second)}},
	}); err != nil {
		t.Fatalf("AddRealm: %v", err)
	}
	c.Run(6 * selftune.Second)
	m := c.Machine(0)
	if m.Tracer() != nil {
		t.Fatal("a fleet machine has a shared tracer; want one ring per core lane")
	}
	var buffered, dropped int
	for i := 0; i < m.CPUs(); i++ {
		buffered += m.CoreTracer(i).Len()
		dropped += m.CoreTracer(i).Dropped()
	}
	if dropped == 0 {
		t.Fatalf("no lane ring filled in 6s (%d events buffered); the budget is untested", buffered)
	}
	if buffered > selftune.DefaultTracerCapacity {
		t.Errorf("lane rings buffer %d events, more than one default ring (%d)", buffered, selftune.DefaultTracerCapacity)
	}
}
