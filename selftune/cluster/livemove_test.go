package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/selftune"
	"repro/selftune/telemetry"
)

// runLiveDeterministic builds a fully detailed fleet whose balancer
// forces cross-machine moves every opportunity — so the live-transfer
// path (MoveAll, lane moves, evidence carry) runs constantly —
// and returns the determinism witnesses plus the live-move count.
func runLiveDeterministic(t *testing.T, parallel int) (uint64, FleetSnapshot, []byte, []byte, int) {
	t.Helper()
	c, err := New(
		WithSeed(11),
		WithMachines(3),
		WithCores(4),
		WithDetail(3), // every machine runs its workloads for real
		WithParallelism(parallel),
		WithMachineTelemetry(),
		WithRequestStats(),
		WithFleetBalancer(&shuffler{n: 3}),
		WithFleetBalanceInterval(100*selftune.Millisecond),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.AddRealm(RealmConfig{
		Name: "web", Reservation: 4, Rate: 10, QueueCap: 16,
		Mix: []WorkloadSpec{
			{Kind: "webserver", Hint: 0.25, Service: Exp(900 * selftune.Millisecond), Weight: 2},
			{Kind: "gameloop", Hint: 0.3, Service: Uniform(500*selftune.Millisecond, 2*selftune.Second)},
		},
		SLO: telemetry.SLO{Quantile: 0.95, Threshold: 200 * selftune.Millisecond},
	}); err != nil {
		t.Fatalf("AddRealm: %v", err)
	}
	c.Run(3 * selftune.Second)

	col, err := json.Marshal(c.Collector().Snapshot())
	if err != nil {
		t.Fatalf("marshal cluster telemetry: %v", err)
	}
	mcol, err := json.Marshal(c.MachineCollector().Snapshot())
	if err != nil {
		t.Fatalf("marshal machine telemetry: %v", err)
	}
	return c.Steps(), c.Snapshot(), col, mcol, c.LiveReplacements()
}

// TestLiveMoveDeterminism seals the tentpole contract: a fleet that
// constantly live-transfers running workloads between machines stays
// byte-identical at every parallelism level, because transfers execute
// serially at the tick fence in plan order.
func TestLiveMoveDeterminism(t *testing.T) {
	steps1, snap1, col1, mcol1, live1 := runLiveDeterministic(t, 1)
	if live1 == 0 {
		t.Fatal("scenario executed no live transfers — the determinism witness is empty")
	}
	for _, parallel := range []int{4, 16} {
		steps, snap, col, mcol, live := runLiveDeterministic(t, parallel)
		if live != live1 {
			t.Errorf("parallelism %d: %d live transfers, serial ran %d", parallel, live, live1)
		}
		if steps != steps1 {
			t.Errorf("parallelism %d: engine steps %d, serial ran %d", parallel, steps, steps1)
		}
		if !reflect.DeepEqual(snap, snap1) {
			t.Errorf("parallelism %d: fleet snapshot diverged from serial", parallel)
		}
		if !bytes.Equal(col, col1) {
			t.Errorf("parallelism %d: cluster telemetry not byte-identical to serial (%d vs %d bytes)",
				parallel, len(col), len(col1))
		}
		if !bytes.Equal(mcol, mcol1) {
			t.Errorf("parallelism %d: machine telemetry not byte-identical to serial (%d vs %d bytes)",
				parallel, len(mcol), len(mcol1))
		}
	}
}

// TestLiveMoveTelemetry checks the unified migration vocabulary end to
// end: cross-machine moves on a fully detailed fleet run live, the
// cluster collector's mode breakdown and migration records carry the
// machine indices, and the counters reconcile with the cluster's own.
func TestLiveMoveTelemetry(t *testing.T) {
	c := testCluster(t,
		WithDetail(2),
		WithFleetBalancer(&shuffler{n: 2}),
		WithFleetBalanceInterval(100*selftune.Millisecond),
	)
	if _, err := c.AddRealm(RealmConfig{
		Name: "mobile", Reservation: 1.5, Rate: 8,
		Mix: []WorkloadSpec{{Kind: "webserver", Hint: 0.25, Service: Fixed(2 * selftune.Second)}},
	}); err != nil {
		t.Fatalf("AddRealm: %v", err)
	}
	c.Run(3 * selftune.Second)

	if c.Replacements() == 0 {
		t.Fatal("shuffler produced no re-placements")
	}
	if c.LiveReplacements() == 0 {
		t.Fatal("fully detailed fleet executed no live transfers")
	}
	if c.LiveReplacements() > c.Replacements() {
		t.Fatalf("live moves %d exceed total re-placements %d",
			c.LiveReplacements(), c.Replacements())
	}
	tel := c.Collector().Snapshot()
	if tel.LiveMigrations != c.LiveReplacements() {
		t.Errorf("telemetry folded %d live migrations, cluster executed %d",
			tel.LiveMigrations, c.LiveReplacements())
	}
	if got := tel.LiveMigrations + tel.RespawnMigrations; got != c.Replacements() {
		t.Errorf("telemetry mode breakdown sums to %d, cluster executed %d",
			got, c.Replacements())
	}
	var crossMachine int
	for _, mv := range tel.Moves {
		if mv.FromMachine == mv.ToMachine {
			continue
		}
		crossMachine++
		if mv.Reason == "" {
			t.Errorf("cross-machine move of %q carries no reason", mv.Source)
		}
	}
	if crossMachine != c.Replacements() {
		t.Errorf("%d cross-machine migration records, want %d", crossMachine, c.Replacements())
	}
}

// windowPuller moves the lowest-ID job outside the detail window onto
// machine 0 at every opportunity.
type windowPuller struct{ detail int }

func (p *windowPuller) Name() string { return "window-puller" }
func (p *windowPuller) Plan(snap FleetSnapshot) []Placement {
	var pick *JobStat
	for i, j := range snap.Jobs {
		if j.Machine >= p.detail && (pick == nil || j.ID < pick.ID) {
			pick = &snap.Jobs[i]
		}
	}
	if pick == nil {
		return nil
	}
	return []Placement{{Job: pick.ID, To: 0}}
}

// TestReplacementIntoDetailWindowStartsJob: a job placed outside the
// detail window was never started, though a webserver owns its bare
// task from construction and so could carry it. Moved into the window
// it must be respawned and started there, not transferred live as an
// unstarted workload that never releases a request.
func TestReplacementIntoDetailWindowStartsJob(t *testing.T) {
	c := testCluster(t,
		WithDetail(1),
		WithFleetBalancer(&windowPuller{detail: 1}),
		WithFleetBalanceInterval(100*selftune.Millisecond),
	)
	if _, err := c.AddRealm(RealmConfig{
		Name: "web", Reservation: 4, Rate: 8,
		Mix: []WorkloadSpec{{Kind: "webserver", Hint: 0.25, Service: Fixed(10 * selftune.Second)}},
	}); err != nil {
		t.Fatalf("AddRealm: %v", err)
	}
	c.Run(2 * selftune.Second)

	if c.Replacements() == 0 {
		t.Fatal("no job was moved into the detail window — the check would measure nothing")
	}
	if live := c.LiveReplacements(); live != 0 {
		t.Errorf("%d of %d moves out of the placement-only machine were live", live, c.Replacements())
	}
	var inWindow int
	for _, j := range c.active {
		if j.machine != 0 {
			continue
		}
		inWindow++
		if served := j.handle.Workload().(interface{ Served() int }).Served(); served == 0 {
			t.Errorf("job %s on the detail machine has served no request", j.name)
		}
	}
	if inWindow == 0 {
		t.Fatal("no resident job on the detail machine")
	}
}

// TestFleetWorstFitPlanDoesNotAllocate pins the hot-path discipline:
// after the first warm-up call, Plan reuses its buffers and performs
// zero allocations per fleet tick.
func TestFleetWorstFitPlanDoesNotAllocate(t *testing.T) {
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
	f := FleetWorstFit(0.1, 8)
	if plan := f.Plan(snap); len(plan) == 0 {
		t.Fatal("warm-up plan is empty — the assertion would measure nothing")
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Plan(snap) }); allocs != 0 {
		t.Errorf("FleetWorstFit.Plan allocates %.1f times per call after warm-up", allocs)
	}

	sloSnap := FleetSnapshot{
		MachineCap:   4,
		MachineUsed:  []float64{1.0, 1.0},
		MachineLoads: []float64{0.9, 0.1},
		Realms: []RealmStats{{
			Name: "web", Requests: 100, SLOAttainment: 0.5,
			SLOQuantile: 0.95, SLOThreshold: 100 * selftune.Millisecond,
			LatencyP99: 400 * selftune.Millisecond,
		}},
		Jobs: []JobStat{
			{ID: 1, Realm: "web", Machine: 0, Hint: 0.5},
			{ID: 2, Realm: "web", Machine: 0, Hint: 0.25},
		},
	}
	b := BalanceSLOAware()
	if plan := b.Plan(sloSnap); len(plan) == 0 {
		t.Fatal("warm-up SLO-aware plan is empty — the assertion would measure nothing")
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Plan(sloSnap) }); allocs != 0 {
		t.Errorf("BalanceSLOAware.Plan allocates %.1f times per call after warm-up", allocs)
	}
}

// TestSLOAwarePlans covers the planner's selection logic on synthetic
// snapshots: it rescues the most tardy realm from the highest actual
// load, plans nothing for a healthy fleet, and ignores the hint
// ledger FleetWorstFit would balance on.
func TestSLOAwarePlans(t *testing.T) {
	snap := FleetSnapshot{
		MachineCap: 4,
		// Hints balanced — FleetWorstFit sees nothing to do…
		MachineUsed: []float64{1.0, 1.0},
		// …while the actual loads are badly skewed.
		MachineLoads: []float64{0.9, 0.1},
		Realms: []RealmStats{
			{
				Name: "healthy", Requests: 100, SLOAttainment: 1,
				SLOQuantile: 0.95, SLOThreshold: 500 * selftune.Millisecond,
				LatencyP99: 50 * selftune.Millisecond,
			},
			{
				Name: "tardy", Requests: 100, SLOAttainment: 0.6,
				SLOQuantile: 0.95, SLOThreshold: 100 * selftune.Millisecond,
				LatencyP99: 400 * selftune.Millisecond,
			},
		},
		Jobs: []JobStat{
			{ID: 1, Realm: "healthy", Machine: 0, Hint: 0.5},
			{ID: 2, Realm: "tardy", Machine: 0, Hint: 0.5},
			{ID: 3, Realm: "tardy", Machine: 0, Hint: 0.25},
			{ID: 4, Realm: "tardy", Machine: 1, Hint: 0.25},
		},
	}
	if p := FleetWorstFit(0.1, 8).Plan(snap); len(p) != 0 {
		t.Fatalf("hint-balanced snapshot made FleetWorstFit plan %+v", p)
	}
	plan := BalanceSLOAware().Plan(snap)
	if len(plan) == 0 {
		t.Fatal("tardy realm behind skewed loads produced no SLO-aware plan")
	}
	for i, p := range plan {
		if i > 0 && plan[i-1].Job >= p.Job {
			t.Fatalf("plan not sorted by job ID: %+v", plan)
		}
		if p.Job == 1 {
			t.Fatalf("planner moved the healthy realm's job: %+v", plan)
		}
		if p.Job == 4 {
			t.Fatalf("planner moved a job already on the cold machine: %+v", plan)
		}
		if p.To != 1 {
			t.Fatalf("move %d targeted machine %d, want the least-loaded machine 1", p.Job, p.To)
		}
		if p.Reason != "slo-steal" {
			t.Fatalf("placement reason %q, want \"slo-steal\"", p.Reason)
		}
	}

	// A healthy fleet plans nothing, however skewed the loads.
	snap.Realms[1].SLOAttainment = 1
	snap.Realms[1].LatencyP99 = 50 * selftune.Millisecond
	if p := BalanceSLOAware().Plan(snap); len(p) != 0 {
		t.Fatalf("healthy fleet produced churn: %+v", p)
	}
}
