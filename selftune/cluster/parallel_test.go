package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/selftune"
)

// runDeterministic builds the shared determinism scenario with machine
// telemetry at the given parallelism, runs it for 4 simulated seconds,
// and returns the three determinism witnesses: total engine steps, the
// fleet snapshot, and the marshalled cluster- and machine-scope
// telemetry.
func runDeterministic(t *testing.T, parallel int) (uint64, FleetSnapshot, []byte, []byte) {
	t.Helper()
	c := buildDeterministic(t,
		WithParallelism(parallel),
		WithMachineTelemetry(),
		WithRequestStats(),
	)
	c.Run(4 * selftune.Second)

	col, err := json.Marshal(c.Collector().Snapshot())
	if err != nil {
		t.Fatalf("marshal cluster telemetry: %v", err)
	}
	mcol, err := json.Marshal(c.MachineCollector().Snapshot())
	if err != nil {
		t.Fatalf("marshal machine telemetry: %v", err)
	}
	return c.Steps(), c.Snapshot(), col, mcol
}

// TestParallelismDeterminism is the contract behind WithParallelism:
// the same seed produces byte-identical telemetry — cluster-scope and
// stage-merged machine-scope — and deeply equal fleet snapshots at
// every parallelism level. The scenario is the full determinism pot
// (detail machine, autoscaler, fleet balancer, heavy-tailed mixes);
// parallelism 16 exceeds the 3-machine fleet to exercise the cap.
func TestParallelismDeterminism(t *testing.T) {
	steps1, snap1, col1, mcol1 := runDeterministic(t, 1)
	if len(snap1.Jobs) == 0 {
		t.Fatal("determinism test ran an empty scenario")
	}
	// The latency pipeline must be part of the determinism witness: the
	// detail machine's completions reach the realm stats, so the
	// byte-compare below seals the request histograms too.
	var requests int64
	for _, r := range snap1.Realms {
		requests += r.Requests
	}
	if requests == 0 {
		t.Fatal("determinism scenario observed no request completions")
	}
	for _, parallel := range []int{4, 16} {
		steps, snap, col, mcol := runDeterministic(t, parallel)
		if steps != steps1 {
			t.Errorf("parallelism %d: engine steps %d, serial ran %d", parallel, steps, steps1)
		}
		if !reflect.DeepEqual(snap, snap1) {
			t.Errorf("parallelism %d: fleet snapshot diverged from serial:\n%+v\nvs\n%+v",
				parallel, snap, snap1)
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

// TestParallelClusterRace drives an 8-machine fully detailed fleet
// with four workers and stage-drained machine telemetry — the
// configuration with the most cross-goroutine traffic. Its job is to
// put the parallel advance under the CI race detector; the assertions
// just prove the machines actually did concurrent work that reached
// the shared collector.
func TestParallelClusterRace(t *testing.T) {
	c, err := New(
		WithSeed(9),
		WithMachines(8),
		WithCores(4),
		WithDetail(8),
		WithParallelism(4),
		WithMachineTelemetry(),
		WithFleetBalancer(FleetWorstFit(0.05, 4)),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d, want 4", got)
	}
	if _, err := c.AddRealm(RealmConfig{
		Name: "load", Reservation: 12, Rate: 30, QueueCap: 32,
		Mix: []WorkloadSpec{
			{Kind: "webserver", Hint: 0.25, Service: Exp(700 * selftune.Millisecond), Weight: 2},
			{Kind: "gameloop", Hint: 0.3, Service: Uniform(400*selftune.Millisecond, 1500*selftune.Millisecond)},
		},
	}); err != nil {
		t.Fatalf("AddRealm: %v", err)
	}
	c.Run(2 * selftune.Second)

	if c.Resident() == 0 {
		t.Fatal("race scenario admitted nothing")
	}
	tel := c.MachineCollector().Snapshot()
	if tel.LoadEvents == 0 {
		t.Fatal("no machine-level load samples crossed the tick barrier")
	}
	if tel.Cores != 4 {
		t.Fatalf("machine collector sees %d cores, want 4", tel.Cores)
	}
}

// TestTickAdvanceAllocatesNothing pins the fleet advance: the closure
// that runs a machine to the tick boundary is built once and the
// pool's batch lives in the pool, so advancing a warm fleet by a tick
// allocates nothing, on one worker or on two.
func TestTickAdvanceAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2} {
		c := testCluster(t, WithMachines(4), WithCores(4), WithDetail(4), WithParallelism(workers))
		if _, err := c.AddRealm(RealmConfig{
			Name: "rt", Reservation: 6, Rate: 20,
			Mix: []WorkloadSpec{{Kind: "rtload", Hint: 0.25, Util: 0.25, Service: Fixed(time30s)}},
		}); err != nil {
			t.Fatalf("AddRealm: %v", err)
		}
		c.Run(3 * selftune.Second)
		steps := c.Steps()
		if n := testing.AllocsPerRun(20, func() {
			c.now = c.now.Add(tick)
			c.advance(c.now)
		}); n != 0 {
			t.Errorf("%d workers: a tick advance allocates %v times, want 0", workers, n)
		}
		if c.Steps() == steps {
			t.Fatalf("%d workers: no event ran while measuring", workers)
		}
		c.Close()
	}
}
