package selftune_test

import (
	"testing"

	"repro/selftune"
)

func TestDespawnReturnsPlacementHint(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the core: two spawns of 0.5 each, then a third must fail.
	a, err := sys.Spawn("webserver", selftune.SpawnHint(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("webserver", selftune.SpawnHint(0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("webserver", selftune.SpawnHint(0.5)); err == nil {
		t.Fatal("third 0.5 spawn admitted on a full core")
	}
	if err := sys.Despawn(a); err != nil {
		t.Fatal(err)
	}
	if got := sys.Machine().Load(0); got != 0.5 {
		t.Errorf("core load after despawn = %v, want 0.5", got)
	}
	if _, err := sys.Spawn("webserver", selftune.SpawnHint(0.5)); err != nil {
		t.Errorf("respawn after despawn rejected: %v", err)
	}
	if n := len(sys.Handles()); n != 2 {
		t.Errorf("Handles() has %d entries, want 2", n)
	}
}

func TestDespawnStartedUntunedLoadDetachesReservations(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn("rtload", selftune.SpawnUtil(0.3), selftune.SpawnCount(2))
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	sys.Run(selftune.Duration(200 * selftune.Millisecond))
	if bw := sys.Core(0).Scheduler().TotalReservedBandwidth(); bw < 0.25 {
		t.Fatalf("started rtload reserves %.3f, want ~0.3", bw)
	}
	if err := sys.Despawn(h); err != nil {
		t.Fatal(err)
	}
	if bw := sys.Core(0).Scheduler().TotalReservedBandwidth(); bw != 0 {
		t.Errorf("reserved bandwidth after despawn = %v, want 0", bw)
	}
	if load := sys.Machine().Load(0); load != 0 {
		t.Errorf("core load after despawn = %v, want 0", load)
	}
	// The detached load must be quiescent: the engine drains.
	sys.Run(selftune.Duration(1 * selftune.Second))
}

func TestDespawnTunedWorkloadReleasesSupervisorClaim(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn("video",
		selftune.SpawnUtil(0.25),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	sys.Run(selftune.Duration(2 * selftune.Second))
	if g := sys.Core(0).Supervisor().TotalGranted(); g <= 0 {
		t.Fatalf("tuned video granted %v, want positive", g)
	}
	if err := sys.Despawn(h); err != nil {
		t.Fatal(err)
	}
	if g := sys.Core(0).Supervisor().TotalGranted(); g != 0 {
		t.Errorf("supervisor grant after despawn = %v, want 0", g)
	}
	if bw := sys.Core(0).Scheduler().TotalReservedBandwidth(); bw != 0 {
		t.Errorf("reserved bandwidth after despawn = %v, want 0", bw)
	}
	sys.Run(selftune.Duration(1 * selftune.Second))

	if err := sys.Despawn(h); err == nil {
		t.Error("second Despawn of the same handle succeeded")
	}
}

func TestDespawnRejectsSharedGroupMembers(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Spawn("video", selftune.SpawnUtil(0.1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Spawn("mp3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TuneShared([]*selftune.Handle{a, b}, []int{0, 1},
		selftune.DefaultTunerConfig()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Despawn(a); err == nil {
		t.Error("Despawn of a TuneShared member succeeded")
	}
}

// TestDespawnTranscoderBeforeItsStart despawns a transcoder whose
// deferred start is still pending. Despawn's Stop must turn that start
// into a no-op: the task has left the scheduler, so releasing its job
// would crash the simulation.
func TestDespawnTranscoderBeforeItsStart(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(3))
	h, err := sys.Spawn("transcoder")
	if err != nil {
		t.Fatal(err)
	}
	h.Start(selftune.Time(selftune.Second))
	sys.Run(100 * selftune.Millisecond)
	if err := sys.Despawn(h); err != nil {
		t.Fatal(err)
	}
	sys.Run(2 * selftune.Second)
	if n := len(sys.Core(0).Scheduler().Tasks()); n != 0 {
		t.Errorf("%d tasks left on the core after the despawn", n)
	}
}
