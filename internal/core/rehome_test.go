package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/supervisor"
)

// move carries the tuner's server from rg's core to newSd the way a
// machine does: the tuner's claim on newSup is the move's one step that
// may refuse, and the tuner rehomes once the server has moved.
func move(rg *rig, tuner *core.Tuner, newSd *sched.Scheduler, newSup *supervisor.Supervisor) error {
	var client *supervisor.Client
	claim := func() (err error) {
		client, err = tuner.Claim(newSup)
		return err
	}
	if err := rg.sd.MoveAll(sched.Group{Servers: []*sched.Server{tuner.Server()}}, newSd, claim); err != nil {
		return err
	}
	tuner.Rehome(newSd, newSup, client)
	return nil
}

// rehomePanics reports whether Rehome refuses to point the tuner at a
// core its server is not on.
func rehomePanics(tuner *core.Tuner, sd *sched.Scheduler, sup *supervisor.Supervisor) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	tuner.Rehome(sd, sup, nil)
	return false
}

func TestRehomeMovesSupervisorClaim(t *testing.T) {
	rg := newRig(7)
	player := rg.newVideoPlayer(0.25)
	tuner, err := core.New(rg.sd, rg.sup, rg.tracer, player.Task(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tuner.Start()
	player.Start(0)
	rg.eng.RunUntil(simtime.Time(5 * simtime.Second))
	if tuner.DetectedFrequency() == 0 {
		t.Fatal("tuner never locked; test setup broken")
	}
	claimed := rg.sup.TotalGranted()
	if claimed <= 0 {
		t.Fatal("no bandwidth claimed on the old supervisor")
	}

	// Move the server to a fresh core, claiming there first.
	newSd := sched.New(sched.Config{Engine: rg.eng, PIDBase: 1_001_000})
	newSup := supervisor.New(1)
	if err := move(rg, tuner, newSd, newSup); err != nil {
		t.Fatalf("move with Claim and Rehome: %v", err)
	}
	if got := rg.sup.TotalGranted(); got != 0 {
		t.Errorf("old supervisor still holds %.3f after Rehome", got)
	}
	if got := newSup.TotalGranted(); got <= 0 {
		t.Error("new supervisor holds no claim after Rehome")
	}
	// The loop keeps adapting on the new core.
	freq := tuner.DetectedFrequency()
	rg.eng.RunUntil(simtime.Time(10 * simtime.Second))
	if got := tuner.DetectedFrequency(); got != freq && got == 0 {
		t.Errorf("tuner lost its lock after Rehome")
	}
	if ticks := len(tuner.Snapshots()); ticks < 40 {
		t.Errorf("only %d activations after 10s", ticks)
	}
}

// TestMultiTunerRehomeMovesSupervisorClaim mirrors the test above for
// a NewShared tuner: the whole multi-threaded application migrates as
// one unit (one server, several tasks) and the tuner re-registers on
// the destination.
func TestMultiTunerRehomeMovesSupervisorClaim(t *testing.T) {
	rg := newRig(23)
	audio, video := twoThreadApp(rg)
	tuner, err := core.NewShared(rg.sd, rg.sup, rg.tracer,
		[]*sched.Task{audio.Task(), video.Task()}, []int{0, 1}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tuner.Start()
	audio.Start(0)
	video.Start(0)
	rg.eng.RunUntil(simtime.Time(8 * simtime.Second))
	if rg.sup.TotalGranted() <= 0 {
		t.Fatal("no bandwidth claimed on the old supervisor")
	}

	newSd := sched.New(sched.Config{Engine: rg.eng, PIDBase: 1_001_000})
	newSup := supervisor.New(1)
	if !rehomePanics(tuner, newSd, newSup) {
		t.Fatal("Rehome before the server moved succeeded")
	}
	if err := move(rg, tuner, newSd, newSup); err != nil {
		t.Fatalf("move with Claim and Rehome: %v", err)
	}
	if got := rg.sup.TotalGranted(); got != 0 {
		t.Errorf("old supervisor still holds %.3f after Rehome", got)
	}
	if got := newSup.TotalGranted(); got <= 0 {
		t.Error("new supervisor holds no claim after Rehome")
	}
	// Both threads keep running inside the migrated reservation.
	before := len(tuner.Snapshots())
	rg.eng.RunUntil(simtime.Time(12 * simtime.Second))
	if got := len(tuner.Snapshots()); got <= before {
		t.Error("tuner stopped ticking after Rehome")
	}
	if got := newSd.BusyTime(); got == 0 {
		t.Error("migrated application never ran on the new core")
	}
}

func TestRehomeRejectionLeavesOldClaim(t *testing.T) {
	rg := newRig(8)
	player := rg.newVideoPlayer(0.25)
	tuner, err := core.New(rg.sd, rg.sup, rg.tracer, player.Task(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A supervisor already saturated at the floor level rejects the
	// registration; the old claim must survive untouched.
	newSd := sched.New(sched.Config{Engine: rg.eng, PIDBase: 1_001_000})
	crowded := supervisor.New(0.015)
	if _, ok := crowded.Register("squatter", 0.01); !ok {
		t.Fatal("setup: squatter rejected")
	}
	claimed := rg.sup.TotalGranted()
	if err := move(rg, tuner, newSd, crowded); err == nil {
		t.Fatal("move with Claim onto a saturated supervisor succeeded")
	}
	// The refused claim kept the server home, and the old claim survives.
	if !rg.sd.Owns(tuner.Server()) {
		t.Fatal("refused move left the server off its old core")
	}
	if got := rg.sup.TotalGranted(); got != claimed {
		t.Errorf("old supervisor holds %.3f after the refused move, want %.3f", got, claimed)
	}
	if !rehomePanics(tuner, newSd, supervisor.New(1)) {
		t.Error("Rehome while the server is still home succeeded")
	}
	client, err := tuner.Claim(rg.sup)
	if err != nil {
		t.Fatalf("Claim home again: %v", err)
	}
	tuner.Rehome(rg.sd, rg.sup, client)
}
