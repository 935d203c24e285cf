package selftune_test

import (
	"math"
	"testing"

	"repro/selftune"
)

func newSystem(t *testing.T, opts ...selftune.Option) *selftune.System {
	t.Helper()
	sys, err := selftune.NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestQuickstartFlow(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(1))
	app, err := sys.Spawn("video",
		selftune.SpawnName("mplayer"),
		selftune.SpawnUtil(0.25),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	app.Start(0)
	sys.Run(30 * selftune.Second)
	if f := app.Tuner().DetectedFrequency(); math.Abs(f-25) > 0.5 {
		t.Errorf("detected %.2f Hz, want 25", f)
	}
	if got := app.Player().Task().Stats().Completed; got < 700 {
		t.Errorf("only %d frames decoded", got)
	}
	if sys.Now() != selftune.Time(30*selftune.Second) {
		t.Errorf("Now() = %v", sys.Now())
	}
}

func TestMP3PlayerDetection(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(2))
	app, err := sys.Spawn("mp3",
		selftune.SpawnName("mp3"),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	app.Start(0)
	sys.Run(20 * selftune.Second)
	if f := app.Tuner().DetectedFrequency(); math.Abs(f-32.5) > 0.5 {
		t.Errorf("detected %.2f Hz, want 32.5", f)
	}
}

func TestBackgroundLoadAndSupervisor(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(3), selftune.WithULub(0.9))
	bg, err := sys.Spawn("rtload", selftune.SpawnUtil(0.3), selftune.SpawnCount(2))
	if err != nil {
		t.Fatal(err)
	}
	bg.Start(0)
	app, err := sys.Spawn("video",
		selftune.SpawnName("mplayer"),
		selftune.SpawnUtil(0.2),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	app.Start(0)
	sys.Run(10 * selftune.Second)
	core := sys.Core(0)
	if u := core.Scheduler().Utilization(); u < 0.4 {
		t.Errorf("system utilisation %.2f suspiciously low", u)
	}
	if got := core.Supervisor().TotalGranted(); got <= 0 || got > 0.9 {
		t.Errorf("supervisor granted %.3f", got)
	}
}

func TestSystemAccessorsAndDefaults(t *testing.T) {
	sys := newSystem(t) // all defaults
	if sys.Tracer() == nil || sys.Machine() == nil || sys.Clock() == nil {
		t.Fatal("nil component accessors")
	}
	if sys.CPUs() != 1 {
		t.Errorf("default CPUs = %d", sys.CPUs())
	}
	if got := sys.Core(0).Supervisor().ULub(); got != 1 {
		t.Errorf("default ULub = %v", got)
	}
	if sys.Now() != 0 {
		t.Errorf("fresh system Now() = %v", sys.Now())
	}
	sys.Run(selftune.Second)
	if sys.Now() != selftune.Time(selftune.Second) {
		t.Errorf("Now() = %v after Run(1s)", sys.Now())
	}
}

func TestTuneShared(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(9))
	a, err := sys.Spawn("mp3", selftune.SpawnName("audio"), selftune.OnCore(0))
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.Spawn("video",
		selftune.SpawnName("video"), selftune.SpawnUtil(0.15), selftune.OnCore(0))
	if err != nil {
		t.Fatal(err)
	}
	handles := []*selftune.Handle{a, v}
	tuner, err := sys.TuneShared(handles, []int{0, 1}, selftune.DefaultTunerConfig())
	if err != nil {
		t.Fatal(err)
	}
	a.Start(0)
	v.Start(0)
	sys.Run(30 * selftune.Second)
	if len(tuner.ThreadPeriods()) != 2 {
		t.Errorf("thread periods: %v", tuner.ThreadPeriods())
	}
	if !tuner.Locked() {
		t.Error("multi tuner never froze its verdicts")
	}
	// Error path: mismatched priorities.
	if _, err := sys.TuneShared([]*selftune.Handle{a}, []int{0, 1}, selftune.DefaultTunerConfig()); err == nil {
		t.Error("mismatched priorities accepted")
	}
}

// TestTuneSharedRejectsCrossCore pins two players to different cores
// and checks that a shared reservation across them is refused.
func TestTuneSharedRejectsCrossCore(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(9), selftune.WithCPUs(2))
	a, err := sys.Spawn("mp3", selftune.OnCore(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Spawn("mp3", selftune.OnCore(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TuneShared([]*selftune.Handle{a, b}, []int{0, 1}, selftune.DefaultTunerConfig()); err == nil {
		t.Error("cross-core shared reservation accepted")
	}
}

func TestCustomPlayerConfig(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(4))
	cfg := selftune.PlayerConfig{
		Name:          "cam",
		Period:        selftune.Duration(100 * selftune.Millisecond), // 10 Hz sensor
		MeanDemand:    5 * selftune.Millisecond,
		StartBurstMin: 3, StartBurstMax: 5,
		EndBurstMin: 3, EndBurstMax: 5,
	}
	tcfg := selftune.DefaultTunerConfig()
	tcfg.InitialPeriod = 50 * selftune.Millisecond // wrong on purpose
	app, err := sys.Spawn("player", selftune.SpawnPlayer(cfg), selftune.Tuned(tcfg))
	if err != nil {
		t.Fatal(err)
	}
	app.Start(0)
	sys.Run(30 * selftune.Second)
	if f := app.Tuner().DetectedFrequency(); math.Abs(f-10) > 0.3 {
		t.Errorf("detected %.2f Hz, want 10", f)
	}
	if p := app.Tuner().Period(); p < 95*selftune.Millisecond || p > 105*selftune.Millisecond {
		t.Errorf("period estimate %v, want ~100ms", p)
	}
}

// TestTuneSharedRejectsAlreadyTuned: a handle spawned Tuned (or one
// already in a shared group) cannot join another shared reservation.
func TestTuneSharedRejectsAlreadyTuned(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(11))
	tuned, err := sys.Spawn("mp3", selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TuneShared([]*selftune.Handle{tuned}, []int{0}, selftune.DefaultTunerConfig()); err == nil {
		t.Error("TuneShared of a Tuned handle accepted")
	}
	a, err := sys.Spawn("mp3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TuneShared([]*selftune.Handle{a}, []int{0}, selftune.DefaultTunerConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TuneShared([]*selftune.Handle{a}, []int{0}, selftune.DefaultTunerConfig()); err == nil {
		t.Error("TuneShared of a handle already in a group accepted")
	}
}
