package selftune_test

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/selftune"
)

func TestBuiltinKindsRegistered(t *testing.T) {
	kinds := selftune.Kinds()
	for _, want := range []string{"video", "mp3", "player", "rtload", "noise", "transcoder", "webserver", "gameloop"} {
		i := sort.SearchStrings(kinds, want)
		if i >= len(kinds) || kinds[i] != want {
			t.Errorf("kind %q not registered (have %v)", want, kinds)
		}
	}
}

func TestSpawnUnknownKind(t *testing.T) {
	sys := newSystem(t)
	_, err := sys.Spawn("no-such-kind")
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	if !strings.Contains(err.Error(), "no-such-kind") || !strings.Contains(err.Error(), "video") {
		t.Errorf("error %q should name the unknown kind and the known ones", err)
	}
}

// registerTestKinds registers the kinds the tests spawn. The
// registry is process-wide and refuses a second registration, so it
// runs once per process: the tests then pass when repeated (-count)
// and in any order (-shuffle). TestAllKindsRunUnderAllPolicies skips
// every "test-" kind.
var registerTestKinds = sync.OnceFunc(func() {
	selftune.Register("test-robot-50hz", func(env selftune.Env, spec selftune.SpawnSpec) (selftune.Workload, error) {
		cfg := selftune.PlayerConfig{
			Name:          spec.Name,
			Period:        20 * selftune.Millisecond,
			MeanDemand:    2 * selftune.Millisecond,
			StartBurstMin: 3, StartBurstMax: 5,
			EndBurstMin: 3, EndBurstMax: 5,
			Sink: env.Tracer,
		}
		return selftune.NewWorkloadPlayer(env, cfg), nil
	})
	selftune.Register("test-nil-kind", func(env selftune.Env, spec selftune.SpawnSpec) (selftune.Workload, error) {
		return nil, nil
	})
	selftune.Register("test-cbs-job", func(env selftune.Env, spec selftune.SpawnSpec) (selftune.Workload, error) {
		srv := env.Scheduler.NewServer(spec.Name, 5*selftune.Millisecond, 10*selftune.Millisecond, selftune.HardCBS)
		task := env.Scheduler.NewTask(spec.Name)
		task.AttachTo(srv, 0)
		return &cbsJob{sd: env.Scheduler, srv: srv, task: task}, nil
	})
})

func TestRegisterCustomKind(t *testing.T) {
	registerTestKinds()
	sys := newSystem(t, selftune.WithSeed(8))
	h, err := sys.Spawn("test-robot-50hz", selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != "test-robot-50hz" {
		t.Errorf("kind = %q", h.Kind())
	}
	h.Start(0)
	sys.Run(20 * selftune.Second)
	if f := h.Tuner().DetectedFrequency(); math.Abs(f-50) > 1 {
		t.Errorf("custom kind detected %.2f Hz, want 50", f)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	registerTestKinds()
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	selftune.Register("test-nil-kind", func(env selftune.Env, spec selftune.SpawnSpec) (selftune.Workload, error) {
		return nil, nil
	})
}

func TestSpawnOptionValidation(t *testing.T) {
	sys := newSystem(t)
	cases := []struct {
		name string
		opt  selftune.SpawnOption
	}{
		{"SpawnName empty", selftune.SpawnName("")},
		{"SpawnUtil 0", selftune.SpawnUtil(0)},
		{"SpawnUtil 1.5", selftune.SpawnUtil(1.5)},
		{"SpawnCount 0", selftune.SpawnCount(0)},
		{"SpawnHint 0", selftune.SpawnHint(0)},
		{"SpawnHint 1.5", selftune.SpawnHint(1.5)},
		{"OnCore -1", selftune.OnCore(-1)},
	}
	for _, tc := range cases {
		if _, err := sys.Spawn("video", tc.opt); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
	// Valid spawn after the failures still works.
	if _, err := sys.Spawn("video"); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnPlayerKindNeedsConfig(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Spawn("player"); err == nil {
		t.Error("player kind without SpawnPlayer accepted")
	}
	// A malformed config is an error, not a panic, and leaves no
	// phantom load.
	if _, err := sys.Spawn("player", selftune.SpawnPlayer(selftune.PlayerConfig{Name: "x"})); err == nil {
		t.Error("zero-period player config accepted")
	}
	if _, err := sys.Spawn("player", selftune.SpawnPlayer(selftune.PlayerConfig{
		Name: "x", Period: 40 * selftune.Millisecond,
	})); err == nil {
		t.Error("zero-demand player config accepted")
	}
	if load := sys.Core(0).Load(); load != 0 {
		t.Errorf("failed player spawns left phantom load %.3f", load)
	}
}

// TestRejectedTunedSpawnLeavesNoOrphans drives supervisor admission
// rejection through Spawn and checks no orphan reservation stays on
// the scheduler (the failed tuner must not create its server first).
func TestRejectedTunedSpawnLeavesNoOrphans(t *testing.T) {
	sys := newSystem(t, selftune.WithULub(0.5))
	cfg := selftune.DefaultTunerConfig()
	cfg.MinBandwidth = 0.3
	if _, err := sys.Spawn("video", selftune.SpawnHint(0.01), selftune.Tuned(cfg)); err != nil {
		t.Fatal(err)
	}
	before := sys.Core(0).Scheduler().TotalReservedBandwidth()
	tasksBefore := len(sys.Core(0).Scheduler().Tasks())
	for i := 0; i < 5; i++ {
		if _, err := sys.Spawn("video", selftune.SpawnHint(0.01), selftune.Tuned(cfg)); err == nil {
			t.Fatal("second 0.3-floor registration under ULub 0.5 accepted")
		}
	}
	if after := sys.Core(0).Scheduler().TotalReservedBandwidth(); after != before {
		t.Errorf("rejected spawns grew reserved bandwidth %.3f -> %.3f", before, after)
	}
	if tasksAfter := len(sys.Core(0).Scheduler().Tasks()); tasksAfter != tasksBefore {
		t.Errorf("rejected spawns left %d orphan tasks", tasksAfter-tasksBefore)
	}
}

// TestNilFactoryResultRejected guards the Handle against factories
// that return (nil, nil).
func TestNilFactoryResultRejected(t *testing.T) {
	registerTestKinds()
	sys := newSystem(t)
	if _, err := sys.Spawn("test-nil-kind"); err == nil {
		t.Error("nil workload from factory accepted")
	}
	if load := sys.Core(0).Load(); load != 0 {
		t.Errorf("nil-workload spawn left phantom load %.3f", load)
	}
}

// TestFailedSpawnReleasesPlacementHint spawns many failing workloads
// and checks that their bandwidth hints do not accumulate as phantom
// core load.
func TestFailedSpawnReleasesPlacementHint(t *testing.T) {
	sys := newSystem(t)
	for i := 0; i < 30; i++ {
		if _, err := sys.Spawn("player", selftune.SpawnHint(0.5)); err == nil {
			t.Fatal("player kind without SpawnPlayer accepted")
		}
	}
	if load := sys.Core(0).Load(); load != 0 {
		t.Fatalf("failed spawns left phantom load %.3f", load)
	}
	// A near-full-core spawn still fits after all those failures.
	if _, err := sys.Spawn("video", selftune.SpawnHint(0.9)); err != nil {
		t.Errorf("spawn after failures rejected: %v", err)
	}
}

// TestUnsupportedSpawnOptionsRejected checks that kinds refuse options
// they would otherwise silently ignore.
func TestUnsupportedSpawnOptionsRejected(t *testing.T) {
	sys := newSystem(t)
	cases := []struct {
		kind string
		opt  selftune.SpawnOption
	}{
		{"noise", selftune.SpawnUtil(0.3)},
		{"noise", selftune.SpawnCount(4)},
		{"mp3", selftune.SpawnUtil(0.3)},
		{"mp3", selftune.SpawnCount(2)},
		{"video", selftune.SpawnCount(2)},
		{"video", selftune.SpawnPlayer(selftune.PlayerConfig{})},
		{"transcoder", selftune.SpawnUtil(0.3)},
		{"rtload", selftune.SpawnPlayer(selftune.PlayerConfig{})},
	}
	for _, tc := range cases {
		if _, err := sys.Spawn(tc.kind, tc.opt); err == nil {
			t.Errorf("kind %q silently accepted an unsupported option", tc.kind)
		}
	}
	if load := sys.Core(0).Load(); load != 0 {
		t.Errorf("rejected spawns left phantom load %.3f", load)
	}
}

func TestTunedRequiresTunable(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Spawn("rtload", selftune.Tuned(selftune.DefaultTunerConfig())); err == nil {
		t.Error("tuning a multi-task background load accepted")
	}
}

func TestOnCoreOutOfRange(t *testing.T) {
	sys := newSystem(t, selftune.WithCPUs(2))
	if _, err := sys.Spawn("video", selftune.OnCore(2)); err == nil {
		t.Error("OnCore beyond CPU count accepted")
	}
}

func TestPlacementRejectsOverload(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Spawn("video", selftune.SpawnHint(0.7)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("video", selftune.SpawnHint(0.6)); err == nil {
		t.Error("overloaded placement accepted")
	}
	// A smaller application still fits.
	if _, err := sys.Spawn("video", selftune.SpawnHint(0.2)); err != nil {
		t.Errorf("small spawn rejected: %v", err)
	}
}

// TestDoubleStartPanics checks the uniform Workload.Start contract:
// starting any spawned workload twice is a panic, not silent
// corruption of the frame grid.
func TestDoubleStartPanics(t *testing.T) {
	sys := newSystem(t)
	h, err := sys.Spawn("video")
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	h.Start(0)
}

// TestFourCPUPlacementSpreadsTunedPlayers is the acceptance scenario:
// the tuned-player workload on a 4-CPU System, with reservations
// spread across cores by smp.Machine.Place.
func TestFourCPUPlacementSpreadsTunedPlayers(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(5), selftune.WithCPUs(4))
	var handles []*selftune.Handle
	for i := 0; i < 4; i++ {
		h, err := sys.Spawn("video",
			selftune.SpawnUtil(0.3),
			selftune.Tuned(selftune.DefaultTunerConfig()))
		if err != nil {
			t.Fatal(err)
		}
		h.Start(0)
		handles = append(handles, h)
	}
	// Worst-fit must have given every player its own core.
	cores := map[int]bool{}
	for _, h := range handles {
		cores[h.Core().Index] = true
	}
	if len(cores) != 4 {
		t.Fatalf("4 equal players on 4 CPUs not spread: got cores %v", cores)
	}
	sys.Run(20 * selftune.Second)
	for _, h := range handles {
		// A lock onto an integer multiple of the true 25 Hz rate is
		// benign (paper Fig. 1: a reservation period at a sub-multiple
		// of the task period needs the same bandwidth), so accept
		// harmonics but not silence or unrelated frequencies.
		f := h.Tuner().DetectedFrequency()
		k := math.Round(f / 25)
		if k < 1 || k > 4 || math.Abs(f-25*k) > 0.5*k {
			t.Errorf("%s on core %d detected %.2f Hz, want a multiple of 25", h.Name(), h.Core().Index, f)
		}
		if bw := h.Tuner().Server().Bandwidth(); bw <= 0.1 || bw > 0.6 {
			t.Errorf("%s reservation bandwidth %.3f implausible", h.Name(), bw)
		}
	}
	// Every core carries real reserved bandwidth.
	for i, load := range sys.Machine().Loads() {
		if load <= 0.1 {
			t.Errorf("core %d load %.3f, want > 0.1", i, load)
		}
	}
	if len(sys.Handles()) != 4 {
		t.Errorf("Handles() = %d, want 4", len(sys.Handles()))
	}
}

func TestWebserverKindSpawns(t *testing.T) {
	sys := newSystem(t)
	h, err := sys.Spawn("webserver",
		selftune.SpawnName("web-1"),
		selftune.SpawnUtil(0.3),
		selftune.SpawnBurst(6),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	sys.Run(10 * selftune.Second)
	ws, ok := h.Workload().(*workload.WebServer)
	if !ok {
		t.Fatalf("webserver spawn built a %T", h.Workload())
	}
	if ws.Bursts() < 100 || ws.Served() <= ws.Bursts() {
		t.Errorf("bursts=%d served=%d: not a bursty arrival process", ws.Bursts(), ws.Served())
	}
	if done := ws.Task().Stats().Completed; done < ws.Served()/2 {
		t.Errorf("completed %d of %d requests under the tuner", done, ws.Served())
	}
}

// TestGameloopKindSpawns drives the deadline-sensitive kind: a tuned
// 60 FPS loop must lock onto its frame rate and keep its misses rare
// once the reservation has adapted.
func TestGameloopKindSpawns(t *testing.T) {
	sys := newSystem(t, selftune.WithSeed(13))
	h, err := sys.Spawn("gameloop",
		selftune.SpawnName("game-1"),
		selftune.SpawnUtil(0.25),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	sys.Run(20 * selftune.Second)
	gl, ok := h.Workload().(*workload.GameLoop)
	if !ok {
		t.Fatalf("gameloop spawn built a %T", h.Workload())
	}
	// 20s at ~60 FPS is ~1200 frames.
	if gl.Frames() < 1100 {
		t.Errorf("only %d frames released in 20s", gl.Frames())
	}
	st := gl.Task().Stats()
	if st.Completed < 1000 {
		t.Errorf("only %d frames completed", st.Completed)
	}
	// The feedback law tracks the demand distribution, not its ±35%
	// tail, so a fraction of the heaviest frames blows the granted
	// budget and misses — the deadline pressure the kind exists to
	// model. It must stay a tail, though, not a collapse.
	if st.Missed > st.Completed/4 {
		t.Errorf("%d of %d frames missed their deadline", st.Missed, st.Completed)
	}
	f := h.Tuner().DetectedFrequency()
	if f < 55 || f > 65 {
		t.Errorf("detected %.2f Hz, want ~60", f)
	}
	// SpawnCount is not a gameloop knob.
	if _, err := sys.Spawn("gameloop", selftune.SpawnCount(2)); err == nil {
		t.Error("kind \"gameloop\" silently accepted SpawnCount")
	}
}

func TestSpawnBurstValidation(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Spawn("webserver", selftune.SpawnBurst(0)); err == nil {
		t.Error("SpawnBurst(0) accepted")
	}
	// Burst is a webserver-only knob.
	if _, err := sys.Spawn("video", selftune.SpawnBurst(4)); err == nil {
		t.Error("kind \"video\" silently accepted SpawnBurst")
	}
	if load := sys.Core(0).Load(); load != 0 {
		t.Errorf("rejected spawns left phantom load %.3f", load)
	}
}

// TestAdmissionRejectEventPublished fills the machine and checks the
// definitive spawn rejection reaches the observer bus.
func TestAdmissionRejectEventPublished(t *testing.T) {
	sys := newSystem(t)
	var rejects []selftune.Event
	sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
		if e.Kind == selftune.AdmissionRejectEvent {
			rejects = append(rejects, e)
		}
	}))
	if _, err := sys.Spawn("video", selftune.SpawnHint(0.8)); err != nil {
		t.Fatal(err)
	}
	if len(rejects) != 0 {
		t.Fatalf("admitted spawn published a reject: %+v", rejects)
	}
	if _, err := sys.Spawn("video", selftune.SpawnName("late"), selftune.SpawnHint(0.5)); err == nil {
		t.Fatal("overloaded placement accepted")
	}
	if len(rejects) != 1 {
		t.Fatalf("%d reject events for one rejection", len(rejects))
	}
	e := rejects[0]
	if e.Source != "late" || e.Core != -1 || e.Reason == "" {
		t.Errorf("reject event %+v", e)
	}
	if e.Kind.String() != "admission-reject" {
		t.Errorf("kind renders as %q", e.Kind.String())
	}
}
