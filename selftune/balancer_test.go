package selftune_test

import (
	"strings"
	"testing"

	"repro/selftune"
)

// fillFragmented pins tuned video workloads so that cores 0..n-2 carry
// 0.85 of hint each ({0.45, 0.40}) and the last core 0.50 — a
// fragmented state worst-fit cannot admit a 0.5 spawn into, although
// one migration (0.40 from some core to the last) makes room.
func fillFragmented(t *testing.T, sys *selftune.System) {
	t.Helper()
	n := sys.CPUs()
	for c := 0; c < n-1; c++ {
		for _, hint := range []float64{0.45, 0.40} {
			h, err := sys.Spawn("video",
				selftune.OnCore(c),
				selftune.SpawnHint(hint),
				selftune.SpawnUtil(0.10),
				selftune.Tuned(selftune.DefaultTunerConfig()))
			if err != nil {
				t.Fatalf("fill core %d hint %v: %v", c, hint, err)
			}
			h.Start(0)
		}
	}
	h, err := sys.Spawn("video",
		selftune.OnCore(n-1),
		selftune.SpawnHint(0.50),
		selftune.SpawnUtil(0.10),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatalf("fill last core: %v", err)
	}
	h.Start(0)
}

// builtinPolicies returns fresh instances of every built-in Balancer
// (policies may carry state, so tests never share them).
func builtinPolicies() map[string]selftune.Balancer {
	return map[string]selftune.Balancer{
		"reactive":      selftune.BalanceReactive(),
		"work-stealing": selftune.BalanceWorkStealing(),
	}
}

func TestStaticPlacementRejectsFragmentedSet(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(1), selftune.WithCPUs(4),
		selftune.WithULub(0.95))
	if err != nil {
		t.Fatal(err)
	}
	fillFragmented(t, sys)
	if _, err := sys.Spawn("video", selftune.SpawnHint(0.5)); err == nil {
		t.Fatal("static worst-fit admitted a 0.5 spawn into the fragmented machine")
	}
	if sys.Migrations() != 0 {
		t.Errorf("%d migrations without a balancer", sys.Migrations())
	}
	if sys.Balancer() != nil {
		t.Error("Balancer() non-nil on an unbalanced System")
	}
}

func TestAdmissionRebalanceAdmitsWhatStaticRejects(t *testing.T) {
	for name, policy := range builtinPolicies() {
		t.Run(name, func(t *testing.T) {
			sys, err := selftune.NewSystem(selftune.WithSeed(1), selftune.WithCPUs(4),
				selftune.WithULub(0.95), selftune.WithBalancer(policy))
			if err != nil {
				t.Fatal(err)
			}
			var migs []selftune.Event
			sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
				if e.Kind == selftune.MigrationEvent {
					migs = append(migs, e)
				}
			}))
			fillFragmented(t, sys)
			h, err := sys.Spawn("video", selftune.SpawnHint(0.5), selftune.SpawnUtil(0.10),
				selftune.Tuned(selftune.DefaultTunerConfig()))
			if err != nil {
				t.Fatalf("rebalancing admission rejected the 0.5 spawn: %v", err)
			}
			h.Start(0)
			if len(migs) != 1 {
				t.Fatalf("admission performed %d migrations, want 1", len(migs))
			}
			if migs[0].Reason != "admission" {
				t.Errorf("migration reason %q, want \"admission\"", migs[0].Reason)
			}
			if migs[0].From == migs[0].Core {
				t.Errorf("migration %d -> %d does not move", migs[0].From, migs[0].Core)
			}
			// Every core stays under its bound after the shuffle.
			for i, load := range sys.Machine().Loads() {
				if load > 0.95+1e-9 {
					t.Errorf("core %d at %.3f after admission rebalance", i, load)
				}
			}
			// The admitted workload actually runs.
			sys.Run(2 * selftune.Second)
			if p := h.Player(); p == nil || p.Frames() < 40 {
				t.Errorf("admitted workload barely ran")
			}
		})
	}
}

func TestReactiveBalancerSpreadsPinnedLoad(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(2), selftune.WithCPUs(4),
		selftune.WithBalancer(selftune.BalanceReactive()),
		selftune.WithBalanceInterval(100*selftune.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Everything starts pinned on core 0: hints 4 x 0.2 = 0.8 while
	// cores 1-3 are idle.
	handles := make([]*selftune.Handle, 0, 4)
	for i := 0; i < 4; i++ {
		h, err := sys.Spawn("video",
			selftune.OnCore(0),
			selftune.SpawnHint(0.2),
			selftune.SpawnUtil(0.15),
			selftune.Tuned(selftune.DefaultTunerConfig()))
		if err != nil {
			t.Fatal(err)
		}
		h.Start(0)
		handles = append(handles, h)
	}
	if got := sys.Machine().Load(0); got < 0.8-1e-9 {
		t.Fatalf("setup: core 0 at %.3f, want 0.8", got)
	}
	sys.Run(5 * selftune.Second)
	if sys.Migrations() == 0 {
		t.Fatal("reactive balancer never migrated")
	}
	loads := sys.Machine().Loads()
	max, min := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l > max {
			max = l
		}
		if l < min {
			min = l
		}
	}
	if max-min > 0.25 {
		t.Errorf("loads still spread %.3f after balancing: %v", max-min, loads)
	}
	// The migrated players kept producing frames.
	for i, h := range handles {
		if h.Player().Frames() < 100 {
			t.Errorf("player %d produced %d frames", i, h.Player().Frames())
		}
	}
	if err := sys.Core(0).Scheduler().Validate(); err != nil {
		t.Error(err)
	}
}

func TestReactiveBalancerPullsOnSustainedImbalance(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(3), selftune.WithCPUs(2),
		selftune.WithBalancer(selftune.BalanceReactive()),
		selftune.WithBalanceInterval(100*selftune.Millisecond),
		selftune.WithBalanceThreshold(0.3))
	if err != nil {
		t.Fatal(err)
	}
	var migs []selftune.Event
	sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
		if e.Kind == selftune.MigrationEvent {
			migs = append(migs, e)
		}
	}))
	for i := 0; i < 3; i++ {
		h, err := sys.Spawn("video",
			selftune.OnCore(0),
			selftune.SpawnHint(0.25),
			selftune.SpawnUtil(0.15),
			selftune.Tuned(selftune.DefaultTunerConfig()))
		if err != nil {
			t.Fatal(err)
		}
		h.Start(0)
	}
	sys.Run(3 * selftune.Second)
	if len(migs) == 0 {
		t.Fatal("reactive balancer never migrated")
	}
	for _, e := range migs {
		if e.Reason != "imbalance" {
			t.Errorf("migration reason %q, want \"imbalance\"", e.Reason)
		}
		if e.From != 0 || e.Core != 1 {
			t.Errorf("migration %d -> %d, want 0 -> 1", e.From, e.Core)
		}
	}
	// The first pull needs three sustained ticks, not one.
	if migs[0].At < selftune.Time(300*selftune.Millisecond) {
		t.Errorf("reactive pulled at %v, before three sustained ticks", migs[0].At)
	}
}

// TestWorkStealingDeconsolidatesInOneTick pins eight tenants on core 0
// of an 8-core machine: a single stealing tick must spread them (every
// cold core claims in the same plan), where one-move policies would
// need eight ticks. The batch lands on the bus as MigrationBatchEvents.
func TestWorkStealingDeconsolidatesInOneTick(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(4), selftune.WithCPUs(8),
		selftune.WithBalancer(selftune.BalanceWorkStealing()),
		selftune.WithBalanceInterval(100*selftune.Millisecond),
		selftune.WithBalanceThreshold(0.05))
	if err != nil {
		t.Fatal(err)
	}
	var batches []selftune.Event
	sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
		if e.Kind == selftune.MigrationBatchEvent {
			batches = append(batches, e)
		}
	}))
	lean := selftune.DefaultTunerConfig()
	lean.InitialBudget = selftune.Millisecond
	for i := 0; i < 8; i++ {
		h, err := sys.Spawn("video",
			selftune.OnCore(0),
			selftune.SpawnHint(0.1),
			selftune.SpawnUtil(0.05),
			selftune.Tuned(lean))
		if err != nil {
			t.Fatal(err)
		}
		h.Start(0)
	}
	// One balance tick: 100ms + a little slack.
	sys.Run(150 * selftune.Millisecond)
	if got := sys.Migrations(); got < 7 {
		t.Fatalf("one stealing tick moved %d units, want >= 7", got)
	}
	loads := sys.Machine().Loads()
	lo, hi := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi-lo > 0.05+1e-9 {
		t.Errorf("spread %.3f after one stealing tick: %v", hi-lo, loads)
	}
	if len(batches) == 0 {
		t.Fatal("no MigrationBatchEvent published")
	}
	var counted int
	for _, e := range batches {
		if e.Count < 1 {
			t.Errorf("batch event with count %d", e.Count)
		}
		if e.Reason != "steal" {
			t.Errorf("batch reason %q, want \"steal\"", e.Reason)
		}
		counted += e.Count
	}
	if counted != sys.Migrations() {
		t.Errorf("batch events count %d moves, Migrations() = %d", counted, sys.Migrations())
	}
	if got := sys.Balancer().Name(); got != "work-stealing" {
		t.Errorf("Balancer().Name() = %q", got)
	}
}

func TestBalancerLeavesBalancedSystemAlone(t *testing.T) {
	for name, policy := range builtinPolicies() {
		t.Run(name, func(t *testing.T) {
			sys, err := selftune.NewSystem(selftune.WithSeed(4), selftune.WithCPUs(2),
				selftune.WithBalancer(policy),
				selftune.WithBalanceInterval(100*selftune.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			// Worst-fit already balances 2+2; the balancer must not churn.
			for i := 0; i < 4; i++ {
				h, err := sys.Spawn("video", selftune.SpawnHint(0.3), selftune.SpawnUtil(0.15),
					selftune.Tuned(selftune.DefaultTunerConfig()))
				if err != nil {
					t.Fatal(err)
				}
				h.Start(0)
			}
			sys.Run(5 * selftune.Second)
			if got := sys.Migrations(); got != 0 {
				t.Errorf("%d migrations on a balanced machine", got)
			}
		})
	}
}

func TestManualMigrate(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(5), selftune.WithCPUs(2))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := sys.Spawn("video", selftune.OnCore(0), selftune.SpawnUtil(0.2),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Migrate(tuned, 0); err == nil {
		t.Error("migrating onto the same core succeeded")
	}
	if err := sys.Migrate(tuned, 2); err == nil {
		t.Error("migrating out of range succeeded")
	}
	if err := sys.Migrate(nil, 1); err == nil {
		t.Error("migrating nil succeeded")
	}
	tuned.Start(0)
	sys.Run(selftune.Second)
	if err := sys.Migrate(tuned, 1); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got := tuned.Core().Index; got != 1 {
		t.Errorf("handle on core %d after migration, want 1", got)
	}
	sys.Run(selftune.Second)
	if got := sys.Core(1).Scheduler().BusyTime(); got == 0 {
		t.Error("core 1 never ran the migrated workload")
	}
	if sys.Migrations() != 1 {
		t.Errorf("Migrations() = %d, want 1", sys.Migrations())
	}
}

// TestUntunedBareTaskMigrates moves an untuned mp3 player — no
// reservation, just a best-effort task — across cores: since the
// balancing engine migrates units, not tuners, every workload kind
// moves.
func TestUntunedBareTaskMigrates(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(5), selftune.WithCPUs(2))
	if err != nil {
		t.Fatal(err)
	}
	untuned, err := sys.Spawn("mp3", selftune.OnCore(0))
	if err != nil {
		t.Fatal(err)
	}
	if !untuned.Migratable() {
		t.Fatal("untuned single-task workload not migratable")
	}
	untuned.Start(0)
	sys.Run(selftune.Second)
	framesBefore := untuned.Player().Frames()
	if err := sys.Migrate(untuned, 1); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	busy1 := sys.Core(1).Scheduler().BusyTime()
	sys.Run(selftune.Second)
	if got := untuned.Player().Frames(); got <= framesBefore {
		t.Error("player stopped producing frames after migration")
	}
	if got := sys.Core(1).Scheduler().BusyTime(); got <= busy1 {
		t.Error("core 1 never ran the migrated best-effort task")
	}
	if got := untuned.Core().Index; got != 1 {
		t.Errorf("handle on core %d, want 1", got)
	}
}

// TestUntunedRtloadMigrates is half the acceptance scenario: a started
// multi-reservation background load (no tuner to rehome) migrates as
// one unit, conserving its total reserved bandwidth.
func TestUntunedRtloadMigrates(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(6), selftune.WithCPUs(2))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sys.Spawn("rtload", selftune.OnCore(0),
		selftune.SpawnUtil(0.3), selftune.SpawnCount(3))
	if err != nil {
		t.Fatal(err)
	}
	// Before Start the reservations do not exist: nothing to move yet.
	if rt.Migratable() {
		t.Error("unstarted rtload claims to be migratable")
	}
	if err := sys.Migrate(rt, 1); err == nil {
		t.Error("migrating an unstarted rtload succeeded")
	}
	rt.Start(0)
	sys.Run(500 * selftune.Millisecond)
	if !rt.Migratable() {
		t.Fatal("started rtload not migratable")
	}
	reservedBefore := sys.Core(0).Scheduler().TotalReservedBandwidth() +
		sys.Core(1).Scheduler().TotalReservedBandwidth()
	if err := sys.Migrate(rt, 1); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got := rt.Core().Index; got != 1 {
		t.Errorf("handle on core %d, want 1", got)
	}
	if got := sys.Core(0).Scheduler().TotalReservedBandwidth(); got != 0 {
		t.Errorf("origin core still reserves %.3f", got)
	}
	reservedAfter := sys.Core(0).Scheduler().TotalReservedBandwidth() +
		sys.Core(1).Scheduler().TotalReservedBandwidth()
	if diff := reservedAfter - reservedBefore; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("total reserved bandwidth changed: %.4f -> %.4f", reservedBefore, reservedAfter)
	}
	// All three reserved periodic tasks keep meeting deadlines on the
	// new core.
	sys.Run(2 * selftune.Second)
	wl := rt.Workload().(interface{ Servers() []*selftune.Server })
	if got := len(wl.Servers()); got != 3 {
		t.Fatalf("rtload carries %d servers, want 3", got)
	}
	for _, srv := range wl.Servers() {
		if !sys.Core(1).Scheduler().Owns(srv) {
			t.Errorf("server %s not on the destination core", srv.Name())
		}
		for _, task := range srv.Tasks() {
			if st := task.Stats(); st.Missed > 0 || st.Completed == 0 {
				t.Errorf("task %s: completed=%d missed=%d after migration",
					task.Name(), st.Completed, st.Missed)
			}
		}
	}
	if sys.Migrations() != 1 {
		t.Errorf("Migrations() = %d, want 1 (a group is one unit)", sys.Migrations())
	}
}

// TestTuneSharedGroupMigrates is the other half of the acceptance
// scenario: a shared-reservation group moves as one unit — every
// member handle changes core, the shared tuner rehomes its supervisor
// claim, and migrating *any* member moves the whole group.
func TestTuneSharedGroupMigrates(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(9), selftune.WithCPUs(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Spawn("mp3", selftune.SpawnName("audio"), selftune.OnCore(0))
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.Spawn("video",
		selftune.SpawnName("video"), selftune.SpawnUtil(0.15), selftune.OnCore(0))
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := sys.TuneShared([]*selftune.Handle{a, v}, []int{0, 1}, selftune.DefaultTunerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Migratable() || !v.Migratable() {
		t.Fatal("shared-group members not migratable")
	}
	if a.Tuner() != tuner || v.Tuner() != tuner {
		t.Error("Tuner() does not return the group's tuner")
	}
	a.Start(0)
	v.Start(0)
	sys.Run(2 * selftune.Second)
	if sys.Core(0).Supervisor().TotalGranted() <= 0 {
		t.Fatal("no claim on the origin supervisor; setup broken")
	}

	var migs []selftune.Event
	sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
		if e.Kind == selftune.MigrationEvent {
			migs = append(migs, e)
		}
	}))
	// Migrating the *video* member moves audio too: one group, one unit.
	if err := sys.Migrate(v, 1); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if a.Core().Index != 1 || v.Core().Index != 1 {
		t.Errorf("group split: audio on %d, video on %d", a.Core().Index, v.Core().Index)
	}
	if len(migs) != 1 {
		t.Errorf("%d migration events for one group move", len(migs))
	}
	if sys.Migrations() != 1 {
		t.Errorf("Migrations() = %d, want 1", sys.Migrations())
	}
	if got := sys.Core(0).Supervisor().TotalGranted(); got != 0 {
		t.Errorf("origin supervisor still holds %.3f after group rehome", got)
	}
	if got := sys.Core(1).Supervisor().TotalGranted(); got <= 0 {
		t.Error("destination supervisor holds no claim after group rehome")
	}
	// The shared reservation keeps serving both threads over there.
	ticksBefore := len(tuner.Snapshots())
	busyBefore := sys.Core(1).Scheduler().BusyTime()
	sys.Run(2 * selftune.Second)
	if got := len(tuner.Snapshots()); got <= ticksBefore {
		t.Error("shared tuner stopped ticking after migration")
	}
	if got := sys.Core(1).Scheduler().BusyTime(); got <= busyBefore {
		t.Error("destination core never ran the migrated group")
	}
}

// TestCustomBalancerPolicy drives the WithBalancer seam with a user
// policy: consolidate everything onto the highest-numbered core.
func TestCustomBalancerPolicy(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(7), selftune.WithCPUs(2),
		selftune.WithBalancer(consolidator{}),
		selftune.WithBalanceInterval(100*selftune.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.Spawn("video", selftune.OnCore(0), selftune.SpawnHint(0.2),
		selftune.SpawnUtil(0.1), selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	var migs []selftune.Event
	sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
		if e.Kind == selftune.MigrationEvent {
			migs = append(migs, e)
		}
	}))
	sys.Run(selftune.Second)
	if h.Core().Index != 1 {
		t.Fatalf("custom policy left the workload on core %d", h.Core().Index)
	}
	if len(migs) == 0 {
		t.Fatal("custom policy never migrated")
	}
	// An empty Move.Reason defaults to the snapshot's trigger.
	if migs[0].Reason != selftune.PlanPeriodic {
		t.Errorf("migration reason %q, want %q", migs[0].Reason, selftune.PlanPeriodic)
	}
	if got := sys.Balancer().Name(); got != "consolidate" {
		t.Errorf("Balancer().Name() = %q", got)
	}
}

// consolidator is the test's custom policy: move every migratable unit
// to the last core.
type consolidator struct{}

func (consolidator) Name() string { return "consolidate" }

func (consolidator) Plan(snap selftune.Snapshot) []selftune.Move {
	last := len(snap.Loads) - 1
	var moves []selftune.Move
	for _, u := range snap.Units {
		if u.Migratable && u.Core != last {
			moves = append(moves, selftune.Move{Unit: u.ID, To: last})
		}
	}
	return moves
}

func TestAllKindsRunUnderAllPolicies(t *testing.T) {
	policies := builtinPolicies()
	policies["none"] = nil
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			sys, err := selftune.NewSystem(selftune.WithSeed(6), selftune.WithCPUs(4),
				selftune.WithBalancer(policy))
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range selftune.Kinds() {
				if strings.HasPrefix(kind, "test-") {
					continue // the registry tests' kinds, one of them nil
				}
				opts := []selftune.SpawnOption{selftune.SpawnName("k-" + kind)}
				if kind == "player" {
					opts = append(opts, selftune.SpawnPlayer(selftune.PlayerConfig{
						Period:     20 * selftune.Millisecond,
						MeanDemand: 2 * selftune.Millisecond,
					}))
				}
				h, err := sys.Spawn(kind, opts...)
				if err != nil {
					t.Fatalf("spawn %q: %v", kind, err)
				}
				h.Start(0)
			}
			sys.Run(2 * selftune.Second)
			var busy float64
			for i := 0; i < sys.CPUs(); i++ {
				busy += float64(sys.Core(i).Scheduler().BusyTime())
			}
			if busy == 0 {
				t.Error("no kind consumed CPU time")
			}
		})
	}
}

func TestBalancerOptionValidation(t *testing.T) {
	bad := []selftune.Option{
		selftune.WithBalanceInterval(0),
		selftune.WithBalanceInterval(-selftune.Second),
		selftune.WithBalanceThreshold(0),
		selftune.WithBalanceThreshold(1),
	}
	for i, opt := range bad {
		if _, err := selftune.NewSystem(opt); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
	sys, err := selftune.NewSystem(selftune.WithBalancer(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Balancer(); got != nil {
		t.Errorf("Balancer() = %v, want nil", got)
	}
	reactive := selftune.BalanceReactive()
	sys, err = selftune.NewSystem(selftune.WithCPUs(2), selftune.WithBalancer(reactive))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Balancer(); got != reactive {
		t.Errorf("Balancer() = %v, want the installed policy", got)
	}
}
