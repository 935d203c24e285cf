package selftune_test

import (
	"slices"
	"testing"

	"repro/internal/ktrace"
	"repro/internal/workload"
	"repro/selftune"
)

// moveModes are the two machine shapes every move test runs on: one
// engine and one tracer shared by all cores, and one engine lane and
// tracer per core.
var moveModes = []struct {
	name string
	opts []selftune.Option
}{
	{"single-engine", nil},
	{"laned", []selftune.Option{selftune.WithCoreParallelism(1)}},
}

// newMoveSystem builds a seeded 2-core System of the given mode.
func newMoveSystem(t *testing.T, mode []selftune.Option, opts ...selftune.Option) *selftune.System {
	t.Helper()
	sys, err := selftune.NewSystem(append(append([]selftune.Option{
		selftune.WithSeed(11),
		selftune.WithCPUs(2),
	}, mode...), opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// spawnFloored spawns a tuned video on core 0 whose tuner claims a 0.2
// bandwidth floor, and fills core 1's supervisor with a 0.9 floor. The
// placement accounts still show core 1 empty, so a move there passes
// admission, but the destination supervisor rejects the tuner.
func spawnFloored(t *testing.T, sys *selftune.System, name string) *selftune.Handle {
	t.Helper()
	cfg := selftune.DefaultTunerConfig()
	cfg.MinBandwidth = 0.2
	h, err := sys.Spawn("video", selftune.SpawnName(name), selftune.OnCore(0), selftune.Tuned(cfg))
	if err != nil {
		t.Fatal(err)
	}
	h.Start(0)
	if _, ok := sys.Core(1).Supervisor().Register("hog", 0.9); !ok {
		t.Fatal("core 1 supervisor refused the 0.9 floor")
	}
	return h
}

// TestMigrateRejectedBySupervisorChangesNothing: when the destination
// supervisor rejects a tuner's registration, Migrate reports it and
// the machine is as before — the server's core, the per-core loads
// (bit for bit, on a destination that already holds a hint), the
// migration counts and every tracer's contents.
func TestMigrateRejectedBySupervisorChangesNothing(t *testing.T) {
	for _, mode := range moveModes {
		t.Run(mode.name, func(t *testing.T) {
			sys := newMoveSystem(t, mode.opts)
			h := spawnFloored(t, sys, "vid")
			if _, err := sys.Spawn("noise", selftune.SpawnName("held"), selftune.OnCore(1),
				selftune.SpawnHint(0.1)); err != nil {
				t.Fatal(err)
			}
			// Stop between two 200ms tuner downloads, so the ring holds
			// undownloaded evidence a botched rollback could move.
			sys.Run(2*selftune.Second + 100*selftune.Millisecond)

			loads := sys.Machine().Loads()
			traces := [][]ktrace.Event{sys.CoreTracer(0).Snapshot(), sys.CoreTracer(1).Snapshot()}
			if len(traces[0]) == 0 {
				t.Fatal("core 0 tracer holds no evidence to protect")
			}
			if err := sys.Migrate(h, 1); err == nil {
				t.Fatal("Migrate accepted a tuner the destination supervisor rejects")
			}
			if got := h.Core().Index; got != 0 {
				t.Errorf("handle on core %d after rejected Migrate, want 0", got)
			}
			if !sys.Core(0).Scheduler().Owns(h.Tuner().Server()) {
				t.Error("server left core 0 despite the rejection")
			}
			if got := sys.Machine().Loads(); !slices.Equal(got, loads) {
				t.Errorf("loads %v after rejected Migrate, want %v", got, loads)
			}
			if got := sys.Migrations(); got != 0 {
				t.Errorf("Migrations() = %d after rejected Migrate, want 0", got)
			}
			if got := sys.Machine().Migrations(); got != 0 {
				t.Errorf("Machine().Migrations() = %d after rejected Migrate, want 0", got)
			}
			for i, want := range traces {
				if got := sys.CoreTracer(i).Snapshot(); !slices.Equal(got, want) {
					t.Errorf("core %d tracer changed across rejected Migrate: %d -> %d events",
						i, len(want), len(got))
				}
			}
		})
	}
}

// batchPolicy plans one batch on its first call: the named units, in
// order, to core to.
type batchPolicy struct {
	names []string
	to    int
	done  bool
}

func (p *batchPolicy) Name() string { return "batch" }

func (p *batchPolicy) Plan(snap selftune.Snapshot) []selftune.Move {
	if p.done {
		return nil
	}
	p.done = true
	var moves []selftune.Move
	for _, name := range p.names {
		for _, u := range snap.Units {
			if u.Name == name {
				moves = append(moves, selftune.Move{Unit: u.ID, To: p.to, Reason: "batch"})
			}
		}
	}
	return moves
}

// TestBatchSkipsRejectedUnit: a unit of a balancer batch that the
// destination supervisor rejects stays on its core, the next unit of
// the batch still moves, and the batch event counts only the unit
// that moved.
func TestBatchSkipsRejectedUnit(t *testing.T) {
	for _, mode := range moveModes {
		t.Run(mode.name, func(t *testing.T) {
			sys := newMoveSystem(t, mode.opts,
				selftune.WithBalancer(&batchPolicy{names: []string{"vid", "noise"}, to: 1}),
				selftune.WithBalanceInterval(500*selftune.Millisecond))
			var batches, moves []selftune.Event
			sys.Subscribe(selftune.ObserverFunc(func(e selftune.Event) {
				switch e.Kind {
				case selftune.MigrationBatchEvent:
					batches = append(batches, e)
				case selftune.MigrationEvent:
					moves = append(moves, e)
				}
			}))
			vid := spawnFloored(t, sys, "vid")
			noise, err := sys.Spawn("noise", selftune.SpawnName("noise"), selftune.OnCore(0))
			if err != nil {
				t.Fatal(err)
			}
			noise.Start(0)
			sys.Run(1 * selftune.Second)

			if got := vid.Core().Index; got != 0 {
				t.Errorf("rejected unit on core %d, want 0", got)
			}
			if !sys.Core(0).Scheduler().Owns(vid.Tuner().Server()) {
				t.Error("rejected unit's server left core 0")
			}
			if got := noise.Core().Index; got != 1 {
				t.Errorf("next unit of the batch on core %d, want 1", got)
			}
			if len(batches) != 1 || batches[0].Count != 1 || batches[0].Core != 1 {
				t.Fatalf("batch events %+v, want one to core 1 with Count 1", batches)
			}
			if len(moves) != 1 || moves[0].Source != "noise" {
				t.Errorf("migration events %+v, want one for noise", moves)
			}
			if got := sys.Migrations(); got != 1 {
				t.Errorf("Migrations() = %d, want 1", got)
			}
		})
	}
}

// countingSink is a custom syscall sink that counts what it records.
type countingSink struct{ n int }

func (c *countingSink) Syscall(selftune.Time, int, int) selftune.Duration {
	c.n++
	return 0
}

// TestSingleEngineMigrateLeavesTracerAndSink: a move within a
// single-engine machine keeps the workload on the one engine and the
// one tracer, so it carries nothing — the shared ring is not drained
// and re-injected (which would move the tuned task's events behind
// the other task's), and a custom player sink is not replaced by the
// tracer.
func TestSingleEngineMigrateLeavesTracerAndSink(t *testing.T) {
	sys := newMoveSystem(t, nil)
	tuned, err := sys.Spawn("video", selftune.SpawnName("vid"), selftune.OnCore(0),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	// A second traced task that stays put interleaves its syscalls
	// with the tuned task's in the shared ring.
	stay, err := sys.Spawn("mp3", selftune.SpawnName("stay"), selftune.OnCore(1))
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	cfg := workload.VideoPlayerConfig("own-sink", 0.2)
	cfg.Sink = sink
	player, err := sys.Spawn("player", selftune.OnCore(0), selftune.SpawnPlayer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	tuned.Start(0)
	stay.Start(0)
	player.Start(0)
	// Stop between two 200ms tuner downloads, so the ring holds the
	// tuned task's undownloaded evidence.
	sys.Run(1*selftune.Second + 100*selftune.Millisecond)

	ring := sys.Tracer().Snapshot()
	if len(ring) == 0 || sink.n == 0 {
		t.Fatalf("nothing traced yet: ring %d events, sink %d", len(ring), sink.n)
	}
	for _, h := range []*selftune.Handle{tuned, player} {
		if err := sys.Migrate(h, 1); err != nil {
			t.Fatalf("Migrate %s: %v", h.Name(), err)
		}
	}
	if got := sys.Tracer().Snapshot(); !slices.Equal(got, ring) {
		t.Errorf("shared tracer changed across a single-engine move: %d -> %d events", len(ring), len(got))
	}
	if got := player.Player().Task().Sink(); got != workload.SyscallSink(sink) {
		t.Errorf("player sink is %T after the move, want the custom sink", got)
	}
	recorded := sink.n
	sys.Run(1 * selftune.Second)
	if sink.n <= recorded {
		t.Errorf("custom sink stopped recording after the move (%d -> %d)", recorded, sink.n)
	}
	pid := player.Player().Task().PID()
	for _, e := range sys.Tracer().Snapshot() {
		if e.PID == pid {
			t.Fatalf("player syscall at %v reached the shared tracer", e.At)
		}
	}
}
