package selftune_test

import (
	"slices"
	"testing"

	"repro/internal/ktrace"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/selftune"
)

// twoMachines builds two independent Systems playing the two machines
// of a fleet: disjoint PID spaces (WithPIDOffset) so per-PID tracer
// drains never mix, same config otherwise. mode (a moveModes shape)
// applies to both.
func twoMachines(t *testing.T, mode ...selftune.Option) (*selftune.System, *selftune.System) {
	t.Helper()
	a, err := selftune.NewSystem(append([]selftune.Option{
		selftune.WithSeed(1), selftune.WithCPUs(2)}, mode...)...)
	if err != nil {
		t.Fatalf("machine A: %v", err)
	}
	t.Cleanup(a.Close)
	b, err := selftune.NewSystem(append([]selftune.Option{
		selftune.WithSeed(2), selftune.WithCPUs(2),
		selftune.WithPIDOffset(1_000_000_000)}, mode...)...)
	if err != nil {
		t.Fatalf("machine B: %v", err)
	}
	t.Cleanup(b.Close)
	return a, b
}

// pidEvents counts a tracer's buffered events per PID without draining.
func pidEvents(buf *selftune.Tracer) map[int]int {
	out := map[int]int{}
	if buf == nil {
		return out
	}
	for _, e := range buf.Snapshot() {
		out[e.PID]++
	}
	return out
}

// TestTransferCarriesServerState is the live-migration contract: the
// CBS server crosses machines as the same object with its remaining
// budget, absolute deadline and accounting intact, the undownloaded
// syscall evidence follows the tasks between tracers, and the workload
// and tuner keep running on the destination.
func TestTransferCarriesServerState(t *testing.T) {
	a, b := twoMachines(t)
	h, err := a.Spawn("video",
		selftune.SpawnHint(0.4),
		selftune.SpawnUtil(0.2),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	h.Start(0)
	// Both machines advance to the same instant — the cluster's control
	// fence in miniature.
	a.Run(1 * selftune.Second)
	b.Run(1 * selftune.Second)

	if !h.LiveMovable() {
		t.Fatal("running tuned workload reports not live-movable")
	}
	srv := h.Tuner().Server()
	srcCore := h.Core().Index
	wantBudget := srv.Budget()
	wantPeriod := srv.Period()
	wantRemaining := srv.RemainingBudget()
	wantDeadline := srv.Deadline()
	wantStats := srv.Stats()
	var pids []int
	for _, task := range srv.Tasks() {
		pids = append(pids, task.PID())
	}
	if len(pids) == 0 {
		t.Fatal("server carries no tasks")
	}
	srcEvidence := pidEvents(a.CoreTracer(srcCore))
	ticksBefore := len(h.Tuner().Snapshots())
	framesBefore := h.Player().Frames()

	dstCore, err := a.Transfer(h, b)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}

	// Identity and CBS state: the same server object, nothing reset.
	if got := h.Tuner().Server(); got != srv {
		t.Fatal("transfer replaced the CBS server instead of carrying it")
	}
	if srv.Detached() {
		t.Fatal("server detached after transfer")
	}
	if got := srv.Budget(); got != wantBudget {
		t.Errorf("budget %v after transfer, want %v", got, wantBudget)
	}
	if got := srv.Period(); got != wantPeriod {
		t.Errorf("period %v after transfer, want %v", got, wantPeriod)
	}
	if got := srv.RemainingBudget(); got != wantRemaining {
		t.Errorf("remaining budget %v after transfer, want %v", got, wantRemaining)
	}
	if got := srv.Deadline(); got != wantDeadline {
		t.Errorf("absolute deadline %v after transfer, want %v", got, wantDeadline)
	}
	if got := srv.Stats(); got != wantStats {
		t.Errorf("server stats changed across transfer:\n%+v\nvs\n%+v", got, wantStats)
	}
	for i, task := range srv.Tasks() {
		if task.PID() != pids[i] {
			t.Errorf("task %d PID %d after transfer, want %d", i, task.PID(), pids[i])
		}
	}

	// Evidence carry: the source tracer drained the tasks' events, the
	// destination tracer received every one of them.
	dstEvidence := pidEvents(b.CoreTracer(dstCore))
	for _, pid := range pids {
		if n := pidEvents(a.CoreTracer(srcCore))[pid]; n != 0 {
			t.Errorf("source tracer still buffers %d events of PID %d", n, pid)
		}
		if got, want := dstEvidence[pid], srcEvidence[pid]; got != want {
			t.Errorf("destination tracer holds %d events of PID %d, want %d", got, want, pid)
		}
	}

	// Bookkeeping: the handle now belongs to the destination.
	if got := len(a.Handles()); got != 0 {
		t.Errorf("source still lists %d handles", got)
	}
	if got := len(b.Handles()); got != 1 || b.Handles()[0] != h {
		t.Errorf("destination handle list %v does not carry the moved handle", b.Handles())
	}
	if got := b.Migrations(); got != 1 {
		t.Errorf("destination counted %d migrations, want 1", got)
	}

	// The workload and its tuner keep making progress on the
	// destination; the source stays quiet.
	stepsA := a.Steps()
	a.Run(1 * selftune.Second)
	b.Run(1 * selftune.Second)
	if got := h.Player().Frames(); got <= framesBefore {
		t.Errorf("workload stalled after transfer: %d frames, had %d", got, framesBefore)
	}
	if got := len(h.Tuner().Snapshots()); got <= ticksBefore {
		t.Errorf("tuner stopped ticking after transfer: %d activations, had %d", got, ticksBefore)
	}
	if a.Steps() != stepsA {
		t.Errorf("source engine stepped %d times after losing its only workload", a.Steps()-stepsA)
	}
}

// TestTransferAccounting seals the bandwidth ledger: the hint leaves
// the source account and lands on the destination, with the admission
// overcharge shrunk back.
func TestTransferAccounting(t *testing.T) {
	a, b := twoMachines(t)
	h, err := a.Spawn("video",
		selftune.SpawnHint(0.4),
		selftune.SpawnUtil(0.2),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	h.Start(0)
	a.Run(500 * selftune.Millisecond)
	b.Run(500 * selftune.Millisecond)

	srcCore := h.Core().Index
	dstCore, err := a.Transfer(h, b)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	srcLoad := a.Machine().Load(srcCore)
	dstLoad := b.Machine().Load(dstCore)
	srv := h.Tuner().Server()
	want := srv.Bandwidth()
	if want < 0.4 {
		want = 0.4 // the spawn hint outlives a smaller reservation
	}
	if srcLoad > 1e-9 {
		t.Errorf("source core still charged %.4f after transfer", srcLoad)
	}
	if diff := dstLoad - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("destination core charged %.4f, want %.4f", dstLoad, want)
	}
}

// TestTransferEligibility pins down what refuses a live move — and
// that a refusal leaves the source untouched.
func TestTransferEligibility(t *testing.T) {
	a, b := twoMachines(t)

	// An unstarted multi-server load ("rtload") has no reservations on
	// its core yet — nothing to carry, so respawning it on the
	// destination is the right move and LiveMovable says no. (A *tuned*
	// spawn is movable even before Start: its tuner holds a live
	// reservation from the moment it attaches.)
	idle, err := a.Spawn("rtload", selftune.SpawnHint(0.2), selftune.SpawnUtil(0.1))
	if err != nil {
		t.Fatalf("Spawn idle: %v", err)
	}
	if idle.LiveMovable() {
		t.Error("unstarted multi-server workload claims to be live-movable")
	}
	if _, err := a.Transfer(idle, b); err == nil {
		t.Error("Transfer of an unstarted multi-server workload succeeded")
	}

	h, err := a.Spawn("video", selftune.SpawnHint(0.3), selftune.SpawnUtil(0.2),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	h.Start(0)
	a.Run(200 * selftune.Millisecond)

	// Desynchronised clocks: machine B still rests at 0.
	if _, err := a.Transfer(h, b); err == nil {
		t.Error("Transfer across different simulated instants succeeded")
	}
	b.Run(200 * selftune.Millisecond)

	// Self-transfer and foreign handles.
	if _, err := a.Transfer(h, a); err == nil {
		t.Error("Transfer onto the same System succeeded")
	}
	if _, err := b.Transfer(h, a); err == nil {
		t.Error("Transfer of a handle the System does not own succeeded")
	}

	// None of the refusals may have disturbed the source.
	if h.Core().Index < 0 || len(a.Handles()) != 2 {
		t.Fatal("failed transfers disturbed the source machine")
	}
	if srv := h.Tuner().Server(); srv.Detached() {
		t.Fatal("failed transfers detached the server")
	}
	a.Run(1 * selftune.Second)
	if h.Player().Frames() == 0 {
		t.Fatal("workload dead after refused transfers")
	}
}

// TestTransferSharedGroupRefused: TuneShared members may not move
// alone — the multi-tuner's servers are entangled on one core.
func TestTransferSharedGroupRefused(t *testing.T) {
	a, b := twoMachines(t)
	var handles []*selftune.Handle
	for i := 0; i < 2; i++ {
		h, err := a.Spawn("video", selftune.OnCore(0),
			selftune.SpawnHint(0.2), selftune.SpawnUtil(0.1))
		if err != nil {
			t.Fatalf("Spawn %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	if _, err := a.TuneShared(handles, []int{0, 1}, selftune.DefaultTunerConfig()); err != nil {
		t.Fatalf("TuneShared: %v", err)
	}
	for _, h := range handles {
		h.Start(0)
	}
	a.Run(500 * selftune.Millisecond)
	b.Run(500 * selftune.Millisecond)
	for i, h := range handles {
		if h.LiveMovable() {
			t.Errorf("shared-group member %d claims to be live-movable", i)
		}
		if _, err := a.Transfer(h, b); err == nil {
			t.Errorf("Transfer moved shared-group member %d", i)
		}
	}
}

// TestTransferRejectedBySupervisorChangesNothing: when every
// destination supervisor rejects the tuner, Transfer reports it and
// both machines are as before — the per-core loads bit for bit (the
// destination cores already hold hints), the handle lists, the
// server's owner, every tracer's contents and the migration counts —
// and the workload keeps running on the source.
func TestTransferRejectedBySupervisorChangesNothing(t *testing.T) {
	for _, mode := range moveModes {
		t.Run(mode.name, func(t *testing.T) {
			a, b := twoMachines(t, mode.opts...)
			cfg := selftune.DefaultTunerConfig()
			cfg.MinBandwidth = 0.2
			h, err := a.Spawn("video", selftune.SpawnName("vid"), selftune.OnCore(0),
				selftune.SpawnHint(0.4), selftune.SpawnUtil(0.2), selftune.Tuned(cfg))
			if err != nil {
				t.Fatal(err)
			}
			h.Start(0)
			for i := 0; i < b.CPUs(); i++ {
				if _, err := b.Spawn("noise", selftune.OnCore(i), selftune.SpawnHint(0.3)); err != nil {
					t.Fatal(err)
				}
				if _, ok := b.Core(i).Supervisor().Register("hog", 0.9); !ok {
					t.Fatalf("core %d supervisor refused the 0.9 floor", i)
				}
			}
			// Stop between two 200ms tuner downloads, so the source ring
			// holds undownloaded evidence a botched rollback could move.
			a.Run(2*selftune.Second + 100*selftune.Millisecond)
			b.Run(2*selftune.Second + 100*selftune.Millisecond)

			systems := []*selftune.System{a, b}
			var loads [][]float64
			var handles [][]*selftune.Handle
			var traces [][]ktrace.Event
			for _, sys := range systems {
				loads = append(loads, sys.Machine().Loads())
				handles = append(handles, slices.Clone(sys.Handles()))
				for i := 0; i < sys.CPUs(); i++ {
					traces = append(traces, sys.CoreTracer(i).Snapshot())
				}
			}
			if len(traces[0]) == 0 {
				t.Fatal("source tracer holds no evidence to protect")
			}
			srv := h.Tuner().Server()
			frames := h.Player().Frames()

			if _, err := a.Transfer(h, b); err == nil {
				t.Fatal("Transfer accepted a tuner every destination supervisor rejects")
			}
			if got := h.Core().Index; got != 0 {
				t.Errorf("handle on core %d after rejected Transfer, want 0", got)
			}
			if !a.Core(0).Scheduler().Owns(srv) {
				t.Error("server left source core 0 despite the rejection")
			}
			k := 0
			for m, sys := range systems {
				if got := sys.Machine().Loads(); !slices.Equal(got, loads[m]) {
					t.Errorf("machine %d loads %v after rejected Transfer, want %v", m, got, loads[m])
				}
				if got := sys.Handles(); !slices.Equal(got, handles[m]) {
					t.Errorf("machine %d handles %v after rejected Transfer, want %v", m, got, handles[m])
				}
				if got := sys.Migrations(); got != 0 {
					t.Errorf("machine %d Migrations() = %d after rejected Transfer, want 0", m, got)
				}
				if got := sys.Machine().Migrations(); got != 0 {
					t.Errorf("machine %d Machine().Migrations() = %d after rejected Transfer, want 0", m, got)
				}
				for i := 0; i < sys.CPUs(); i++ {
					if got := sys.CoreTracer(i).Snapshot(); !slices.Equal(got, traces[k]) {
						t.Errorf("machine %d core %d tracer changed across rejected Transfer: %d -> %d events",
							m, i, len(traces[k]), len(got))
					}
					k++
				}
			}

			a.Run(1 * selftune.Second)
			b.Run(1 * selftune.Second)
			if got := h.Player().Frames(); got <= frames {
				t.Errorf("workload stalled on the source after rejected Transfer: %d frames, had %d", got, frames)
			}
		})
	}
}

// cbsJob is the "test-cbs-job" kind: a hard (5 ms, 10 ms) reservation
// whose task gets one 5 ms job at Start, due 10 ms later. Servers names
// the reservation a move carries; MoveLane has nothing to carry once
// the job is released.
type cbsJob struct {
	sd   *selftune.Scheduler
	srv  *selftune.Server
	task *selftune.Task
}

func (c *cbsJob) Name() string                                     { return c.task.Name() }
func (c *cbsJob) Servers() []*selftune.Server                      { return []*selftune.Server{c.srv} }
func (c *cbsJob) MoveLane(dst *sim.Engine, _ workload.SyscallSink) {}

func (c *cbsJob) Start(at selftune.Time) {
	c.sd.Engine().At(at, func() {
		c.task.Release(c.task.NewJob(at, 5*selftune.Millisecond, at.Add(10*selftune.Millisecond)))
	})
}

// TestTransferKeepsDestinationReservations runs the counterexample of
// sched's TestMoveKeepsDestinationReservations through System.Transfer
// between two 1-CPU machines. On the source, Y and X (each 5 ms every
// 10 ms, hint 0.5) get a job at 0; Y wins the EDF tie, so X is still
// starved at 5 ms, when it moves with q = 5 ms and d = 10 ms. On the
// destination, Z (3.6 ms every 8 ms) has a 3.6 ms job released at 4 ms
// and due at 12 ms. The move passes admission (0.45 + 0.5), so it must
// not cost Z its deadline: Z finishes at 7.6 ms, as without the move.
func TestTransferKeepsDestinationReservations(t *testing.T) {
	registerTestKinds()
	const ms = selftune.Millisecond
	for _, mode := range moveModes {
		t.Run(mode.name, func(t *testing.T) {
			src, err := selftune.NewSystem(append([]selftune.Option{selftune.WithSeed(1)}, mode.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(src.Close)
			dst, err := selftune.NewSystem(append([]selftune.Option{
				selftune.WithSeed(2), selftune.WithPIDOffset(1_000_000_000)}, mode.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(dst.Close)
			var x *selftune.Handle
			for _, name := range []string{"Y", "X"} {
				h, err := src.Spawn("test-cbs-job", selftune.SpawnName(name), selftune.SpawnHint(0.5))
				if err != nil {
					t.Fatal(err)
				}
				h.Start(0)
				x = h
			}
			zs := dst.Core(0).Scheduler()
			z := zs.NewServer("Z", 3600*selftune.Microsecond, 8*ms, selftune.HardCBS)
			zTask := zs.NewTask("Z")
			zTask.AttachTo(z, 0)
			var done selftune.Time
			zTask.OnJobComplete = func(_ *sched.Job, now selftune.Time) { done = now }
			zs.Engine().At(selftune.Time(4*ms), func() {
				zTask.Release(zTask.NewJob(zs.Engine().Now(), 3600*selftune.Microsecond, selftune.Time(12*ms)))
			})

			src.Run(5 * ms)
			dst.Run(5 * ms)
			if _, err := src.Transfer(x, dst); err != nil {
				t.Fatalf("Transfer: %v", err)
			}
			dst.Run(25 * ms)
			if done != selftune.Time(7600*selftune.Microsecond) {
				t.Errorf("Z's job due at 12ms finished at %v, want 7.6ms", done)
			}
			if zTask.Stats().Missed != 0 {
				t.Errorf("Z missed %d deadlines", zTask.Stats().Missed)
			}
		})
	}
}
