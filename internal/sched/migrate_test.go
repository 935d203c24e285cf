package sched_test

import (
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// twoCores builds two schedulers sharing one engine, with disjoint PID
// ranges, like the cores of an smp.Machine.
func twoCores(t *testing.T) (*sim.Engine, *sched.Scheduler, *sched.Scheduler) {
	t.Helper()
	eng := sim.New()
	a := sched.New(sched.Config{Engine: eng, PIDBase: 1000})
	b := sched.New(sched.Config{Engine: eng, PIDBase: 1_001_000})
	return eng, a, b
}

// single is the migration unit of one server and its attached tasks.
func single(srv *sched.Server) sched.Group {
	return sched.Group{Servers: []*sched.Server{srv}}
}

func TestMigratePreservesBudgetAndDeadline(t *testing.T) {
	eng, a, b := twoCores(t)
	srv := a.NewServer("mig", 20*ms, 100*ms, sched.HardCBS)
	task := a.NewTask("mig")
	task.AttachTo(srv, 0)
	startPeriodic(eng, task, 20*ms, 100*ms, 0)

	// Stop mid-period: the task has consumed part of its budget and the
	// server holds a live (q, d) pair.
	eng.RunUntil(simtime.Time(210 * ms))
	qBefore, dBefore := srv.RemainingBudget(), srv.Deadline()
	bwBefore := srv.Bandwidth()

	if err := a.MoveAll(single(srv), b, nil); err != nil {
		t.Fatalf("MoveAll: %v", err)
	}
	if a.Owns(srv) {
		t.Fatal("old scheduler still owns the server")
	}
	if !b.Owns(srv) || srv.Detached() {
		t.Fatal("new scheduler does not own the server after MoveAll")
	}
	if got := srv.RemainingBudget(); got != qBefore {
		t.Errorf("remaining budget changed across migration: %v -> %v", qBefore, got)
	}
	if got := srv.Deadline(); got != dBefore {
		t.Errorf("deadline changed across migration: %v -> %v", dBefore, got)
	}
	if got := srv.Bandwidth(); got != bwBefore {
		t.Errorf("bandwidth changed across migration: %v -> %v", bwBefore, got)
	}

	// The task keeps meeting deadlines on the new core.
	missedBefore := task.Stats().Missed
	eng.RunUntil(simtime.Time(2 * simtime.Second))
	st := task.Stats()
	if st.Missed != missedBefore {
		t.Errorf("missed %d deadlines after migration", st.Missed-missedBefore)
	}
	if st.Completed < 18 {
		t.Errorf("completed %d jobs, want >= 18", st.Completed)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("old core: %v", err)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("new core: %v", err)
	}
	// PID invariant: the task kept its PID from the old core's range.
	if task.PID() >= 1_001_000 || task.PID() < 1000 {
		t.Errorf("task PID %d left its original range", task.PID())
	}
}

func TestMigrateThrottledServerReplenishesOnNewCore(t *testing.T) {
	eng, a, b := twoCores(t)
	// A tiny hard reservation that a heavy task exhausts immediately.
	srv := a.NewServer("starved", 5*ms, 100*ms, sched.HardCBS)
	task := a.NewTask("starved")
	task.AttachTo(srv, 0)
	eng.At(0, func() {
		task.Release(task.NewJob(0, 50*ms, simtime.Never))
	})
	// By t=10ms the 5ms budget is long gone and the server throttled.
	eng.RunUntil(simtime.Time(10 * ms))
	if srv.Stats().Exhaustions == 0 {
		t.Fatal("server never exhausted; test setup broken")
	}
	if err := a.MoveAll(single(srv), b, nil); err != nil {
		t.Fatalf("MoveAll: %v", err)
	}
	// The job (50ms total at 5ms/100ms) finishes on the new core.
	eng.RunUntil(simtime.Time(2 * simtime.Second))
	if got := task.Stats().Completed; got != 1 {
		t.Fatalf("job not completed on new core: completed=%d", got)
	}
	if got := b.BusyTime(); got < 40*ms {
		t.Errorf("new core delivered only %v of CPU time", got)
	}
	if err := b.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMigrateWhileRunningSettlesAccounting(t *testing.T) {
	eng, a, b := twoCores(t)
	srv := a.NewServer("run", 50*ms, 100*ms, sched.HardCBS)
	task := a.NewTask("run")
	task.AttachTo(srv, 0)
	eng.At(0, func() {
		task.Release(task.NewJob(0, 40*ms, simtime.Never))
	})
	// Migrate mid-slice: the task is executing right now.
	var migErr error
	eng.At(simtime.Time(13*ms), func() { migErr = a.MoveAll(single(srv), b, nil) })
	eng.RunUntil(simtime.Time(simtime.Second))
	if migErr != nil {
		t.Fatalf("migration: %v", migErr)
	}
	if got := task.Stats().Completed; got != 1 {
		t.Fatalf("job did not complete, completed=%d", got)
	}
	// Exactly 13ms ran on the old core, the remaining 27ms on the new.
	if got := a.BusyTime(); got != 13*ms {
		t.Errorf("old core busy %v, want 13ms", got)
	}
	if got := b.BusyTime(); got != 27*ms {
		t.Errorf("new core busy %v, want 27ms", got)
	}
	if got := task.Stats().Consumed; got != 40*ms {
		t.Errorf("task consumed %v, want 40ms", got)
	}
}

// TestDetachErrors covers the error surface of both group operations:
// every refusal leaves every member where it was.
func TestDetachErrors(t *testing.T) {
	_, a, b := twoCores(t)
	srv := a.NewServer("s", 10*ms, 100*ms, sched.HardCBS)
	for name, g := range map[string]sched.Group{
		"foreign server": single(b.NewServer("foreign", 10*ms, 100*ms, sched.HardCBS)),
		"nil server":     single(nil),
	} {
		if err := a.DetachAll(g); err == nil {
			t.Errorf("DetachAll of a group with a %s succeeded", name)
		}
		if err := a.MoveAll(g, b, nil); err == nil {
			t.Errorf("MoveAll of a group with a %s succeeded", name)
		}
	}
	if !a.Owns(srv) {
		t.Fatal("a refused group operation moved the server")
	}
	if err := a.MoveAll(single(srv), b, nil); err != nil {
		t.Fatalf("MoveAll: %v", err)
	}
	if err := a.MoveAll(single(srv), b, nil); err == nil {
		t.Error("MoveAll of a server that already left succeeded")
	}
	if err := b.DetachAll(single(srv)); err != nil {
		t.Fatalf("DetachAll: %v", err)
	}
	if !srv.Detached() {
		t.Error("server not detached by DetachAll")
	}
	if err := b.DetachAll(single(srv)); err == nil {
		t.Error("double DetachAll succeeded")
	}
}

// TestMoveKeepsDestinationReservations: a server starved on its source
// core must not carry its (q, d) onto a destination where it breaks a
// reservation. On the source, Y and X (5 ms every 10 ms) are released
// at 0 and Y runs first, so at 5 ms X still holds q = 5 ms for d =
// 10 ms: density 1 against its Q/T of 0.5. On the destination, Z
// (3.6 ms every 8 ms) has a 3.6 ms job released at 4 ms and due at
// 12 ms, and the destination reserves only 0.95 once X arrives.
// Carried as is, X preempts Z, which finishes at 12.6 ms. Under the CBS
// wake-up rule X gets d = 15 ms, and Z finishes at 7.6 ms, as it does
// without the move.
func TestMoveKeepsDestinationReservations(t *testing.T) {
	for _, move := range []bool{false, true} {
		eng, a, b := twoCores(t)
		srvs := map[string]*sched.Server{}
		for _, name := range []string{"Y", "X"} {
			srvs[name] = a.NewServer(name, 5*ms, 10*ms, sched.HardCBS)
			task := a.NewTask(name)
			task.AttachTo(srvs[name], 0)
			eng.At(0, func() { task.Release(task.NewJob(0, 5*ms, simtime.Time(10*ms))) })
		}
		z := b.NewServer("Z", 3600*us, 8*ms, sched.HardCBS)
		zTask := b.NewTask("Z")
		zTask.AttachTo(z, 0)
		var done simtime.Time
		zTask.OnJobComplete = func(_ *sched.Job, now simtime.Time) { done = now }
		eng.At(simtime.Time(4*ms), func() {
			zTask.Release(zTask.NewJob(eng.Now(), 3600*us, simtime.Time(12*ms)))
		})
		if move {
			eng.At(simtime.Time(5*ms), func() {
				x := srvs["X"]
				if x.RemainingBudget() != 5*ms || x.Deadline() != simtime.Time(10*ms) {
					t.Fatalf("X holds (%v, %v) before the move, want (5ms, 10ms)", x.RemainingBudget(), x.Deadline())
				}
				if err := a.MoveAll(single(x), b, nil); err != nil {
					t.Fatalf("MoveAll: %v", err)
				}
				if got := b.TotalReservedBandwidth(); math.Abs(got-0.95) > 1e-9 {
					t.Fatalf("destination reserves %v after the move, want 0.95", got)
				}
				if x.RemainingBudget() != 5*ms || x.Deadline() != simtime.Time(15*ms) {
					t.Errorf("X adopted with (%v, %v), want the wake-up rule's (5ms, 15ms)",
						x.RemainingBudget(), x.Deadline())
				}
			})
		}
		eng.RunUntil(simtime.Time(30 * ms))
		if done != simtime.Time(7600*us) {
			t.Errorf("move %v: Z's job due at 12ms finished at %v, want 7.6ms", move, done)
		}
		if zTask.Stats().Missed != 0 {
			t.Errorf("move %v: Z missed %d deadlines", move, zTask.Stats().Missed)
		}
	}
}
