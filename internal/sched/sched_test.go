package sched_test

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

const (
	ms = simtime.Millisecond
	us = simtime.Microsecond
)

// startPeriodic releases a job of demand c every p, with implicit
// deadline, starting at offset. It runs forever (until the engine's
// horizon).
func startPeriodic(eng *sim.Engine, t *sched.Task, c, p simtime.Duration, offset simtime.Time) {
	var release func()
	next := offset
	release = func() {
		j := t.NewJob(eng.Now(), c, eng.Now().Add(p))
		t.Release(j)
		next = next.Add(p)
		eng.At(next, release)
	}
	eng.At(next, release)
}

// callRecorder is a SyscallSink that records the instant and number
// of every call it receives and charges no overhead.
type callRecorder struct {
	at []simtime.Time
	nr []int
}

func (c *callRecorder) Syscall(now simtime.Time, _ int, nr int) simtime.Duration {
	c.at = append(c.at, now)
	c.nr = append(c.nr, nr)
	return 0
}

func newSim(t *testing.T) (*sim.Engine, *sched.Scheduler) {
	t.Helper()
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng, LogCapacity: 1 << 16})
	return eng, sd
}

func TestSynchronizedCBSMeetsAllDeadlines(t *testing.T) {
	// A periodic task (C,P) in a dedicated CBS with Q=C, T=P provably
	// meets all deadlines (Sec. 3.2 of the paper).
	eng, sd := newSim(t)
	srv := sd.NewServer("s", 20*ms, 100*ms, sched.HardCBS)
	task := sd.NewTask("t")
	task.AttachTo(srv, 0)
	startPeriodic(eng, task, 20*ms, 100*ms, 0)
	eng.RunUntil(simtime.Time(10 * simtime.Second))
	st := task.Stats()
	if st.Completed < 99 {
		t.Fatalf("completed %d jobs, want >= 99", st.Completed)
	}
	if st.Missed != 0 {
		t.Errorf("missed %d deadlines, want 0", st.Missed)
	}
	if err := sd.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTwoServersEDFBothFeasible(t *testing.T) {
	eng, sd := newSim(t)
	s1 := sd.NewServer("s1", 30*ms, 100*ms, sched.HardCBS)
	s2 := sd.NewServer("s2", 25*ms, 50*ms, sched.HardCBS)
	t1 := sd.NewTask("t1")
	t1.AttachTo(s1, 0)
	t2 := sd.NewTask("t2")
	t2.AttachTo(s2, 0)
	startPeriodic(eng, t1, 30*ms, 100*ms, 0)
	startPeriodic(eng, t2, 25*ms, 50*ms, simtime.Time(3*ms))
	eng.RunUntil(simtime.Time(20 * simtime.Second))
	if m := t1.Stats().Missed; m != 0 {
		t.Errorf("t1 missed %d", m)
	}
	if m := t2.Stats().Missed; m != 0 {
		t.Errorf("t2 missed %d", m)
	}
	if err := sd.Validate(); err != nil {
		t.Error(err)
	}
}

func TestHardCBSBandwidthIsolation(t *testing.T) {
	// A greedy task in a hard 20%-reservation must never consume more
	// than ceil(W/T)*Q over any window; check the full-run bound.
	eng, sd := newSim(t)
	srv := sd.NewServer("greedy", 20*ms, 100*ms, sched.HardCBS)
	task := sd.NewTask("hog")
	task.AttachTo(srv, 0)
	// One enormous job: always backlogged.
	eng.At(0, func() {
		task.Release(task.NewJob(0, simtime.Duration(1000*simtime.Second), simtime.Never))
	})
	horizon := simtime.Time(10 * simtime.Second)
	eng.RunUntil(horizon)
	consumed := srv.Consumed()
	// ceil(10s/100ms)+1 periods worth of budget is the generous bound.
	maxAllowed := simtime.Duration(101) * 20 * ms
	if consumed > maxAllowed {
		t.Errorf("hard CBS let the hog consume %v > %v over 10s", consumed, maxAllowed)
	}
	// And it should get close to its full 20% share too.
	if consumed < simtime.Duration(9.5*0.2*float64(simtime.Second)) {
		t.Errorf("hard CBS starved the hog: %v over 10s", consumed)
	}
	if err := sd.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSoftCBSPostponesDeadlines(t *testing.T) {
	eng, sd := newSim(t)
	srv := sd.NewServer("soft", 20*ms, 100*ms, sched.SoftCBS)
	task := sd.NewTask("hog")
	task.AttachTo(srv, 0)
	eng.At(0, func() {
		task.Release(task.NewJob(0, simtime.Duration(simtime.Second), simtime.Never))
	})
	eng.RunUntil(simtime.Time(2 * simtime.Second))
	st := srv.Stats()
	if st.Exhaustions == 0 {
		t.Error("soft CBS never exhausted its budget under a CPU hog")
	}
	if st.ThrottledTime != 0 {
		t.Errorf("soft CBS throttled for %v, want 0", st.ThrottledTime)
	}
	// Alone in the system, a soft server lets the task use the whole CPU.
	if task.Stats().Consumed < simtime.Duration(990*ms) {
		t.Errorf("soft CBS alone should deliver ~full CPU, got %v", task.Stats().Consumed)
	}
	if err := sd.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSoftVsHardContention(t *testing.T) {
	// Under contention with another reservation, a soft server's extra
	// consumption must not break the other server's guarantee.
	eng, sd := newSim(t)
	soft := sd.NewServer("soft", 50*ms, 100*ms, sched.SoftCBS)
	hard := sd.NewServer("hard", 20*ms, 100*ms, sched.HardCBS)
	hog := sd.NewTask("hog")
	hog.AttachTo(soft, 0)
	rt := sd.NewTask("rt")
	rt.AttachTo(hard, 0)
	eng.At(0, func() {
		hog.Release(hog.NewJob(0, simtime.Duration(100*simtime.Second), simtime.Never))
	})
	startPeriodic(eng, rt, 20*ms, 100*ms, 0)
	eng.RunUntil(simtime.Time(10 * simtime.Second))
	if m := rt.Stats().Missed; m != 0 {
		t.Errorf("hard reservation missed %d deadlines next to a soft hog", m)
	}
	if err := sd.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBestEffortRoundRobinFairness(t *testing.T) {
	eng, sd := newSim(t)
	a := sd.NewTask("a")
	b := sd.NewTask("b")
	eng.At(0, func() {
		a.Release(a.NewJob(0, simtime.Duration(100*simtime.Second), simtime.Never))
		b.Release(b.NewJob(0, simtime.Duration(100*simtime.Second), simtime.Never))
	})
	eng.RunUntil(simtime.Time(10 * simtime.Second))
	ca, cb := a.Stats().Consumed, b.Stats().Consumed
	if diff := ca - cb; diff < -simtime.Duration(20*ms) || diff > simtime.Duration(20*ms) {
		t.Errorf("unfair round robin: a=%v b=%v", ca, cb)
	}
	if total := ca + cb; total < simtime.Duration(9900*ms) {
		t.Errorf("best-effort work-conserving violated: total=%v", total)
	}
}

func TestReservationPreemptsBestEffort(t *testing.T) {
	eng, sd := newSim(t)
	be := sd.NewTask("be")
	srv := sd.NewServer("rt", 60*ms, 100*ms, sched.HardCBS)
	rt := sd.NewTask("rt")
	rt.AttachTo(srv, 0)
	eng.At(0, func() {
		be.Release(be.NewJob(0, simtime.Duration(100*simtime.Second), simtime.Never))
	})
	startPeriodic(eng, rt, 60*ms, 100*ms, 0)
	eng.RunUntil(simtime.Time(10 * simtime.Second))
	if m := rt.Stats().Missed; m != 0 {
		t.Errorf("reserved task missed %d deadlines with BE hog present", m)
	}
	// BE should receive roughly the residual 40%.
	beShare := float64(be.Stats().Consumed) / float64(10*simtime.Second)
	if beShare < 0.35 || beShare > 0.45 {
		t.Errorf("best-effort share = %.3f, want ~0.40", beShare)
	}
}

func TestRMInsideOneServer(t *testing.T) {
	// Two tasks inside one big server, fixed priority: the high-prio
	// task's jobs must not be delayed by the low-prio one.
	eng, sd := newSim(t)
	srv := sd.NewServer("shared", 90*ms, 100*ms, sched.HardCBS)
	hi := sd.NewTask("hi")
	hi.AttachTo(srv, 0)
	lo := sd.NewTask("lo")
	lo.AttachTo(srv, 1)
	var hiResp []simtime.Duration
	hi.OnJobComplete = func(j *sched.Job, now simtime.Time) {
		hiResp = append(hiResp, j.ResponseTime())
	}
	startPeriodic(eng, hi, 10*ms, 50*ms, 0)
	startPeriodic(eng, lo, 30*ms, 100*ms, 0)
	eng.RunUntil(simtime.Time(5 * simtime.Second))
	if len(hiResp) == 0 {
		t.Fatal("no high-priority jobs completed")
	}
	for i, r := range hiResp {
		if r > simtime.Duration(12*ms) {
			t.Errorf("hi job %d response %v, want <= ~10ms (priority violated)", i, r)
			break
		}
	}
	if m := lo.Stats().Missed; m != 0 {
		t.Errorf("lo missed %d (set is feasible inside the server)", m)
	}
}

func TestProgressHooksFireAtExecutionProgress(t *testing.T) {
	// With a dedicated 50% server, a job of 10ms with a syscall at 5ms
	// should issue it once 5ms of *execution* have been granted, i.e.
	// later in wall time than 5ms if the budget intervenes.
	eng, sd := newSim(t)
	srv := sd.NewServer("s", 5*ms, 10*ms, sched.HardCBS)
	task := sd.NewTask("t")
	task.AttachTo(srv, 0)
	calls := new(callRecorder)
	task.SetSink(calls)
	eng.At(0, func() {
		j := task.NewJob(0, 10*ms, simtime.Never)
		j.AddSyscall(0, 1) // exercise offset-zero calls too
		j.AddSyscall(5*ms, 2)
		task.Release(j)
	})
	eng.RunUntil(simtime.Time(simtime.Second))
	// The server delivers 5ms per 10ms period; 5ms of progress is
	// reached exactly when the first budget is exhausted, at t=5ms.
	if !slices.Equal(calls.at, []simtime.Time{0, simtime.Time(5 * ms)}) || !slices.Equal(calls.nr, []int{1, 2}) {
		t.Errorf("calls %v issued at %v, want [1 2] at 0 and 5ms", calls.nr, calls.at)
	}
	if task.Stats().Completed != 1 {
		t.Errorf("job not completed: %+v", task.Stats())
	}
}

func TestHookDelayedByContention(t *testing.T) {
	// Same syscall, but a higher-pressure competing reservation delays
	// execution progress, so the call is issued later in wall time.
	// This is the mechanism behind the paper's Table 2 (detection vs
	// load).
	delay := func(withLoad bool) simtime.Time {
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng})
		task := sd.NewTask("t")
		calls := new(callRecorder)
		task.SetSink(calls)
		if withLoad {
			lsrv := sd.NewServer("load", 8*ms, 10*ms, sched.HardCBS)
			lt := sd.NewTask("load")
			lt.AttachTo(lsrv, 0)
			eng.At(0, func() {
				lt.Release(lt.NewJob(0, simtime.Duration(10*simtime.Second), simtime.Never))
			})
		}
		eng.At(0, func() {
			j := task.NewJob(0, 10*ms, simtime.Never)
			j.AddSyscall(5*ms, 1)
			task.Release(j)
		})
		eng.RunUntil(simtime.Time(simtime.Second))
		if len(calls.at) != 1 {
			t.Fatalf("%d calls issued, want 1", len(calls.at))
		}
		return calls.at[0]
	}
	unloaded, loaded := delay(false), delay(true)
	if unloaded != simtime.Time(5*ms) {
		t.Errorf("unloaded hook at %v, want 5ms", unloaded)
	}
	if loaded <= simtime.Time(20*ms) {
		t.Errorf("loaded hook at %v, want much later than 5ms", loaded)
	}
}

func TestSetParamsGrowsBudgetImmediately(t *testing.T) {
	eng, sd := newSim(t)
	srv := sd.NewServer("s", 10*ms, 100*ms, sched.HardCBS)
	task := sd.NewTask("t")
	task.AttachTo(srv, 0)
	eng.At(0, func() {
		task.Release(task.NewJob(0, simtime.Duration(simtime.Second), simtime.Never))
	})
	// At t=50ms the server has exhausted its 10ms and is throttled
	// until t=100ms; raising the budget must resume it immediately.
	eng.At(simtime.Time(50*ms), func() {
		if got := task.Stats().Consumed; got != 10*ms {
			t.Errorf("consumed %v before raise, want 10ms", got)
		}
		srv.SetParams(80*ms, 100*ms)
	})
	eng.RunUntil(simtime.Time(100 * ms))
	// After the raise: 70ms of extra budget in the current period, all
	// usable during [50ms,100ms) -> 50ms more execution.
	if got := task.Stats().Consumed; got < 55*ms {
		t.Errorf("consumed %v by 100ms, want >= 55ms after budget raise", got)
	}
	if err := sd.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSetParamsShrink(t *testing.T) {
	eng, sd := newSim(t)
	srv := sd.NewServer("s", 80*ms, 100*ms, sched.HardCBS)
	task := sd.NewTask("t")
	task.AttachTo(srv, 0)
	eng.At(0, func() {
		task.Release(task.NewJob(0, simtime.Duration(simtime.Second), simtime.Never))
	})
	eng.At(simtime.Time(10*ms), func() { srv.SetParams(20*ms, 100*ms) })
	eng.RunUntil(simtime.Time(simtime.Second))
	// ~20% bandwidth after the shrink; allow the initial 10ms head start.
	got := task.Stats().Consumed
	if got > 250*ms || got < 150*ms {
		t.Errorf("consumed %v over 1s after shrink to 20%%, want ~200ms", got)
	}
	if err := sd.Validate(); err != nil {
		t.Error(err)
	}
}

func TestInvalidReservationPanics(t *testing.T) {
	_, sd := newSim(t)
	for _, c := range []struct{ q, p simtime.Duration }{
		{0, 100 * ms}, {10 * ms, 0}, {200 * ms, 100 * ms}, {-1, 100 * ms},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewServer(Q=%v,T=%v) did not panic", c.q, c.p)
				}
			}()
			sd.NewServer("bad", c.q, c.p, sched.HardCBS)
		}()
	}
}

func TestCBSWakeupRuleResetsStaleDeadline(t *testing.T) {
	// A task that sleeps a long time must get a fresh (q,d) on wakeup,
	// not a stale deadline from the distant past.
	eng, sd := newSim(t)
	srv := sd.NewServer("s", 20*ms, 100*ms, sched.HardCBS)
	task := sd.NewTask("t")
	task.AttachTo(srv, 0)
	var resp simtime.Duration
	task.OnJobComplete = func(j *sched.Job, now simtime.Time) { resp = j.ResponseTime() }
	eng.At(0, func() { task.Release(task.NewJob(0, 5*ms, simtime.Never)) })
	// Long idle gap, then another job: it should run immediately.
	eng.At(simtime.Time(5*simtime.Second), func() {
		task.Release(task.NewJob(0, 5*ms, simtime.Never))
	})
	eng.RunUntil(simtime.Time(6 * simtime.Second))
	if task.Stats().Completed != 2 {
		t.Fatalf("completed %d, want 2", task.Stats().Completed)
	}
	if resp != 5*ms {
		t.Errorf("second job response %v, want 5ms (fresh budget)", resp)
	}
}

func TestBacklogFIFO(t *testing.T) {
	eng, sd := newSim(t)
	task := sd.NewTask("t")
	var finishes []simtime.Time
	task.OnJobComplete = func(j *sched.Job, now simtime.Time) { finishes = append(finishes, now) }
	eng.At(0, func() {
		task.Release(task.NewJob(0, 10*ms, simtime.Never))
		task.Release(task.NewJob(0, 20*ms, simtime.Never))
		task.Release(task.NewJob(0, 5*ms, simtime.Never))
	})
	eng.RunUntil(simtime.Time(simtime.Second))
	want := []simtime.Time{simtime.Time(10 * ms), simtime.Time(30 * ms), simtime.Time(35 * ms)}
	if len(finishes) != 3 {
		t.Fatalf("finishes = %v", finishes)
	}
	for i := range want {
		if finishes[i] != want[i] {
			t.Errorf("finish[%d] = %v, want %v", i, finishes[i], want[i])
		}
	}
}

func TestZeroDemandJobCompletesImmediately(t *testing.T) {
	eng, sd := newSim(t)
	task := sd.NewTask("t")
	done := false
	task.OnJobComplete = func(j *sched.Job, now simtime.Time) { done = true }
	eng.At(simtime.Time(5*ms), func() { task.Release(task.NewJob(0, 0, simtime.Never)) })
	eng.RunUntil(simtime.Time(10 * ms))
	if !done {
		t.Error("zero-demand job never completed")
	}
}

func TestDeadlineMissAccounting(t *testing.T) {
	eng, sd := newSim(t)
	srv := sd.NewServer("s", 10*ms, 100*ms, sched.HardCBS) // 10% for a 20% task
	task := sd.NewTask("t")
	task.AttachTo(srv, 0)
	startPeriodic(eng, task, 20*ms, 100*ms, 0)
	eng.RunUntil(simtime.Time(5 * simtime.Second))
	st := task.Stats()
	if st.Missed == 0 {
		t.Error("under-provisioned reservation should cause deadline misses")
	}
	if st.MaxTardy <= 0 {
		t.Error("MaxTardy not recorded")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (string, int) {
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng, LogCapacity: 1 << 14})
		r := rng.New(99)
		srv := sd.NewServer("s", 20*ms, 100*ms, sched.HardCBS)
		task := sd.NewTask("t")
		task.AttachTo(srv, 0)
		be := sd.NewTask("be")
		var release func()
		next := simtime.Time(0)
		release = func() {
			c := simtime.Duration(r.Int63n(int64(20*ms)) + int64(ms))
			task.Release(task.NewJob(0, c, eng.Now().Add(100*ms)))
			next = next.Add(100 * ms)
			eng.At(next, release)
		}
		eng.At(0, release)
		eng.At(0, func() {
			be.Release(be.NewJob(0, simtime.Duration(10*simtime.Second), simtime.Never))
		})
		eng.RunUntil(simtime.Time(3 * simtime.Second))
		var sig string
		for _, e := range sd.Log().Entries() {
			sig += e.String() + "\n"
		}
		return sig, sd.ContextSwitches()
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Error("two identical runs produced different traces")
	}
}

func TestQuickFeasibleSynchronizedSetsNeverMiss(t *testing.T) {
	// Property: any task set where each task has its own synchronized
	// hard CBS (Q=C, T=P) and total utilisation <= 1 meets all deadlines.
	type taskSpec struct{ c, p int64 }
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(5)
		specs := make([]taskSpec, 0, n)
		var util float64
		for i := 0; i < n; i++ {
			p := int64(10+r.Intn(190)) * int64(ms)
			c := int64(1+r.Intn(40)) * int64(ms) / 4
			if c >= p {
				c = p / 2
			}
			u := float64(c) / float64(p)
			if util+u > 0.95 {
				continue
			}
			util += u
			specs = append(specs, taskSpec{c, p})
		}
		if len(specs) == 0 {
			return true
		}
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng})
		tasks := make([]*sched.Task, len(specs))
		for i, sp := range specs {
			srv := sd.NewServer(fmt.Sprintf("s%d", i), simtime.Duration(sp.c), simtime.Duration(sp.p), sched.HardCBS)
			tk := sd.NewTask(fmt.Sprintf("t%d", i))
			tk.AttachTo(srv, 0)
			offset := simtime.Time(r.Int63n(int64(sp.p)))
			startPeriodic(eng, tk, simtime.Duration(sp.c), simtime.Duration(sp.p), offset)
			tasks[i] = tk
		}
		eng.RunUntil(simtime.Time(5 * simtime.Second))
		if err := sd.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		for _, tk := range tasks {
			if tk.Stats().Missed != 0 {
				t.Logf("seed %d: task %v missed %d (util %.3f)", seed, tk, tk.Stats().Missed, util)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickHardServersNeverOverrunBandwidth(t *testing.T) {
	// Property: under arbitrary backlogged demand, each hard server's
	// consumption over the whole run is bounded by (runs/T + 1) * Q.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng})
		n := 1 + r.Intn(4)
		var servers []*sched.Server
		var util float64
		for i := 0; i < n; i++ {
			p := simtime.Duration(5+r.Intn(100)) * ms
			maxQ := float64(p) * (0.98 - util)
			if maxQ < float64(ms) {
				break
			}
			q := simtime.Duration(r.Int63n(int64(maxQ))) + 1
			util += float64(q) / float64(p)
			srv := sd.NewServer(fmt.Sprintf("s%d", i), q, p, sched.HardCBS)
			tk := sd.NewTask(fmt.Sprintf("t%d", i))
			tk.AttachTo(srv, 0)
			eng.At(0, func() {
				tk.Release(tk.NewJob(0, simtime.Duration(100*simtime.Second), simtime.Never))
			})
			servers = append(servers, srv)
		}
		horizon := simtime.Duration(3 * simtime.Second)
		eng.RunUntil(simtime.Time(horizon))
		if err := sd.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		for _, s := range servers {
			periods := int64(horizon)/int64(s.Period()) + 1
			bound := simtime.Duration(periods * int64(s.Budget()))
			if s.Consumed() > bound {
				t.Logf("seed %d: %v consumed %v > bound %v", seed, s, s.Consumed(), bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationAndBusyTime(t *testing.T) {
	eng, sd := newSim(t)
	task := sd.NewTask("t")
	eng.At(0, func() { task.Release(task.NewJob(0, 300*ms, simtime.Never)) })
	eng.RunUntil(simtime.Time(simtime.Second))
	if got := sd.BusyTime(); got != 300*ms {
		t.Errorf("BusyTime = %v, want 300ms", got)
	}
	u := sd.Utilization()
	if u < 0.29 || u > 0.31 {
		t.Errorf("Utilization = %v, want 0.3", u)
	}
}

func TestAttachErrors(t *testing.T) {
	eng, sd := newSim(t)
	srv := sd.NewServer("s", 10*ms, 100*ms, sched.HardCBS)
	task := sd.NewTask("t")
	task.AttachTo(srv, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double attach did not panic")
			}
		}()
		task.AttachTo(srv, 0)
	}()
	// Attaching a runnable task must panic.
	t2 := sd.NewTask("t2")
	eng.At(0, func() { t2.Release(t2.NewJob(0, 10*ms, simtime.Never)) })
	eng.RunUntil(simtime.Time(ms))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("attach of runnable task did not panic")
			}
		}()
		t2.AttachTo(srv, 1)
	}()
}

func TestLogRingBuffer(t *testing.T) {
	l := sched.NewLog(4)
	entries := l.Entries()
	if len(entries) != 0 {
		t.Fatalf("fresh log has %d entries", len(entries))
	}
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng, LogCapacity: 8})
	task := sd.NewTask("t")
	for i := 0; i < 20; i++ {
		at := simtime.Time(i) * simtime.Time(10*ms)
		eng.At(at, func() { task.Release(task.NewJob(0, ms, simtime.Never)) })
	}
	eng.RunUntil(simtime.Time(simtime.Second))
	log := sd.Log()
	got := log.Entries()
	if len(got) != 8 {
		t.Fatalf("ring should retain 8, got %d", len(got))
	}
	if log.Dropped() == 0 {
		t.Error("expected dropped entries")
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatal("entries not chronological")
		}
	}
}
