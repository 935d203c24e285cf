package sched_test

import (
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// idleTask returns a best-effort task on a scheduler of its own, for
// tests that build jobs without running them.
func idleTask() *sched.Task {
	return sched.New(sched.Config{Engine: sim.New()}).NewTask("t")
}

// runJob releases j to t now, runs the engine until the job completes,
// and returns the job t handed to OnJobComplete.
func runJob(t *testing.T, eng *sim.Engine, tk *sched.Task, j *sched.Job) *sched.Job {
	t.Helper()
	var done *sched.Job
	tk.OnJobComplete = func(j *sched.Job, _ simtime.Time) { done = j }
	eng.At(eng.Now(), func() { tk.Release(j) })
	eng.RunUntil(eng.Now().Add(simtime.Second))
	if done != j {
		t.Fatal("the released job did not complete")
	}
	return done
}

// TestRecycledJobMatchesFresh checks that a job NewJob takes back from
// the task's free list carries nothing of its previous life: no
// execution received, its full demand outstanding, unfinished, and the
// release and deadline it was asked for.
func TestRecycledJobMatchesFresh(t *testing.T) {
	eng, sd := newSim(t)
	tk := sd.NewTask("t")
	first := runJob(t, eng, tk, tk.NewJob(0, 3*ms, simtime.Time(10*ms)))
	if first.Done() != 3*ms || first.ResponseTime() < 0 {
		t.Fatalf("completed job: done %v, response %v", first.Done(), first.ResponseTime())
	}
	j := tk.NewJob(simtime.Time(20*ms), 7*ms, simtime.Never)
	if j != first {
		t.Fatal("NewJob allocated although the task's free list held a job")
	}
	if j.Done() != 0 || j.Remaining() != 7*ms || j.Total != 7*ms {
		t.Errorf("recycled job: done %v, remaining %v, total %v; want 0, 7ms, 7ms", j.Done(), j.Remaining(), j.Total)
	}
	if j.ResponseTime() >= 0 || j.Finish != simtime.Never {
		t.Errorf("recycled job: response %v, finish %v; want negative and Never", j.ResponseTime(), j.Finish)
	}
	if j.Release != simtime.Time(20*ms) || j.Deadline != simtime.Never || j.Missed(simtime.Time(simtime.Second)) {
		t.Errorf("recycled job: release %v, deadline %v", j.Release, j.Deadline)
	}
	if fresh := tk.NewJob(0, ms, simtime.Never); fresh == j {
		t.Error("a job in use came back from NewJob")
	}
}

// TestRecycledJobIssuesOnlyItsOwnCalls checks that a recycled job keeps
// the storage of its old call list but none of its calls: after a job
// with 31 calls, the next job on the same storage issues exactly the
// two calls added to it.
func TestRecycledJobIssuesOnlyItsOwnCalls(t *testing.T) {
	eng, sd := newSim(t)
	tk := sd.NewTask("t")
	calls := new(callRecorder)
	tk.SetSink(calls)
	j := tk.NewJob(0, 31*ms, simtime.Never)
	for k := 0; k < 31; k++ {
		j.AddSyscall(simtime.Duration(k)*ms, k)
	}
	old := runJob(t, eng, tk, j)
	if len(calls.nr) != 31 {
		t.Fatalf("first job issued %d calls, want 31", len(calls.nr))
	}
	j = tk.NewJob(0, 2*ms, simtime.Never)
	if j != old {
		t.Fatal("NewJob did not recycle the completed job")
	}
	j.AddSyscall(0, 100)
	j.AddSyscall(2*ms, 101)
	runJob(t, eng, tk, j)
	if got := calls.nr[31:]; !slices.Equal(got, []int{100, 101}) {
		t.Errorf("recycled job issued calls %v, want [100 101]", got)
	}
}

// TestCompletedJobReturnsToItsOwnTask checks that a completed job goes
// back to the task that completed it: another task's NewJob never
// hands it out, the task's own does.
func TestCompletedJobReturnsToItsOwnTask(t *testing.T) {
	eng, sd := newSim(t)
	a, b := sd.NewTask("a"), sd.NewTask("b")
	done := runJob(t, eng, a, a.NewJob(0, ms, simtime.Never))
	if j := b.NewJob(0, ms, simtime.Never); j == done {
		t.Error("b.NewJob handed out a's completed job")
	}
	if j := a.NewJob(0, ms, simtime.Never); j != done {
		t.Error("a.NewJob did not recycle a's completed job")
	}
}

// TestFreeListMovesWithTask checks that a task's completed jobs travel
// with it through MoveAll: on the destination, the task's NewJob
// recycles the job it completed on the source, and the job runs there.
func TestFreeListMovesWithTask(t *testing.T) {
	eng, a, b := twoCores(t)
	srv := a.NewServer("mig", 5*ms, 10*ms, sched.HardCBS)
	tk := a.NewTask("mig")
	tk.AttachTo(srv, 0)
	done := runJob(t, eng, tk, tk.NewJob(0, ms, simtime.Never))
	if err := a.MoveAll(single(srv), b, nil); err != nil {
		t.Fatalf("MoveAll: %v", err)
	}
	if j := b.NewTask("local").NewJob(0, ms, simtime.Never); j == done {
		t.Error("a task on the destination received the moved task's job")
	}
	j := tk.NewJob(0, ms, simtime.Never)
	if j != done {
		t.Fatal("the moved task's NewJob did not recycle the job it completed on the source")
	}
	runJob(t, eng, tk, j)
	if got := tk.Stats().Completed; got != 2 {
		t.Errorf("task completed %d jobs, want 2", got)
	}
	if err := b.Validate(); err != nil {
		t.Error(err)
	}
}
