package sched_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// callCounter is a SyscallSink that counts the calls it receives and
// charges each a microsecond of tracing overhead.
type callCounter int

func (c *callCounter) Syscall(simtime.Time, int, int) simtime.Duration {
	*c++
	return us
}

// TestJobPathAllocatesNothing checks that the steady-state job path —
// release, dispatch, traced syscalls, budget exhaustion, throttling,
// replenishment, completion and job recycling — allocates nothing once
// warm. Each scenario runs with logging off, as every core of a
// selftune machine does, warms up for a simulated second, and then
// counts the allocations of 100 ms chunks. The release loops re-arm
// one closure each instead of building one per job.
func TestJobPathAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(eng *sim.Engine, sd *sched.Scheduler)
	}{
		{
			// A schedulable reservation next to two best-effort tasks
			// whose backlogs drain and refill, so the task queues and
			// the round-robin queue empty and refill every period.
			name: "reserved and best-effort",
			build: func(eng *sim.Engine, sd *sched.Scheduler) {
				srv := sd.NewServer("rt", 2*ms, 10*ms, sched.HardCBS)
				rt := sd.NewTask("rt")
				rt.AttachTo(srv, 0)
				rt.SetSink(new(callCounter))
				releaseEvery(eng, rt, 10*ms, func(j *sched.Job) {
					j.AddSyscall(0, 1)
					j.AddSyscall(ms/2, 2)
				}, 3*ms/2)
				releaseEvery(eng, sd.NewTask("be0"), 7*ms, nil, 2*ms, 3*ms)
				releaseEvery(eng, sd.NewTask("be1"), 25*ms, nil, 5*ms)
			},
		},
		{
			// A hard 2 ms / 10 ms server given 3 ms every 20 ms: every
			// job exhausts its budget, throttles and waits for its
			// replenishment.
			name: "throttling",
			build: func(eng *sim.Engine, sd *sched.Scheduler) {
				srv := sd.NewServer("hard", 2*ms, 10*ms, sched.HardCBS)
				tk := sd.NewTask("hard")
				tk.AttachTo(srv, 0)
				releaseEvery(eng, tk, 20*ms, nil, 3*ms)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			sd := sched.New(sched.Config{Engine: eng, BEQuantum: ms})
			tc.build(eng, sd)
			eng.RunUntil(simtime.Time(simtime.Second))
			completed := func() (n int) {
				for _, tk := range sd.Tasks() {
					n += tk.Stats().Completed
				}
				return n
			}
			before := completed()
			chunk := func() { eng.RunUntil(eng.Now().Add(100 * ms)) }
			if n := testing.AllocsPerRun(20, chunk); n != 0 {
				t.Errorf("100 ms of simulation allocates %v times, want 0", n)
			}
			if completed() == before {
				t.Fatal("no job completed while measuring")
			}
			if err := sd.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// releaseEvery releases a job to t every period, starting at the
// origin, cycling through the given demands; dress, if non-nil, adds
// each job's syscalls. One closure serves every release.
func releaseEvery(eng *sim.Engine, t *sched.Task, period simtime.Duration, dress func(*sched.Job), demands ...simtime.Duration) {
	k := 0
	var release func()
	release = func() {
		now := eng.Now()
		j := t.NewJob(now, demands[k%len(demands)], now.Add(period))
		k++
		if dress != nil {
			dress(j)
		}
		t.Release(j)
		eng.At(now.Add(period), release)
	}
	eng.At(0, release)
}
