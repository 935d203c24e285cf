package sched_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// BenchmarkPeriodicSecondRecycled measures simulating one second of a
// system with eight periodic reservations (a realistic tuner
// deployment). Every completed job's storage goes back on its task's
// free list the moment its completion callback has run, so the
// steady-state job churn — eight reservations releasing ~100 jobs per
// simulated second each — allocates no Job structs after each task's
// first. The rest of the job path allocates nothing once warm
// (TestJobPathAllocatesNothing), so what allocs/op remains is building
// each iteration's engine, scheduler, servers and tasks, and each
// task's first job and free list. TestBenchmarkSetUpAllocations pins
// that count.
func BenchmarkPeriodicSecondRecycled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		periodicSecond()
	}
}

// BenchmarkDispatchChurn stresses the dispatch path: two best-effort
// hogs and a high-rate reservation preempting them continuously. Each
// task recycles its own jobs, as every workload does, so allocs/op is
// the set-up, not the job churn; TestBenchmarkSetUpAllocations pins it.
func BenchmarkDispatchChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dispatchChurn()
	}
}

// The benchmarks' server and task names are literals: a name printed
// in the loop would count fmt's printer, which comes from a sync.Pool
// that every collection empties.
var (
	periodicServers = [8]string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	periodicTasks   = [8]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	hogNames        = [2]string{"hog0", "hog1"}
)

// periodicSecond builds eight periodic hard reservations with periods
// of 10 to 31 ms at 10% each and simulates one second of them.
func periodicSecond() {
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	for k := range periodicTasks {
		p := simtime.Duration(10+3*k) * ms
		c := p / 10
		srv := sd.NewServer(periodicServers[k], c, p, sched.HardCBS)
		tk := sd.NewTask(periodicTasks[k])
		tk.AttachTo(srv, 0)
		startPeriodic(eng, tk, c, p, 0)
	}
	eng.RunUntil(simtime.Time(simtime.Second))
}

// dispatchChurn builds a 200 µs / 1 ms reservation next to two
// best-effort hogs with a 1 ms quantum and simulates 200 ms of them.
func dispatchChurn() {
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng, BEQuantum: ms})
	srv := sd.NewServer("rt", 200*us, ms, sched.HardCBS)
	rt := sd.NewTask("rt")
	rt.AttachTo(srv, 0)
	startPeriodic(eng, rt, 200*us, ms, 0)
	for _, name := range hogNames {
		hog := sd.NewTask(name)
		eng.At(0, func() {
			hog.Release(hog.NewJob(0, simtime.Duration(simtime.Second), simtime.Never))
		})
	}
	eng.RunUntil(simtime.Time(200 * ms))
}

// TestBenchmarkSetUpAllocations pins the allocations of one iteration
// of each benchmark above, which is its allocs/op. What allocates is
// building the system; a job path that allocated would add a count
// per job, ~445 jobs per periodic second.
func TestBenchmarkSetUpAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func()
		want float64
	}{
		{"PeriodicSecondRecycled", periodicSecond, 111},
		{"DispatchChurn", dispatchChurn, 38},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(5, tc.run); n != tc.want {
				t.Errorf("one iteration allocates %v times, want %v", n, tc.want)
			}
		})
	}
}

// BenchmarkSetParams measures the feedback actuator.
func BenchmarkSetParams(b *testing.B) {
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	srv := sd.NewServer("s", 5*ms, 20*ms, sched.HardCBS)
	tk := sd.NewTask("t")
	tk.AttachTo(srv, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := simtime.Duration(1+i%10) * ms
		srv.SetParams(q, 20*ms)
	}
}
