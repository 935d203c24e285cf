package sched_test

import (
	"fmt"
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
// task's first job and free list. CI gates this benchmark's allocs/op
// against its own baseline.
func BenchmarkPeriodicSecondRecycled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng})
		for k := 0; k < 8; k++ {
			p := simtime.Duration(10+3*k) * ms
			c := p / 10
			srv := sd.NewServer(fmt.Sprintf("s%d", k), c, p, sched.HardCBS)
			tk := sd.NewTask(fmt.Sprintf("t%d", k))
			tk.AttachTo(srv, 0)
			startPeriodic(eng, tk, c, p, 0)
		}
		eng.RunUntil(simtime.Time(simtime.Second))
	}
}

// BenchmarkDispatchChurn stresses the dispatch path: two best-effort
// hogs and a high-rate reservation preempting them continuously. Each
// task recycles its own jobs, as every workload does, so CI's
// allocs/op gate sees the set-up, not the job churn.
func BenchmarkDispatchChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng, BEQuantum: ms})
		srv := sd.NewServer("rt", 200*us, ms, sched.HardCBS)
		rt := sd.NewTask("rt")
		rt.AttachTo(srv, 0)
		startPeriodic(eng, rt, 200*us, ms, 0)
		for k := 0; k < 2; k++ {
			hog := sd.NewTask(fmt.Sprintf("hog%d", k))
			eng.At(0, func() {
				hog.Release(hog.NewJob(0, simtime.Duration(simtime.Second), simtime.Never))
			})
		}
		eng.RunUntil(simtime.Time(200 * ms))
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
