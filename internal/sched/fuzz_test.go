package sched_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// TestQuickRandomOperationsKeepInvariants drives the scheduler with a
// random mix of everything a real deployment does — job releases of
// wildly varying demand, reservation parameter changes mid-flight,
// best-effort churn, both CBS modes — and checks the internal
// invariants plus global conservation laws afterwards.
func TestQuickRandomOperationsKeepInvariants(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng, LogCapacity: 1 << 10})

		nSrv := 1 + r.Intn(4)
		servers := make([]*sched.Server, nSrv)
		tasks := make([]*sched.Task, 0, nSrv+2)
		for i := 0; i < nSrv; i++ {
			period := simtime.Duration(2+r.Intn(100)) * ms
			budget := simtime.Duration(r.Int63n(int64(period))) + 1
			mode := sched.HardCBS
			if r.Bool(0.3) {
				mode = sched.SoftCBS
			}
			servers[i] = sd.NewServer(fmt.Sprintf("s%d", i), budget, period, mode)
			tk := sd.NewTask(fmt.Sprintf("t%d", i))
			tk.AttachTo(servers[i], r.Intn(3))
			tasks = append(tasks, tk)
		}
		for i := 0; i < 2; i++ {
			tasks = append(tasks, sd.NewTask(fmt.Sprintf("be%d", i)))
		}

		// Random activity over 2 simulated seconds.
		horizon := simtime.Time(2 * simtime.Second)
		for i := 0; i < 60; i++ {
			at := simtime.Time(r.Int63n(int64(horizon)))
			switch r.Intn(4) {
			case 0, 1: // release a job
				tk := tasks[r.Intn(len(tasks))]
				demand := simtime.Duration(r.Int63n(int64(30*ms))) + 1
				eng.At(at, func() {
					tk.Release(tk.NewJob(0, demand, eng.Now().Add(100*ms)))
				})
			case 2: // reconfigure a reservation
				srv := servers[r.Intn(len(servers))]
				period := simtime.Duration(2+r.Intn(100)) * ms
				budget := simtime.Duration(r.Int63n(int64(period))) + 1
				eng.At(at, func() { srv.SetParams(budget, period) })
			case 3: // release a burst
				tk := tasks[r.Intn(len(tasks))]
				n := 1 + r.Intn(5)
				demand := simtime.Duration(r.Int63n(int64(5*ms))) + 1
				eng.At(at, func() {
					for k := 0; k < n; k++ {
						tk.Release(tk.NewJob(0, demand, simtime.Never))
					}
				})
			}
		}
		eng.RunUntil(horizon)

		if err := sd.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Conservation: per-task consumption sums to the global busy
		// time, and never exceeds wall time.
		var sum simtime.Duration
		for _, tk := range sd.Tasks() {
			c := tk.Stats().Consumed
			if c < 0 {
				t.Logf("seed %d: negative consumption", seed)
				return false
			}
			sum += c
		}
		if sum != sd.BusyTime() {
			t.Logf("seed %d: consumption %v != busy time %v", seed, sum, sd.BusyTime())
			return false
		}
		if sum > simtime.Duration(horizon) {
			t.Logf("seed %d: busy %v exceeds wall %v", seed, sum, horizon)
			return false
		}
		// Completed work is consistent: every finished job consumed at
		// least its demand's execution (equality holds because demand
		// never shrinks).
		for _, tk := range sd.Tasks() {
			st := tk.Stats()
			if st.Completed > st.Released {
				t.Logf("seed %d: completed %d > released %d", seed, st.Completed, st.Released)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickSoftServersWorkConserving: with only soft servers and
// permanent backlog, the CPU must never idle.
func TestQuickSoftServersWorkConserving(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng})
		n := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			period := simtime.Duration(5+r.Intn(50)) * ms
			budget := simtime.Duration(r.Int63n(int64(period)/2)) + 1
			srv := sd.NewServer(fmt.Sprintf("s%d", i), budget, period, sched.SoftCBS)
			tk := sd.NewTask(fmt.Sprintf("t%d", i))
			tk.AttachTo(srv, 0)
			eng.At(0, func() {
				tk.Release(tk.NewJob(0, simtime.Duration(100*simtime.Second), simtime.Never))
			})
		}
		eng.RunUntil(simtime.Time(simtime.Second))
		// Soft CBS postpones deadlines instead of throttling, so a
		// backlogged system keeps the CPU fully busy.
		return sd.BusyTime() >= simtime.Duration(simtime.Second)-simtime.Microsecond
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterminism: arbitrary seeds, byte-identical replays.
func TestQuickDeterminism(t *testing.T) {
	signature := func(seed uint64) string {
		r := rng.New(seed)
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng, LogCapacity: 1 << 12})
		srv := sd.NewServer("s", 5*ms, 20*ms, sched.HardCBS)
		tk := sd.NewTask("t")
		tk.AttachTo(srv, 0)
		be := sd.NewTask("be")
		for i := 0; i < 30; i++ {
			at := simtime.Time(r.Int63n(int64(simtime.Second)))
			demand := simtime.Duration(r.Int63n(int64(10*ms))) + 1
			target := tk
			if r.Bool(0.4) {
				target = be
			}
			eng.At(at, func() { target.Release(target.NewJob(0, demand, simtime.Never)) })
		}
		eng.RunUntil(simtime.Time(simtime.Second))
		sig := ""
		for _, e := range sd.Log().Entries() {
			sig += e.String() + "\n"
		}
		return sig
	}
	check := func(seed uint64) bool {
		return signature(seed) == signature(seed)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
