package sched_test

import (
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// The accessors exist for the packages layered above; exercising them
// here keeps their contracts pinned where they are defined.
func TestAccessors(t *testing.T) {
	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng, LogCapacity: 64})
	if sd.Engine() != eng {
		t.Error("Engine() wrong")
	}
	srv := sd.NewServer("res", 5*ms, 20*ms, sched.HardCBS)
	task := sd.NewTask("worker")
	task.AttachTo(srv, 2)

	if srv.Name() != "res" || srv.Mode() != sched.HardCBS {
		t.Error("server identity accessors wrong")
	}
	if got := srv.Bandwidth(); got != 0.25 {
		t.Errorf("Bandwidth() = %v", got)
	}
	if len(srv.Tasks()) != 1 || srv.Tasks()[0] != task {
		t.Error("Tasks() wrong")
	}
	if task.Server() != srv || task.Priority() != 2 {
		t.Error("task attachment accessors wrong")
	}
	if task.Name() != "worker" || task.PID() < 1000 {
		t.Error("task identity accessors wrong")
	}
	if len(sd.Servers()) != 1 || len(sd.Tasks()) != 1 {
		t.Error("scheduler registries wrong")
	}
	if got := sd.TotalReservedBandwidth(); got != 0.25 {
		t.Errorf("TotalReservedBandwidth() = %v", got)
	}
	if !strings.Contains(srv.String(), "res") {
		t.Errorf("server String() = %q", srv.String())
	}
	if !strings.Contains(task.String(), "worker") {
		t.Errorf("task String() = %q", task.String())
	}
	if sched.SoftCBS.String() != "soft" || sched.HardCBS.String() != "hard" {
		t.Error("Mode.String() wrong")
	}

	// Running task and in-flight budget accounting.
	eng.At(0, func() { task.Release(task.NewJob(0, 3*ms, simtime.Never)) })
	eng.At(simtime.Time(ms), func() {
		if sd.Running() != task {
			t.Error("Running() should be the task mid-slice")
		}
		if got := srv.RemainingBudget(); got != 4*ms {
			t.Errorf("RemainingBudget() = %v, want 4ms mid-slice", got)
		}
		if srv.Deadline() == simtime.Never {
			t.Error("active server must have a deadline")
		}
	})
	eng.RunUntil(simtime.Time(100 * ms))
	if sd.Running() != nil {
		t.Error("Running() should be nil when idle")
	}

	// Job accessors.
	j := task.NewJob(0, 10*ms, simtime.Time(50*ms))
	if j.Remaining() != 10*ms || j.Done() != 0 {
		t.Error("fresh job accounting wrong")
	}
	if j.ResponseTime() >= 0 {
		t.Error("unfinished job must report negative response time")
	}
	if j.Missed(simtime.Time(40 * ms)) {
		t.Error("job not yet missed at t=40ms")
	}
	if !j.Missed(simtime.Time(60 * ms)) {
		t.Error("unfinished job past its deadline must count as missed")
	}
	j.ExtendDemand(-ms) // ignored
	if j.Remaining() != 10*ms {
		t.Error("negative ExtendDemand must be ignored")
	}

	// Log utilities.
	log := sd.Log()
	if log.Count(sched.EvJobComplete) != 1 {
		t.Errorf("log counted %d completions", log.Count(sched.EvJobComplete))
	}
	if sched.EventKind(99).String() == "" {
		t.Error("unknown EventKind must still render")
	}
}

func TestJobHookOrderEnforced(t *testing.T) {
	j := idleTask().NewJob(0, 10*ms, simtime.Never)
	j.AddSyscall(5*ms, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order AddSyscall did not panic")
		}
	}()
	j.AddSyscall(2*ms, 1)
}

func TestJobHookClamping(t *testing.T) {
	j := idleTask().NewJob(0, 10*ms, simtime.Never)
	j.AddSyscall(-5*ms, 1)  // clamps to 0
	j.AddSyscall(50*ms, 2)  // clamps to Total
	j.AddSyscall(500*ms, 3) // still Total: order preserved
	if j.Remaining() != 10*ms {
		t.Error("clamping changed demand")
	}
}

func TestNegativeDemandJobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative demand did not panic")
		}
	}()
	idleTask().NewJob(0, -1, simtime.Never)
}
