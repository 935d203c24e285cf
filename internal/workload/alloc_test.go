package workload_test

import (
	"testing"

	"repro/internal/ktrace"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestWorkloadJobPathAllocatesNothing checks that a traced workload's
// steady-state job path allocates nothing. Each job carries its system
// calls as data and the scheduler issues them, so once warm a release,
// a jitter-deferred release, its calls, the overhead they charge and
// the completion reuse storage only. A webserver, a game loop in a
// soft reservation, a VM past its boot ramp, a noise source and a
// video player whose release jitter defers every frame share one
// scheduler and trace into one 4096-event QTrace ring. The player has
// one to two dozen calls per frame where the others have one or two;
// each task recycles its own jobs, so no task receives a job whose
// call list was sized by another kind's.
func TestWorkloadJobPathAllocatesNothing(t *testing.T) {
	_, sd := newSim()
	buf := ktrace.NewBuffer(ktrace.QTrace, 4096)
	r := rng.New(3)

	ws := workload.DefaultWebServerConfig("web")
	ws.Sink = buf
	gl := workload.DefaultGameLoopConfig("game")
	gl.Sink = buf
	vm := workload.DefaultVMBootConfig("vm", 0.2)
	vm.Sink = buf
	video := workload.VideoPlayerConfig("video", 0.1)
	video.Sink = buf
	game := workload.NewGameLoop(sd, r.Split(), gl)
	game.Task().AttachTo(sd.NewServer("game", 5*ms, 16*ms, sched.SoftCBS), 0)
	player := workload.NewPlayer(sd, r.Split(), video)
	player.Task().AttachTo(sd.NewServer("video", 8*ms, 40*ms, sched.SoftCBS), 0)
	checkJobPathAllocatesNothing(t, sd, buf, []startable{
		workload.NewWebServer(sd, r.Split(), ws),
		game,
		workload.NewVMBoot(sd, r.Split(), vm),
		workload.NewNoise(sd, r.Split(), "noise", 50*ms, 2*ms, buf),
		player,
	})
}

// startable is a workload the allocation checks start and observe.
type startable interface {
	Start(simtime.Time)
	Task() *sched.Task
}

// checkJobPathAllocatesNothing starts the workloads on sd at 0, runs 3s
// to warm up, and fails unless 100 ms chunks of simulation after that
// allocate nothing while every workload completes a job and buf traces
// a call.
func checkJobPathAllocatesNothing(t *testing.T, sd *sched.Scheduler, buf *ktrace.Buffer, apps []startable) {
	t.Helper()
	eng := sd.Engine()
	for _, a := range apps {
		a.Start(0)
	}
	eng.RunUntil(simtime.Time(3 * simtime.Second))

	completed := func() []int {
		var out []int
		for _, a := range apps {
			out = append(out, a.Task().Stats().Completed)
		}
		return out
	}
	before, recorded := completed(), buf.Recorded()
	chunk := func() { eng.RunUntil(eng.Now().Add(100 * ms)) }
	if n := testing.AllocsPerRun(20, chunk); n != 0 {
		t.Errorf("100 ms of traced workloads allocates %v times, want 0", n)
	}
	for i, n := range completed() {
		if n == before[i] {
			t.Errorf("%s completed no job while measuring", apps[i].Task().Name())
		}
	}
	if buf.Recorded() == recorded {
		t.Error("no syscall traced while measuring")
	}
	if err := sd.Validate(); err != nil {
		t.Fatal(err)
	}
}
