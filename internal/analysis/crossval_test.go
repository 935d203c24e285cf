package analysis_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// These tests close the loop between the schedulability mathematics
// (internal/analysis) and the executable scheduler (internal/sched):
// budgets the analysis declares sufficient must produce zero deadline
// misses in simulation, and clearly insufficient budgets must not.

const ms = simtime.Millisecond

// simulateRMInServer runs the task set inside one hard CBS (theta, pi)
// with rate-monotonic priorities and the given release offsets, and
// returns the total number of deadline misses.
func simulateRMInServer(tasks []analysis.TaskSpec, theta, pi simtime.Duration,
	offsets []simtime.Time, horizon simtime.Duration) int {

	eng := sim.New()
	sd := sched.New(sched.Config{Engine: eng})
	srv := sd.NewServer("shared", theta, pi, sched.HardCBS)
	scheduled := make([]*sched.Task, len(tasks))
	for i, spec := range tasks {
		tk := sd.NewTask(fmt.Sprintf("t%d", i))
		tk.AttachTo(srv, i) // specs are sorted by rate: RM order
		scheduled[i] = tk
		spec := spec
		next := offsets[i]
		var release func()
		release = func() {
			tk.Release(tk.NewJob(eng.Now(), spec.C, eng.Now().Add(spec.P)))
			next = next.Add(spec.P)
			eng.At(next, release)
		}
		eng.At(next, release)
	}
	eng.RunUntil(simtime.Time(horizon))
	misses := 0
	for _, tk := range scheduled {
		misses += tk.Stats().Missed
	}
	return misses
}

func TestAnalysisBudgetIsSufficientInSimulation(t *testing.T) {
	// Soundness direction: for several server periods, the minimum
	// budget computed by the hierarchical analysis must schedule the
	// Figure 2 task set without a single deadline miss, for any
	// release phasing we throw at it.
	tasks := analysis.Figure2Tasks
	r := rng.New(99)
	for _, pi := range []simtime.Duration{2 * ms, 4 * ms, 5 * ms, 8 * ms, 10 * ms} {
		theta, ok := analysis.MinBudgetRMServer(tasks, pi)
		if !ok {
			t.Fatalf("analysis says T=%v infeasible", pi)
		}
		for trial := 0; trial < 5; trial++ {
			offsets := make([]simtime.Time, len(tasks))
			for i, spec := range tasks {
				offsets[i] = simtime.Time(r.Int63n(int64(spec.P)))
			}
			if trial == 0 {
				// The critical instant: simultaneous release.
				for i := range offsets {
					offsets[i] = 0
				}
			}
			if m := simulateRMInServer(tasks, theta, pi, offsets, 10*simtime.Second); m != 0 {
				t.Errorf("T=%v Θ=%v trial %d: %d misses despite analysis guarantee",
					pi, theta, trial, m)
			}
		}
	}
}

func TestUnderBudgetMissesInSimulation(t *testing.T) {
	// Usefulness direction: at 70% of the analysis budget, the
	// simultaneous-release phasing must produce misses (otherwise the
	// analysis would be uselessly conservative and the test vacuous).
	tasks := analysis.Figure2Tasks
	pi := 5 * ms
	theta, ok := analysis.MinBudgetRMServer(tasks, pi)
	if !ok {
		t.Fatal("T=5ms infeasible per analysis")
	}
	low := simtime.Duration(0.7 * float64(theta))
	offsets := []simtime.Time{0, 0, 0}
	if m := simulateRMInServer(tasks, low, pi, offsets, 10*simtime.Second); m == 0 {
		t.Errorf("Θ=%v (70%% of the analysed minimum %v) produced no misses", low, theta)
	}
}

func TestSingleTaskAnalysisMatchesSimulation(t *testing.T) {
	// Figure 1's model, validated end to end: a dedicated CBS with the
	// paper-analysis budget serves the (C=20ms, P=100ms) task without
	// misses at every server period; and at T=P the budget is exactly
	// the utilisation, so the simulation doubles as a tightness check.
	task := analysis.Figure1Task
	for _, T := range []simtime.Duration{20 * ms, 34 * ms, 50 * ms, 100 * ms, 150 * ms} {
		q, ok := analysis.MinBudgetSingleTask(task, T, analysis.PaperSupply)
		if !ok {
			t.Fatalf("T=%v infeasible per analysis", T)
		}
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng})
		srv := sd.NewServer("s", q, T, sched.HardCBS)
		tk := sd.NewTask("t")
		tk.AttachTo(srv, 0)
		next := simtime.Time(0)
		var release func()
		release = func() {
			tk.Release(tk.NewJob(eng.Now(), task.C, eng.Now().Add(task.P)))
			next = next.Add(task.P)
			eng.At(next, release)
		}
		eng.At(0, release)
		eng.RunUntil(simtime.Time(10 * simtime.Second))
		if m := tk.Stats().Missed; m != 0 {
			t.Errorf("T=%v Θ=%v: %d misses despite Figure 1 analysis", T, q, m)
		}
	}
}

func TestTightSupplyAlsoSufficientInSimulation(t *testing.T) {
	// The tighter ablation bound must also be safe when the server
	// deadline is synchronised with the job (which our CBS guarantees
	// for a task that blocks at the end of each job).
	task := analysis.Figure1Task
	for _, T := range []simtime.Duration{34 * ms, 60 * ms, 120 * ms} {
		q, ok := analysis.MinBudgetSingleTask(task, T, analysis.TightSupply)
		if !ok {
			t.Fatalf("T=%v infeasible per tight analysis", T)
		}
		eng := sim.New()
		sd := sched.New(sched.Config{Engine: eng})
		srv := sd.NewServer("s", q, T, sched.HardCBS)
		tk := sd.NewTask("t")
		tk.AttachTo(srv, 0)
		next := simtime.Time(0)
		var release func()
		release = func() {
			tk.Release(tk.NewJob(eng.Now(), task.C, eng.Now().Add(task.P)))
			next = next.Add(task.P)
			eng.At(next, release)
		}
		eng.At(0, release)
		eng.RunUntil(simtime.Time(10 * simtime.Second))
		if m := tk.Stats().Missed; m != 0 {
			t.Errorf("T=%v Θ=%v (tight): %d misses", T, q, m)
		}
	}
}
