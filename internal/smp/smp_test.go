package smp_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ktrace"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/smp"
	"repro/internal/stats"
	"repro/internal/workload"
)

// newMachine builds an n-core single-engine machine at U_lub 1: every
// core schedules on eng.
func newMachine(eng *sim.Engine, n int) *smp.Machine {
	return smp.New(slices.Repeat([]*sim.Engine{eng}, n), 1, 0)
}

// TestNewBindsEachCoreToItsEngine: core i schedules on engines[i] —
// one engine repeated is a single-engine machine, distinct engines a
// laned one — and every core gets a disjoint PID range shifted by the
// machine's offset.
func TestNewBindsEachCoreToItsEngine(t *testing.T) {
	lanes := []*sim.Engine{sim.New(), sim.New(), sim.New()}
	m := smp.New(lanes, 0.9, 7_000_000)
	for i, eng := range lanes {
		if m.Core(i).Engine() != eng {
			t.Errorf("core %d schedules on another engine", i)
		}
		if got := m.Supervisor(i).ULub(); got != 0.9 {
			t.Errorf("core %d supervised at %v, want 0.9", i, got)
		}
		if got, want := m.Core(i).NewTask("t").PID(), 7_001_000+i*1_000_000; got != want {
			t.Errorf("core %d first PID %d, want %d", i, got, want)
		}
	}
	shared := newMachine(lanes[0], 2)
	if shared.Core(0).Engine() != lanes[0] || shared.Core(1).Engine() != lanes[0] {
		t.Error("single-engine machine's cores do not share the engine")
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted a nil engine")
		}
	}()
	smp.New([]*sim.Engine{lanes[0], nil}, 1, 0)
}

func TestWorstFitSpreadsLoad(t *testing.T) {
	eng := sim.New()
	m := newMachine(eng, 2)
	cores := make([]int, 0, 4)
	for _, bw := range []float64{0.4, 0.4, 0.4, 0.4} {
		c, err := m.Place(bw)
		if err != nil {
			t.Fatal(err)
		}
		cores = append(cores, c)
	}
	// Worst-fit must alternate: 2 apps per core.
	count := map[int]int{}
	for _, c := range cores {
		count[c]++
	}
	if count[0] != 2 || count[1] != 2 {
		t.Errorf("placement %v, want 2+2", cores)
	}
	// A fifth 40% app does not fit anywhere.
	if _, err := m.Place(0.4); err == nil {
		t.Error("overloaded placement accepted")
	}
	// But a small one does.
	if _, err := m.Place(0.1); err != nil {
		t.Errorf("small app rejected: %v", err)
	}
}

func TestPlaceValidation(t *testing.T) {
	m := newMachine(sim.New(), 2)
	for _, bw := range []float64{0, -1, 1.5} {
		if _, err := m.Place(bw); err == nil {
			t.Errorf("Place(%v) accepted", bw)
		}
	}
	if m.Cores() != 2 {
		t.Errorf("Cores() = %d", m.Cores())
	}
}

func TestQuickWorstFitNeverOverloadsACore(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		m := newMachine(sim.New(), 1+r.Intn(4))
		for i := 0; i < 20; i++ {
			bw := r.Uniform(0.05, 0.5)
			if _, err := m.Place(bw); err != nil {
				break // machine full: acceptable
			}
		}
		for i, load := range m.Loads() {
			if load > 1+1e-9 {
				t.Logf("seed %d: core %d at %.3f", seed, i, load)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSixTunedPlayersOnTwoCores(t *testing.T) {
	// Six 25%-utilisation video players self-tune across two cores:
	// the partitioner splits them 3+3, every player converges, and
	// each core's reservations stay under its bound. On one core the
	// same set would be infeasible (6 x ~0.3 requested).
	eng := sim.New()
	m := newMachine(eng, 2)
	r := rng.New(5)

	type placedApp struct {
		player *workload.Player
		tuner  *core.Tuner
		core   int
	}
	apps := make([]placedApp, 0, 6)
	tracers := make([]*ktrace.Buffer, m.Cores())
	for i := range tracers {
		tracers[i] = ktrace.NewBuffer(ktrace.QTrace, 1<<16)
	}
	for i := 0; i < 6; i++ {
		coreIdx, err := m.Place(0.30) // admission hint: demand + spread
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		cfg := workload.VideoPlayerConfig(fmt.Sprintf("v%d", i), 0.25)
		cfg.Sink = tracers[coreIdx]
		p := workload.NewPlayer(m.Core(coreIdx), r.Split(), cfg)
		tuner, err := core.New(m.Core(coreIdx), m.Supervisor(coreIdx), tracers[coreIdx], p.Task(), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tuner.Start()
		// Launch 2s apart: each tuner locks onto its application
		// before the next tenant arrives (simultaneous cold starts
		// under mutual contention are the known detection hazard, see
		// the multitenant example).
		p.Start(simtime.Time(i) * simtime.Time(2*simtime.Second))
		apps = append(apps, placedApp{p, tuner, coreIdx})
	}

	eng.RunUntil(simtime.Time(40 * simtime.Second))

	perCore := map[int]int{}
	for i, a := range apps {
		perCore[a.core]++
		// Under mutual contention the detector may lock onto an
		// integer multiple of the frame rate; per Figure 1 a
		// sub-multiple reservation period costs the same bandwidth,
		// so the check is fundamental-or-harmonic (never unrelated,
		// never a sub-harmonic).
		f := a.tuner.DetectedFrequency()
		ratio := f / 25
		if math.Abs(ratio-math.Round(ratio)) > 0.05 || ratio < 0.95 {
			t.Errorf("app %d on core %d detected %.2f Hz (not 25k Hz)", i, a.core, f)
		}
		ift := a.player.InterFrameTimes()
		if len(ift) < 500 {
			t.Fatalf("app %d produced only %d frames", i, len(ift))
		}
		xs := make([]float64, 0, len(ift)-250)
		for _, d := range ift[250:] {
			xs = append(xs, d.Milliseconds())
		}
		if s := stats.Summarize(xs); math.Abs(s.Mean-40) > 2 {
			t.Errorf("app %d steady mean IFT %.2fms", i, s.Mean)
		}
	}
	if perCore[0] != 3 || perCore[1] != 3 {
		t.Errorf("placement %v, want 3+3", perCore)
	}
	for i := 0; i < m.Cores(); i++ {
		// The supervisor's grants respect the bound; the servers apply
		// compressed grants at their own next activation, so the
		// instantaneous reserved sum may transiently overshoot by one
		// tick's worth.
		if bw := m.Core(i).TotalReservedBandwidth(); bw > 1.05 {
			t.Errorf("core %d reserved %.3f", i, bw)
		}
		if granted := m.Supervisor(i).TotalGranted(); granted > 1+1e-9 {
			t.Errorf("core %d supervisor granted %.3f", i, granted)
		}
		if u := m.Core(i).Utilization(); u < 0.5 {
			t.Errorf("core %d utilisation %.3f suspiciously low", i, u)
		}
	}
}

func TestMachineUtilization(t *testing.T) {
	eng := sim.New()
	m := newMachine(eng, 2)
	// Load core 0 fully, keep core 1 idle: machine utilisation ~0.5.
	workload.StartCPUHog(m.Core(0), "hog", simtime.Duration(10*simtime.Second))
	eng.RunUntil(simtime.Time(2 * simtime.Second))
	if u := m.TotalUtilization(); math.Abs(u-0.5) > 0.01 {
		t.Errorf("machine utilisation %.3f, want 0.5", u)
	}
}
