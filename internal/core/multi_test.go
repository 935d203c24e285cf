package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// twoThreadApp builds a two-thread application: a fast light "audio"
// thread and a slower heavier "video" thread, both wired to the rig's
// tracer.
func twoThreadApp(rg *rig) (audio, video *workload.Player) {
	aCfg := workload.PlayerConfig{
		Name:          "app:audio",
		Period:        20 * ms,
		ReleaseJitter: 200 * simtime.Microsecond,
		MeanDemand:    simtime.Duration(0.08 * float64(20*ms)),
		DemandJitter:  0.05,
		StartBurstMin: 4, StartBurstMax: 7,
		EndBurstMin: 4, EndBurstMax: 7,
		Sink: rg.tracer,
	}
	vCfg := workload.PlayerConfig{
		Name:          "app:video",
		Period:        40 * ms,
		ReleaseJitter: 300 * simtime.Microsecond,
		MeanDemand:    simtime.Duration(0.18 * float64(40*ms)),
		DemandJitter:  0.08,
		StartBurstMin: 6, StartBurstMax: 10,
		EndBurstMin: 6, EndBurstMax: 10,
		Sink: rg.tracer,
	}
	return workload.NewPlayer(rg.sd, rg.r.Split(), aCfg), workload.NewPlayer(rg.sd, rg.r.Split(), vCfg)
}

func TestMultiTunerDetectsBothThreads(t *testing.T) {
	rg := newRig(21)
	audio, video := twoThreadApp(rg)
	tuner, err := core.NewShared(rg.sd, rg.sup, rg.tracer,
		[]*sched.Task{audio.Task(), video.Task()}, []int{0, 1}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tuner.Start()
	audio.Start(0)
	video.Start(0)
	rg.eng.RunUntil(simtime.Time(40 * simtime.Second))

	periods := tuner.ThreadPeriods()
	if len(periods) != 2 {
		t.Fatalf("detected %d thread periods, want 2", len(periods))
	}
	pa, pv := periods[audio.Task().PID()], periods[video.Task().PID()]
	if math.Abs(pa.Milliseconds()-20) > 0.5 {
		t.Errorf("audio period %v, want ~20ms", pa)
	}
	if math.Abs(pv.Milliseconds()-40) > 0.5 {
		t.Errorf("video period %v, want ~40ms", pv)
	}
	// The reservation period follows the fastest thread.
	if got := tuner.Period(); math.Abs(got.Milliseconds()-20) > 0.5 {
		t.Errorf("reservation period %v, want ~20ms", got)
	}
}

func TestMultiTunerServesBothThreads(t *testing.T) {
	rg := newRig(22)
	audio, video := twoThreadApp(rg)
	tuner, err := core.NewShared(rg.sd, rg.sup, rg.tracer,
		[]*sched.Task{audio.Task(), video.Task()}, []int{0, 1}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tuner.Start()
	audio.Start(0)
	video.Start(0)
	rg.eng.RunUntil(simtime.Time(40 * simtime.Second))

	// Both threads keep their rates (IFT == period on average).
	sa := iftStats(audio, 400)
	sv := iftStats(video, 200)
	if math.Abs(sa.Mean-20) > 1 {
		t.Errorf("audio mean IFT %.2fms, want ~20ms", sa.Mean)
	}
	if math.Abs(sv.Mean-40) > 1.5 {
		t.Errorf("video mean IFT %.2fms, want ~40ms", sv.Mean)
	}
	// The high-priority audio thread should be the steadier one.
	if sa.Std > sv.Std+1 {
		t.Errorf("audio IFT std %.2f above video's %.2f despite higher priority", sa.Std, sv.Std)
	}
}

func TestMultiTunerBandwidthComparableToPerThread(t *testing.T) {
	// Figure 2's premium for shared reservations is a worst-case
	// *guarantee* cost; the feedback loop reserves what the threads
	// measurably consume, so in closed loop both configurations must
	// land above the cumulative utilisation and within a sane factor
	// of it — the analysis-vs-feedback distinction the multithread
	// example demonstrates.
	util := 0.08 + 0.18 // audio + video shares of the CPU

	shared := func() float64 {
		rg := newRig(23)
		audio, video := twoThreadApp(rg)
		tuner, err := core.NewShared(rg.sd, rg.sup, rg.tracer,
			[]*sched.Task{audio.Task(), video.Task()}, []int{0, 1}, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tuner.Start()
		audio.Start(0)
		video.Start(0)
		rg.eng.RunUntil(simtime.Time(40 * simtime.Second))
		return tuner.Server().Bandwidth()
	}()

	perThread := func() float64 {
		rg := newRig(23)
		audio, video := twoThreadApp(rg)
		for _, p := range []*workload.Player{audio, video} {
			tuner, err := core.New(rg.sd, rg.sup, rg.tracer, p.Task(), core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			tuner.Start()
		}
		audio.Start(0)
		video.Start(0)
		rg.eng.RunUntil(simtime.Time(40 * simtime.Second))
		return rg.sd.TotalReservedBandwidth()
	}()

	if shared < util {
		t.Errorf("shared reservation %.3f below the cumulative utilisation %.3f", shared, util)
	}
	if perThread < util {
		t.Errorf("per-thread reservations %.3f below the cumulative utilisation %.3f", perThread, util)
	}
	// Neither configuration should be wildly wasteful.
	if shared > 2.5*util || perThread > 2*util {
		t.Errorf("over-allocation out of range: shared %.3f, per-thread %.3f (util %.3f)",
			shared, perThread, util)
	}
}

func TestMultiTunerValidation(t *testing.T) {
	rg := newRig(24)
	audio, _ := twoThreadApp(rg)
	if _, err := core.NewShared(rg.sd, rg.sup, rg.tracer, nil, nil, core.DefaultConfig()); err == nil {
		t.Error("empty task list accepted")
	}
	if _, err := core.NewShared(rg.sd, rg.sup, rg.tracer,
		[]*sched.Task{audio.Task()}, []int{0, 1}, core.DefaultConfig()); err == nil {
		t.Error("mismatched priorities accepted")
	}
}
