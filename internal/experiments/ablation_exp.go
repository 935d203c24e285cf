package experiments

import (
	"fmt"

	"repro/internal/feedback"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationRow is one configuration of an ablation sweep: the QoS it
// achieved and the bandwidth it paid for it.
type AblationRow struct {
	Label      string
	IFTMean    float64 // ms
	IFTStd     float64 // ms
	MeanBW     float64 // average reserved fraction
	OverBW     float64 // mean reserved minus the workload's utilisation
	SettleSecs float64 // time until IFT violations become rare
}

// AblationResult is a labelled collection of rows plus a table view.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Table renders the ablation.
func (r AblationResult) Table() *report.Table {
	t := report.NewTable(r.Title, "Config", "IFT mean (ms)", "IFT std (ms)",
		"Mean BW", "Over-alloc", "Settle (s)")
	for _, row := range r.Rows {
		t.AddRow(row.Label,
			fmt.Sprintf("%.2f", row.IFTMean), fmt.Sprintf("%.2f", row.IFTStd),
			fmt.Sprintf("%.3f", row.MeanBW), fmt.Sprintf("%.3f", row.OverBW),
			fmt.Sprintf("%.2f", row.SettleSecs))
	}
	return t
}

func ablationRow(label string, seed uint64, o feedbackOpts) AblationRow {
	run := runFeedback(seed, o)
	s := stats.Summarize(iftMillis(run.player))
	var bw []float64
	for _, snap := range run.tuner.Snapshots() {
		bw = append(bw, snap.Bandwidth)
	}
	// Settle time: last inter-frame time above the 80ms drop threshold
	// within the first half of the run (sporadic late spikes excluded).
	ift := run.player.InterFrameTimes()
	settle := 0.0
	fin := run.player.Finishes()
	for i := 0; i < len(ift) && i < len(fin); i++ {
		if ift[i] > 80*simtime.Millisecond && fin[i].Seconds() < float64(len(ift))*0.04/2 {
			settle = fin[i].Seconds()
		}
	}
	util := o.playerUtil
	if util == 0 {
		util = 0.25
	}
	return AblationRow{
		Label:      label,
		IFTMean:    s.Mean,
		IFTStd:     s.Std,
		MeanBW:     stats.Mean(bw),
		OverBW:     stats.Mean(bw) - util,
		SettleSecs: settle,
	}
}

// AblationPredictor compares predictor choices inside LFS++
// (quantile p sweep, max, EWMA).
func AblationPredictor(seed uint64, frames int) AblationResult {
	if frames <= 0 {
		frames = 1000
	}
	res := AblationResult{Title: "Ablation: LFS++ predictor"}
	mk := func(label string, p feedback.Predictor) {
		ctrl := feedback.NewLFSPP()
		ctrl.Predictor = p
		res.Rows = append(res.Rows, ablationRow(label, seed,
			feedbackOpts{controller: ctrl, frames: frames}))
	}
	mk("quantile p=1.0 N=16", feedback.NewMaxPredictor(16))
	mk("quantile p=0.9375 N=16", feedback.NewQuantilePredictor(0.9375, 16))
	mk("quantile p=0.875 N=16", feedback.NewQuantilePredictor(0.875, 16))
	mk("quantile p=0.75 N=16", feedback.NewQuantilePredictor(0.75, 16))
	mk("ewma a=0.25 k=2", feedback.NewEWMAPredictor(0.25, 2))
	return res
}

// AblationSpread sweeps the spread factor x of LFS++ (Sec. 4.4 sets it
// "usually between 10% and 20%").
func AblationSpread(seed uint64, frames int) AblationResult {
	if frames <= 0 {
		frames = 1000
	}
	res := AblationResult{Title: "Ablation: LFS++ spread factor x"}
	for _, x := range []float64{0, 0.1, 0.15, 0.2, 0.4} {
		ctrl := feedback.NewLFSPP()
		ctrl.Spread = x
		res.Rows = append(res.Rows, ablationRow(fmt.Sprintf("x=%.2f", x), seed,
			feedbackOpts{controller: ctrl, frames: frames}))
	}
	return res
}

// AblationSampling sweeps the controller sampling period S, including
// the S = P configuration the paper explicitly warns against
// (Sec. 4.4 remark 2: job-wise sampling is unstable because the
// feedback runs asynchronously to job releases).
func AblationSampling(seed uint64, frames int) AblationResult {
	if frames <= 0 {
		frames = 1000
	}
	res := AblationResult{Title: "Ablation: sampling period S (task period P = 40ms)"}
	for _, s := range []simtime.Duration{
		40 * simtime.Millisecond, // S = P, the warned-against choice
		120 * simtime.Millisecond,
		200 * simtime.Millisecond,
		400 * simtime.Millisecond,
		simtime.Second,
	} {
		run := runFeedbackWithSampling(seed, s, frames)
		st := stats.Summarize(iftMillis(run.player))
		var bw []float64
		for _, snap := range run.tuner.Snapshots() {
			bw = append(bw, snap.Bandwidth)
		}
		bws := stats.Summarize(bw)
		res.Rows = append(res.Rows, AblationRow{
			Label:   fmt.Sprintf("S=%v", s),
			IFTMean: st.Mean,
			IFTStd:  st.Std,
			MeanBW:  bws.Mean,
			// For this ablation the interesting "over-allocation" is
			// the allocation's own instability.
			OverBW: bws.Std,
		})
	}
	return res
}

func runFeedbackWithSampling(seed uint64, sampling simtime.Duration, frames int) feedbackRun {
	return runFeedback(seed, feedbackOpts{sampling: sampling, frames: frames})
}

// AblationCBSMode compares hard vs soft reservations under the LFS++
// loop with a competing best-effort hog (isolation is what hard mode
// buys; alone on the CPU the two behave identically).
func AblationCBSMode(seed uint64, frames int) AblationResult {
	if frames <= 0 {
		frames = 1000
	}
	res := AblationResult{Title: "Ablation: CBS mode under a best-effort CPU hog"}
	for _, mode := range []sched.Mode{sched.HardCBS, sched.SoftCBS} {
		run := runFeedback(seed, feedbackOpts{mode: mode, frames: frames, hog: true})
		s := stats.Summarize(iftMillis(run.player))
		var bw []float64
		for _, snap := range run.tuner.Snapshots() {
			bw = append(bw, snap.Bandwidth)
		}
		res.Rows = append(res.Rows, AblationRow{
			Label:   mode.String(),
			IFTMean: s.Mean,
			IFTStd:  s.Std,
			MeanBW:  stats.Mean(bw),
			OverBW:  stats.Mean(bw) - 0.25,
		})
	}
	return res
}

// DenseGridResult quantifies Sec. 4.3's argument for the sparse
// event-driven transform: the cost of the direct computation against
// the number of samples an FFT-style dense sampling would need.
type DenseGridResult struct {
	Events       int
	SparseOps    int64   // N * F (Eq. 3)
	SparseTimeUS float64 // measured, the analyser's one kernel
	// DenseSamples is the number of signal samples a dense FFT grid
	// would need at 1us resolution over the same horizon — the paper's
	// "utterly inefficient" alternative.
	DenseSamples int64
}

// StateTraceRow compares the two tracing sources at one load level.
type StateTraceRow struct {
	LoadUtil                float64
	SyscallMean, SyscallStd float64 // detected Hz from syscall events
	StateMean, StateStd     float64 // detected Hz from wakeup/block events
}

// StateTraceResult is the paper's Sec. 6 conjecture, tested: tracing
// blocked/ready transitions instead of system calls should be "more
// closely related to the task temporal behaviour". Wakeup events carry
// the job release instants, which do not dilate under load, so the
// state-trace detection should stay locked at the fundamental where
// the syscall-trace detection drifts to harmonics (Table 2).
type StateTraceResult struct {
	Rows []StateTraceRow
}

// AblationStateTrace repeats the Table 2 protocol with both sources.
func AblationStateTrace(seed uint64, reps int, horizon simtime.Duration) StateTraceResult {
	if reps <= 0 {
		reps = 50
	}
	if horizon <= 0 {
		horizon = simtime.Second
	}
	var res StateTraceResult
	for li, spec := range workload.Table2Loads {
		var sysF, stF []float64
		for rep := 0; rep < reps; rep++ {
			sys, st := mp3TraceBoth(seed+uint64(li*1009+rep)*17, horizon, spec, true, true)
			if d := spectrum.Detect(spectrum.Compute(sys, spectrum.DefaultBand), spectrum.DefaultDetect); d.Periodic {
				sysF = append(sysF, d.Frequency)
			}
			if d := spectrum.Detect(spectrum.Compute(st, spectrum.DefaultBand), spectrum.DefaultDetect); d.Periodic {
				stF = append(stF, d.Frequency)
			}
		}
		res.Rows = append(res.Rows, StateTraceRow{
			LoadUtil:    spec.Util,
			SyscallMean: stats.Mean(sysF), SyscallStd: stats.Std(sysF),
			StateMean: stats.Mean(stF), StateStd: stats.Std(stF),
		})
	}
	return res
}

// Table renders the comparison.
func (r StateTraceResult) Table() *report.Table {
	t := report.NewTable("Ablation: syscall trace vs blocked/ready state trace (Sec. 6 conjecture)",
		"Load", "Syscall avg (Hz)", "Syscall std", "State avg (Hz)", "State std")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.0f%%", row.LoadUtil*100),
			fmt.Sprintf("%.2f", row.SyscallMean), fmt.Sprintf("%.2f", row.SyscallStd),
			fmt.Sprintf("%.2f", row.StateMean), fmt.Sprintf("%.2f", row.StateStd))
	}
	t.AddNote("true rate 32.5Hz; wakeup timestamps are release instants and do not dilate under load")
	return t
}

// ScoringRow classifies detections of one scoring rule at one load.
type ScoringRow struct {
	Rule     spectrum.ScoringRule
	LoadUtil float64
	Exact    float64 // fraction detecting the fundamental (±1 Hz)
	Harmonic float64 // fraction locking an integer multiple
	Sub      float64 // fraction below the fundamental
	Other    float64 // anything else (incl. aperiodic verdicts)
}

// ScoringResult quantifies DESIGN.md §6 item 2: how the paper's
// literal harmonic-sum rule compares with the reproduction's
// weighted-max scoring, over the Table 2 trace corpus.
type ScoringResult struct {
	Rows []ScoringRow
}

// AblationScoring runs both rules over the clean and loaded mp3
// traces.
func AblationScoring(seed uint64, reps int) ScoringResult {
	if reps <= 0 {
		reps = 50
	}
	loads := []workload.LoadSpec{workload.Table2Loads[0], workload.Table2Loads[3]} // 0% and 45%
	var res ScoringResult
	for _, rule := range []spectrum.ScoringRule{spectrum.WeightedMax, spectrum.LiteralSum} {
		cfg := spectrum.DefaultDetect
		cfg.Scoring = rule
		for _, load := range loads {
			row := ScoringRow{Rule: rule, LoadUtil: load.Util}
			for rep := 0; rep < reps; rep++ {
				events := mp3Trace(seed+uint64(rep)*61, simtime.Second, load)
				d := spectrum.Detect(spectrum.Compute(events, spectrum.DefaultBand), cfg)
				switch {
				case !d.Periodic:
					row.Other++
				case d.Frequency > 31.5 && d.Frequency < 33.5:
					row.Exact++
				case d.Frequency > 33.5 && isMultipleOf(d.Frequency, 32.5):
					row.Harmonic++
				case d.Frequency < 31.5:
					row.Sub++
				default:
					row.Other++
				}
			}
			n := float64(reps)
			row.Exact /= n
			row.Harmonic /= n
			row.Sub /= n
			row.Other /= n
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

func isMultipleOf(f, base float64) bool {
	r := f / base
	return r-float64(int(r+0.5)) < 0.1 && float64(int(r+0.5))-r < 0.1
}

// Table renders the scoring comparison.
func (r ScoringResult) Table() *report.Table {
	t := report.NewTable("Ablation: step-5 scoring rule (weighted-max vs the paper's literal sum)",
		"Rule", "Load", "Exact", "Harmonic", "Sub-harmonic", "Other")
	for _, row := range r.Rows {
		t.AddRow(row.Rule.String(), fmt.Sprintf("%.0f%%", row.LoadUtil*100),
			fmt.Sprintf("%.0f%%", row.Exact*100),
			fmt.Sprintf("%.0f%%", row.Harmonic*100),
			fmt.Sprintf("%.0f%%", row.Sub*100),
			fmt.Sprintf("%.0f%%", row.Other*100))
	}
	t.AddNote("true rate 32.5Hz; 1s traces from the Table 2 corpus")
	t.AddNote("the literal sum's low-frequency bias, combined with the max-relative alpha,")
	t.AddNote("makes it MORE load-robust here - but then it cannot reproduce the paper's own")
	t.AddNote("Table 2 degradation, so the default stays weighted-max (see DESIGN.md)")
	return t
}

// AblationDenseGrid measures the sparse transform on a 2s trace.
func AblationDenseGrid(seed uint64) DenseGridResult {
	h := 2 * simtime.Second
	events := mp3Trace(seed, h, noLoad)
	band := spectrum.DefaultBand
	var s *spectrum.Spectrum
	sparse := timeIt(5, func() { s = spectrum.Compute(events, band) })
	return DenseGridResult{
		Events:       len(events),
		SparseOps:    s.Ops,
		SparseTimeUS: float64(sparse.Nanoseconds()) / 1e3,
		DenseSamples: int64(h / simtime.Microsecond),
	}
}
