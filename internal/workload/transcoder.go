package workload

import (
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// TranscoderConfig parameterises the ffmpeg-like batch workload used
// for the tracer-overhead measurement (Table 1).
type TranscoderConfig struct {
	Name string
	// TotalWork is the pure CPU demand of the transcode, without any
	// tracing overhead (the paper's NOTRACE baseline, 21.09s).
	TotalWork simtime.Duration
	// WorkJitter is the relative standard deviation of the run-to-run
	// demand noise (the paper's baseline shows ~0.45%).
	WorkJitter float64
	// SyscallEvery is the execution progress between consecutive
	// syscalls (frame reads/writes). The paper's ffmpeg emits a few
	// hundred calls per second of CPU time.
	SyscallEvery simtime.Duration
	// Sink is where the transcoder's task starts tracing its syscalls
	// (nil: untraced).
	Sink SyscallSink
	// OnRequest receives one Request when the transcode unit completes
	// (nil: unobserved). Transcodes run without a deadline, so the
	// request's latency is the batch turnaround time.
	OnRequest RequestObserver
}

// DefaultTranscoderConfig mirrors Table 1's setup.
func DefaultTranscoderConfig(name string) TranscoderConfig {
	return TranscoderConfig{
		Name:         name,
		TotalWork:    simtime.Duration(21.09 * float64(simtime.Second)),
		WorkJitter:   0.0045,
		SyscallEvery: 2500 * simtime.Microsecond, // ~400 calls per CPU second
	}
}

// Transcoder is a single CPU-bound batch job that emits syscalls at
// regular execution-progress intervals.
type Transcoder struct {
	app
	cfg    TranscoderConfig
	r      *rng.Source
	finish simtime.Time
}

// NewTranscoder creates the transcoder's task in the best-effort class.
func NewTranscoder(sd *sched.Scheduler, r *rng.Source, cfg TranscoderConfig) *Transcoder {
	if cfg.TotalWork <= 0 {
		panic("workload: transcoder work must be positive")
	}
	if cfg.SyscallEvery <= 0 {
		panic("workload: transcoder syscall interval must be positive")
	}
	tr := &Transcoder{app: newApp(sd, cfg.Name, cfg.Sink), cfg: cfg, r: r}
	tr.task.OnJobComplete = func(j *sched.Job, now simtime.Time) { tr.finish = now }
	if cfg.OnRequest != nil {
		complete := observeCompletion(cfg.OnRequest, 0)
		tr.task.OnJobComplete = func(j *sched.Job, now simtime.Time) {
			tr.finish = now
			complete(j, now)
		}
	}
	return tr
}

// Start releases the transcode job at the given instant (clamped to
// the present). Starting twice panics, like every other workload.
func (tr *Transcoder) Start(at simtime.Time) {
	tr.lt.at(tr.start("Transcoder", at), func() {
		if tr.stopped {
			return
		}
		work := float64(tr.cfg.TotalWork)
		if tr.cfg.WorkJitter > 0 {
			work *= tr.r.Norm(1, tr.cfg.WorkJitter)
		}
		total := simtime.Duration(work)
		j := tr.task.NewJob(tr.lt.now(), total, simtime.Never)
		// Alternate read (demux input) and write (mux output), with a
		// periodic lseek.
		calls := [...]Syscall{SysRead, SysWrite, SysLseek, SysWrite}
		for i, off := 0, tr.cfg.SyscallEvery; off < total; i, off = i+1, off+tr.cfg.SyscallEvery {
			tr.syscall(j, off, calls[i%len(calls)])
		}
		tr.task.Release(j)
	})
}

// Finished reports whether the transcode completed, and when.
func (tr *Transcoder) Finished() (simtime.Time, bool) {
	if tr.task.Stats().Completed == 0 {
		return 0, false
	}
	return tr.finish, true
}
