package workload

import (
	"cmp"
	"slices"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// PlayerConfig parameterises a media player model.
type PlayerConfig struct {
	Name string

	// Period is the frame period (e.g. 40ms for 25 fps video,
	// ~30.77ms for the paper's 32.5Hz mp3 clock).
	Period simtime.Duration
	// ReleaseJitter is the half-width of the uniform jitter applied
	// independently to each frame release instant (no drift).
	ReleaseJitter simtime.Duration

	// MeanDemand is the average per-frame decode time.
	MeanDemand simtime.Duration
	// DemandJitter is the relative standard deviation of the
	// multiplicative noise on each frame's decode time.
	DemandJitter float64

	// GOP, if positive, imposes an MPEG group-of-pictures structure of
	// that length (pattern I BB P BB P ...): I frames cost IBoost times
	// the P-frame demand and B frames BDrop times it. Zero disables
	// the structure (audio-style constant load).
	GOP    int
	IBoost float64
	BDrop  float64

	// Syscall emission: uniformly drawn counts for the start-of-job and
	// end-of-job bursts, plus scattered mid-job calls.
	StartBurstMin, StartBurstMax int
	EndBurstMin, EndBurstMax     int
	MidCallsMax                  int

	// Sink is where the player's task starts tracing its syscalls
	// (nil: untraced); Task().Sink() is the live one.
	Sink SyscallSink
}

// VideoPlayerConfig returns the configuration used for the paper's
// video experiments (Figs 13-14, Table 3): a 25 fps stream with GOP
// structure and the given mean utilisation of the simulated CPU.
func VideoPlayerConfig(name string, meanUtil float64) PlayerConfig {
	period := 40 * simtime.Millisecond
	return PlayerConfig{
		Name:          name,
		Period:        period,
		ReleaseJitter: 500 * simtime.Microsecond,
		MeanDemand:    simtime.Duration(meanUtil * float64(period)),
		DemandJitter:  0.10,
		GOP:           12,
		IBoost:        1.8,
		BDrop:         0.6,
		StartBurstMin: 6, StartBurstMax: 12,
		EndBurstMin: 8, EndBurstMax: 14,
		MidCallsMax: 4,
	}
}

// MP3PlayerConfig returns the configuration matching the paper's mp3
// tracing experiments (Figs 6-12): a 32.5Hz frame clock and light,
// near-constant decode load.
func MP3PlayerConfig(name string) PlayerConfig {
	period := simtime.FromHertz(32.5)
	return PlayerConfig{
		Name:          name,
		Period:        period,
		ReleaseJitter: 300 * simtime.Microsecond,
		MeanDemand:    simtime.Duration(0.15 * float64(period)),
		DemandJitter:  0.08,
		StartBurstMin: 5, StartBurstMax: 9,
		EndBurstMin: 7, EndBurstMax: 12,
		MidCallsMax: 3,
	}
}

// Player is a generative model of a periodic multimedia application.
type Player struct {
	app
	cfg PlayerConfig
	r   *rng.Source

	frame    int
	finishes []simtime.Time
	displays []simtime.Time
	demands  []simtime.Duration
	gridBase simtime.Time
	nextSlot int

	// syscall mix weights, cumulative for sampling
	mixCalls []Syscall
	mixCum   []float64

	emits []emit // the frame being dressed; reused across frames

	// Frames whose release jitter defers them, in the order their
	// releases were armed; releaseFn releases one when it falls due.
	deferred  []deferredFrame
	releaseFn func()
}

// deferredFrame is a frame's job and the instant its jittered release
// falls due.
type deferredFrame struct {
	at  simtime.Time
	job *sched.Job
}

// emit is one system call of a frame: call nr at execution offset off.
type emit struct {
	off simtime.Duration
	nr  Syscall
}

// gopWeight returns the demand multiplier of frame k under the GOP
// structure, normalised so the average multiplier over a GOP is 1.
func (p *Player) gopWeight(k int) float64 {
	if p.cfg.GOP <= 0 {
		return 1
	}
	g := p.cfg.GOP
	pos := k % g
	var w float64
	switch {
	case pos == 0:
		w = p.cfg.IBoost
	case pos%3 == 0:
		w = 1 // P frame every third slot
	default:
		w = p.cfg.BDrop
	}
	// normalisation: one I, (g/3 - 1 + remainder) P, rest B
	var sum float64
	for i := 0; i < g; i++ {
		switch {
		case i == 0:
			sum += p.cfg.IBoost
		case i%3 == 0:
			sum += 1
		default:
			sum += p.cfg.BDrop
		}
	}
	return w * float64(g) / sum
}

// NewPlayer creates the player's task in the best-effort class; attach
// it to a server before starting if a reservation is wanted.
func NewPlayer(sd *sched.Scheduler, r *rng.Source, cfg PlayerConfig) *Player {
	if cfg.Period <= 0 {
		panic("workload: player period must be positive")
	}
	if cfg.MeanDemand <= 0 {
		panic("workload: player demand must be positive")
	}
	p := &Player{app: newApp(sd, cfg.Name, cfg.Sink), cfg: cfg, r: r}
	// A deferred release fires at its frame's instant; frames falling
	// due together fire in the order they were armed, so the first one
	// due now is this release's.
	p.releaseFn = func() {
		now := p.lt.now()
		i := 0
		for p.deferred[i].at != now {
			i++
		}
		j := p.deferred[i].job
		p.deferred = slices.Delete(p.deferred, i, i+1)
		if !p.stopped {
			p.task.Release(j)
		}
	}
	p.task.OnJobComplete = func(j *sched.Job, now simtime.Time) {
		p.finishes = append(p.finishes, now)
		// The frame is displayed at its slot of the output time grid
		// (the player's A/V-sync clock) or immediately if decoded too
		// late for it. This is what makes the paper's inter-frame-time
		// metric sensitive to starvation but not to ahead-of-time
		// decoding.
		slot := p.gridBase.Add(simtime.Duration(p.nextSlot+1) * p.cfg.Period)
		p.nextSlot++
		if now.After(slot) {
			p.displays = append(p.displays, now)
		} else {
			p.displays = append(p.displays, slot)
		}
	}
	// The Figure-4 mix: ioctl-dominated ALSA traffic.
	mix := []struct {
		call Syscall
		w    float64
	}{
		{SysIoctl, 0.62}, {SysRead, 0.09}, {SysWrite, 0.07},
		{SysGettimeofday, 0.06}, {SysFutex, 0.05}, {SysPoll, 0.04},
		{SysSelect, 0.03}, {SysLseek, 0.02}, {SysMmap, 0.01}, {SysStat, 0.01},
	}
	var cum float64
	for _, m := range mix {
		cum += m.w
		p.mixCalls = append(p.mixCalls, m.call)
		p.mixCum = append(p.mixCum, cum)
	}
	return p
}

// Config returns the player configuration.
func (p *Player) Config() PlayerConfig { return p.cfg }

// Start begins releasing frames at the given instant (clamped to the
// present). Starting twice panics.
func (p *Player) Start(at simtime.Time) {
	at = p.start("Player", at)
	p.gridBase = at
	first := at
	if j := p.cfg.ReleaseJitter; j > 0 {
		first = first.Add(simtime.Duration(p.r.Int63n(int64(2*j))) - j)
		if first < p.lt.now() {
			first = p.lt.now()
		}
	}
	next := at
	p.repeat(first, func() simtime.Time {
		p.releaseFrame()
		next = next.Add(p.cfg.Period)
		return next
	})
}

func (p *Player) sampleSyscall() Syscall {
	u := p.r.Float64()
	for i, c := range p.mixCum {
		if u < c {
			return p.mixCalls[i]
		}
	}
	return p.mixCalls[len(p.mixCalls)-1]
}

func (p *Player) releaseFrame() {
	now := p.lt.now()
	demand := float64(p.cfg.MeanDemand) * p.gopWeight(p.frame)
	if p.cfg.DemandJitter > 0 {
		demand *= p.r.Norm(1, p.cfg.DemandJitter)
	}
	if min := 0.05 * float64(p.cfg.MeanDemand); demand < min {
		demand = min
	}
	p.frame++
	total := simtime.Duration(demand)
	deadline := now.Add(p.cfg.Period)
	j := p.task.NewJob(now, total, deadline)
	p.addSyscalls(j, total)
	p.demands = append(p.demands, total)

	// Apply release jitter by deferring the actual release slightly.
	if jit := p.cfg.ReleaseJitter; jit > 0 {
		at := now.Add(simtime.Duration(p.r.Int63n(int64(2 * jit))))
		p.deferred = append(p.deferred, deferredFrame{at, j})
		p.lt.at(at, p.releaseFn)
	} else {
		p.task.Release(j)
	}
}

// addSyscalls adds this frame's system calls to its job: a burst near
// progress 0, a burst near completion, and a few scattered mid-frame
// calls. An untraced player draws none.
func (p *Player) addSyscalls(j *sched.Job, total simtime.Duration) {
	if p.task.Sink() == nil {
		return
	}
	emits := p.emits[:0]
	span := func(lo, hi float64) simtime.Duration {
		return simtime.Duration(p.r.Uniform(lo, hi) * float64(total))
	}
	nStart := p.cfg.StartBurstMin
	if d := p.cfg.StartBurstMax - p.cfg.StartBurstMin; d > 0 {
		nStart += p.r.Intn(d + 1)
	}
	for i := 0; i < nStart; i++ {
		emits = append(emits, emit{span(0, 0.04), p.sampleSyscall()})
	}
	nEnd := p.cfg.EndBurstMin
	if d := p.cfg.EndBurstMax - p.cfg.EndBurstMin; d > 0 {
		nEnd += p.r.Intn(d + 1)
	}
	for i := 0; i < nEnd; i++ {
		emits = append(emits, emit{span(0.96, 1.0), p.sampleSyscall()})
	}
	if p.cfg.MidCallsMax > 0 {
		for i, n := 0, p.r.Intn(p.cfg.MidCallsMax+1); i < n; i++ {
			emits = append(emits, emit{span(0.1, 0.9), p.sampleSyscall()})
		}
	}
	// The final blocking call of the job body (the clock_nanosleep or
	// ALSA wait that suspends the task until the next activation).
	emits = append(emits, emit{total, SysNanosleep})

	slices.SortFunc(emits, func(a, b emit) int { return cmp.Compare(a.off, b.off) })
	for _, e := range emits {
		j.AddSyscall(e.off, int(e.nr))
	}
	p.emits = emits
}

// Frames returns the number of frames released so far.
func (p *Player) Frames() int { return p.frame }

// Finishes returns the completion instants of all finished frames.
func (p *Player) Finishes() []simtime.Time { return p.finishes }

// Demands returns the decode demand of each released frame.
func (p *Player) Demands() []simtime.Duration { return p.demands }

// InterFrameTimes returns the paper's application-level QoS metric:
// "the time between the visualisation of two video frames". Frames
// decoded in time are shown on the player's periodic output grid;
// frames decoded late are shown as soon as they are ready, so
// starvation widens these intervals (and the catch-up narrows them).
func (p *Player) InterFrameTimes() []simtime.Duration {
	return diffs(p.displays)
}

func diffs(ts []simtime.Time) []simtime.Duration {
	if len(ts) < 2 {
		return nil
	}
	out := make([]simtime.Duration, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = ts[i].Sub(ts[i-1])
	}
	return out
}
