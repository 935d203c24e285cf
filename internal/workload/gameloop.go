package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// GameLoopConfig parameterises a fixed-rate game loop.
type GameLoopConfig struct {
	// Name identifies the instance (task name, reports).
	Name string
	// FramePeriod is the fixed frame interval; every frame's deadline
	// is the release of the next one (a late frame is a dropped frame,
	// there is no catching up on a v-synced display).
	FramePeriod simtime.Duration
	// MeanDemand is the mean per-frame service demand.
	MeanDemand simtime.Duration
	// Jitter is the relative per-frame demand spread: each frame draws
	// uniformly from MeanDemand * [1-Jitter, 1+Jitter]. Scene
	// complexity, not load, so it stays bounded — the deadline
	// sensitivity comes from the spikes, not from drift.
	Jitter float64
	// Sink is where the loop's task starts tracing its input-poll and
	// present syscalls (nil: untraced).
	Sink SyscallSink
	// OnRequest receives one Request per completed frame (nil:
	// unobserved).
	OnRequest RequestObserver
}

// DefaultGameLoopConfig returns a 60 FPS loop: 16.7ms frames, demand
// jittered ±35% around the mean implied by the caller's utilisation.
func DefaultGameLoopConfig(name string) GameLoopConfig {
	return GameLoopConfig{
		Name:        name,
		FramePeriod: 16667 * simtime.Microsecond,
		MeanDemand:  3333 * simtime.Microsecond, // 20% of a core
		Jitter:      0.35,
	}
}

// GameLoop is a fixed-frame-deadline workload: frames release on a
// rigid period grid and each must finish before the next release.
// Unlike the Player (whose A/V clock tolerates ahead-of-time
// decoding), a game loop is deadline-sensitive every frame — exactly
// the workload a balancing policy must not strand on an overloaded
// core. Each frame polls input at the start and presents at the end,
// so the period analyser sees a clean frame-rate line.
type GameLoop struct {
	app
	cfg    GameLoopConfig
	r      *rng.Source
	frames int
}

// NewGameLoop prepares a game loop; no frames release until Start.
func NewGameLoop(sd *sched.Scheduler, r *rng.Source, cfg GameLoopConfig) *GameLoop {
	if cfg.FramePeriod <= 0 {
		panic(fmt.Sprintf("workload: gameloop %q: frame period %v must be positive", cfg.Name, cfg.FramePeriod))
	}
	if cfg.MeanDemand <= 0 {
		panic(fmt.Sprintf("workload: gameloop %q: mean demand %v must be positive", cfg.Name, cfg.MeanDemand))
	}
	if cfg.Jitter < 0 || cfg.Jitter >= 1 {
		panic(fmt.Sprintf("workload: gameloop %q: jitter %v out of [0,1)", cfg.Name, cfg.Jitter))
	}
	g := &GameLoop{app: newApp(sd, cfg.Name, cfg.Sink), cfg: cfg, r: r}
	if cfg.OnRequest != nil {
		g.task.OnJobComplete = observeCompletion(cfg.OnRequest, cfg.FramePeriod)
	}
	return g
}

// Frames returns the number of frames released so far.
func (g *GameLoop) Frames() int { return g.frames }

// Start begins the frame grid at the given instant (clamped to the
// present).
func (g *GameLoop) Start(at simtime.Time) {
	next := g.start("GameLoop", at)
	g.repeat(next, func() simtime.Time {
		g.release(g.lt.now())
		next = next.Add(g.cfg.FramePeriod)
		return next
	})
}

// release queues one frame: jittered demand, deadline at the next
// frame release, an input poll() at the start and a present write()
// at the end.
func (g *GameLoop) release(now simtime.Time) {
	g.frames++
	lo := float64(g.cfg.MeanDemand) * (1 - g.cfg.Jitter)
	hi := float64(g.cfg.MeanDemand) * (1 + g.cfg.Jitter)
	d := simtime.Duration(g.r.Uniform(lo, hi))
	if d < simtime.Microsecond {
		d = simtime.Microsecond
	}
	j := g.task.NewJob(now, d, now.Add(g.cfg.FramePeriod))
	g.syscall(j, 0, SysPoll)
	g.syscall(j, d, SysWrite)
	g.task.Release(j)
}
