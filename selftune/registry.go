package selftune

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Workload is a runnable application model spawned from the registry.
// Implementations are created stopped and begin acting on the
// simulation only when Start fires.
type Workload interface {
	// Name identifies the instance (task names, reports).
	Name() string
	// Start begins the workload's activity at the given instant.
	Start(at Time)
}

// Tunable is implemented by workloads whose activity runs in a single
// schedulable task, the unit a Tuner can manage.
type Tunable interface {
	Task() *Task
}

// Env is what a workload factory receives: the components of the core
// the instance was placed on, the system-wide tracer, and a private
// deterministic random stream.
type Env struct {
	// Core is the placed core.
	Core Core
	// Scheduler is the placed core's scheduling substrate.
	Scheduler *Scheduler
	// Supervisor is the placed core's bandwidth supervisor.
	Supervisor *Supervisor
	// Tracer is the syscall tracer the instance records into: the
	// system-wide buffer, or the placed core's own on a laned machine
	// (WithCoreParallelism).
	Tracer *Tracer
	// Rand is a private rng stream split off the System seed.
	Rand *rng.Source
	// Requests publishes completed requests as RequestCompleteEvents on
	// the System's observer bus. Factories of request-shaped kinds wire
	// it into their config's OnRequest; custom factories may do the
	// same (or ignore it — publishing is a no-op with no subscribers).
	Requests RequestObserver
}

// Factory builds one workload instance from a spawn specification.
type Factory func(env Env, spec SpawnSpec) (Workload, error)

// SpawnSpec is the resolved specification a Factory builds from,
// assembled by Spawn from its SpawnOptions.
type SpawnSpec struct {
	// Kind is the registry name the instance was spawned under.
	Kind string
	// Name is the instance name (default: kind plus a sequence number).
	Name string
	// Util is the target mean CPU utilisation, for kinds that scale
	// with one (video, rtload). Zero selects the kind's default.
	Util float64
	// Count is the instance's internal parallelism (rtload task
	// count). Zero selects the kind's default.
	Count int
	// Player carries an explicit player configuration for the "player"
	// kind. Its Sink, when nil, is pointed at the system tracer.
	Player *PlayerConfig
	// Burst is the mean burst factor of bursty-arrival kinds
	// (webserver: mean requests per burst). Zero selects the kind's
	// default.
	Burst int
	// Hint is the placement bandwidth hint. Zero derives it from
	// Player or Util.
	Hint float64
	// Core pins placement to a specific core; -1 (the default) lets
	// smp.Machine.Place choose worst-fit.
	Core int
	// Tuner, when non-nil, attaches a Tuner with this configuration
	// to the spawned workload's task.
	Tuner *TunerConfig
}

// SpawnOption adjusts a SpawnSpec.
type SpawnOption func(*SpawnSpec) error

// SpawnName names the instance (default: kind plus sequence number).
func SpawnName(name string) SpawnOption {
	return func(sp *SpawnSpec) error {
		if name == "" {
			return fmt.Errorf("selftune: SpawnName(\"\")")
		}
		sp.Name = name
		return nil
	}
}

// SpawnUtil sets the workload's target mean CPU utilisation.
func SpawnUtil(util float64) SpawnOption {
	return func(sp *SpawnSpec) error {
		if util <= 0 || util > 1 {
			return fmt.Errorf("selftune: SpawnUtil(%v): utilisation must be in (0,1]", util)
		}
		sp.Util = util
		return nil
	}
}

// SpawnCount sets the workload's internal task count (e.g. how many
// reserved periodic tasks an "rtload" splits into).
func SpawnCount(n int) SpawnOption {
	return func(sp *SpawnSpec) error {
		if n < 1 {
			return fmt.Errorf("selftune: SpawnCount(%d): need at least one task", n)
		}
		sp.Count = n
		return nil
	}
}

// SpawnBurst sets the mean burst factor of bursty-arrival kinds: a
// "webserver" releases on average n requests back-to-back per arrival
// burst.
func SpawnBurst(n int) SpawnOption {
	return func(sp *SpawnSpec) error {
		if n < 1 {
			return fmt.Errorf("selftune: SpawnBurst(%d): need at least one request per burst", n)
		}
		sp.Burst = n
		return nil
	}
}

// SpawnPlayer passes an explicit player configuration to the "player"
// kind. A nil Sink is pointed at the system tracer; set
// cfg.Sink explicitly to trace elsewhere.
func SpawnPlayer(cfg PlayerConfig) SpawnOption {
	return func(sp *SpawnSpec) error {
		sp.Player = &cfg
		return nil
	}
}

// SpawnHint overrides the bandwidth hint used to place the instance.
func SpawnHint(bandwidth float64) SpawnOption {
	return func(sp *SpawnSpec) error {
		if bandwidth <= 0 || bandwidth > 1 {
			return fmt.Errorf("selftune: SpawnHint(%v): hint must be in (0,1]", bandwidth)
		}
		sp.Hint = bandwidth
		return nil
	}
}

// OnCore pins the instance to a specific core instead of worst-fit
// placement.
func OnCore(i int) SpawnOption {
	return func(sp *SpawnSpec) error {
		if i < 0 {
			return fmt.Errorf("selftune: OnCore(%d)", i)
		}
		sp.Core = i
		return nil
	}
}

// Tuned attaches a Tuner with the given configuration to the
// spawned workload. The workload must be Tunable (single-task).
func Tuned(cfg TunerConfig) SpawnOption {
	return func(sp *SpawnSpec) error {
		sp.Tuner = &cfg
		return nil
	}
}

// NewWorkloadPlayer builds a Player on the spawn environment's core,
// wiring a nil Sink to the system tracer — the building block for
// custom registered kinds:
//
//	selftune.Register("robot", func(env selftune.Env, spec selftune.SpawnSpec) (selftune.Workload, error) {
//		return selftune.NewWorkloadPlayer(env, myConfig(spec.Name)), nil
//	})
func NewWorkloadPlayer(env Env, cfg PlayerConfig) *Player {
	if cfg.Sink == nil {
		cfg.Sink = env.Tracer
	}
	return workload.NewPlayer(env.Scheduler, env.Rand, cfg)
}

// registry is the process-wide name → factory table.
var registry = struct {
	sync.Mutex
	kinds map[string]Factory
}{kinds: make(map[string]Factory)}

// Register adds a workload kind under the given name, making it
// spawnable on every System via Spawn(name, ...). It panics on an
// empty name or a duplicate registration — both are programming
// errors at package init time.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("selftune: Register with empty name or nil factory")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.kinds[name]; dup {
		panic(fmt.Sprintf("selftune: workload kind %q registered twice", name))
	}
	registry.kinds[name] = f
}

// Kinds returns the registered workload kind names, sorted.
func Kinds() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, 0, len(registry.kinds))
	for k := range registry.kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func lookup(name string) (Factory, bool) {
	registry.Lock()
	defer registry.Unlock()
	f, ok := registry.kinds[name]
	return f, ok
}

// Handle is a spawned workload instance: the workload itself, where it
// was placed, and the tuner managing it (if any).
type Handle struct {
	sys    *System
	kind   string
	core   int
	hint   float64 // placement bandwidth charged for this instance
	ctx    *spawnCtx
	w      Workload
	tuner  *Tuner       // its own (Tuned) or its TuneShared group's
	shared *sharedGroup // non-nil when part of a TuneShared group
}

// Kind returns the registry name the handle was spawned under.
func (h *Handle) Kind() string { return h.kind }

// Name returns the instance name.
func (h *Handle) Name() string { return h.w.Name() }

// Core returns the core the instance was placed on.
func (h *Handle) Core() Core { return h.sys.Core(h.core) }

// Workload returns the spawned instance.
func (h *Handle) Workload() Workload { return h.w }

// Player returns the instance as a *Player, or nil when the workload
// is not player-backed.
func (h *Handle) Player() *Player {
	p, _ := h.w.(*Player)
	return p
}

// Tuner returns the tuner managing the handle: its own (Tuned), its
// shared group's (TuneShared), or nil when the instance is untuned.
func (h *Handle) Tuner() *Tuner { return h.tuner }

// Start begins the workload's activity at the given instant.
func (h *Handle) Start(at Time) { h.w.Start(at) }

// Spawn creates a workload of the named registered kind, places it on
// a core (worst-fit over bandwidth hints unless OnCore pins it), and
// optionally attaches a Tuner:
//
//	h, err := sys.Spawn("video",
//		selftune.SpawnName("mplayer"),
//		selftune.SpawnUtil(0.25),
//		selftune.Tuned(selftune.DefaultTunerConfig()))
//	h.Start(0)
//
// Spawning an unregistered kind is an error naming the known kinds.
func (s *System) Spawn(kind string, opts ...SpawnOption) (*Handle, error) {
	f, ok := lookup(kind)
	if !ok {
		return nil, fmt.Errorf("selftune: unknown workload kind %q (registered: %v)",
			kind, Kinds())
	}
	s.spawnSeq++
	spec := SpawnSpec{
		Kind: kind,
		Name: fmt.Sprintf("%s-%d", kind, s.spawnSeq),
		Core: -1,
	}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&spec); err != nil {
			return nil, err
		}
	}

	// Validate the tuner configuration before placement or factory
	// work: a bad config must not leave a placed hint or an orphan
	// task behind.
	if spec.Tuner != nil {
		if err := spec.Tuner.Validate(); err != nil {
			return nil, fmt.Errorf("selftune: spawn %q: %w", spec.Name, err)
		}
	}
	coreIdx, hint, err := s.place(spec)
	if err != nil && s.bal != nil && spec.Core < 0 {
		// Machine-wide admission: before rejecting, hand the policy an
		// admission snapshot (PendingHint = the hint that failed) so it
		// can plan room-making migrations, then retry placement once.
		if s.runBalancer(PlanAdmissionReason, s.resolveHint(spec)) > 0 {
			coreIdx, hint, err = s.place(spec)
		}
	}
	if err != nil {
		// The machine definitively turned the workload away: worth an
		// event, so capacity planning can count rejects without parsing
		// error strings.
		s.publish(&Event{
			Kind:   AdmissionRejectEvent,
			At:     s.engine.Now(),
			Core:   -1,
			Source: spec.Name,
			Reason: err.Error(),
		})
		return nil, fmt.Errorf("selftune: spawn %q: %w", spec.Name, err)
	}
	// Any failure past this point must return the accepted bandwidth
	// hint, or failed spawns would ratchet up phantom core load until
	// an idle machine rejects real work.
	fail := func(err error) (*Handle, error) {
		s.machine.Release(coreIdx, hint)
		return nil, fmt.Errorf("selftune: spawn %q: %w", spec.Name, err)
	}
	ctx := &spawnCtx{sys: s, core: coreIdx}
	env := Env{
		Core:       s.Core(coreIdx),
		Scheduler:  s.machine.Core(coreIdx),
		Supervisor: s.machine.Supervisor(coreIdx),
		Tracer:     s.tracers[coreIdx],
		Rand:       s.split(),
		Requests:   requestPublisher(ctx, kind, spec.Name),
	}
	w, err := f(env, spec)
	if err != nil {
		return fail(err)
	}
	if w == nil {
		return fail(fmt.Errorf("kind %q factory returned a nil workload", kind))
	}
	h := &Handle{sys: s, kind: kind, core: coreIdx, hint: hint, ctx: ctx, w: w}
	if spec.Tuner != nil {
		tn, ok := w.(Tunable)
		if !ok {
			return fail(fmt.Errorf("kind %q has no single task to tune", kind))
		}
		tuner, err := core.New(s.machine.Core(coreIdx), s.machine.Supervisor(coreIdx),
			s.tracers[coreIdx], tn.Task(), *spec.Tuner)
		if err != nil {
			// The workload never starts: unregister its task so the
			// failed spawn leaves no orphan on the scheduler either.
			s.machine.Core(coreIdx).RemoveTask(tn.Task())
			return fail(err)
		}
		s.startTuner(coreIdx, tuner)
		h.tuner = tuner
	}
	s.handles = append(s.handles, h)
	return h, nil
}

// resolveHint computes the placement bandwidth a spawn is charged:
// the explicit SpawnHint, or one derived from the player config, the
// target utilisation or the kind's default.
func (s *System) resolveHint(spec SpawnSpec) float64 {
	hint := spec.Hint
	if hint <= 0 {
		switch {
		case spec.Player != nil && spec.Player.Period > 0:
			hint = float64(spec.Player.MeanDemand) / float64(spec.Player.Period)
		case spec.Util > 0:
			hint = spec.Util
		case defaultUtil[spec.Kind] > 0:
			hint = defaultUtil[spec.Kind]
		default:
			hint = 0.10
		}
	}
	if hint <= 0 {
		hint = 0.01
	}
	if hint > 1 {
		hint = 1
	}
	return hint
}

// place resolves the spawn's core: pinned via Reserve, or worst-fit
// via Place, both charged with the spec's bandwidth hint. It returns
// the core and the hint actually charged, so a failed spawn can
// Release it.
func (s *System) place(spec SpawnSpec) (int, float64, error) {
	hint := s.resolveHint(spec)
	if spec.Core >= 0 {
		if spec.Core >= s.machine.Cores() {
			return 0, 0, fmt.Errorf("core %d out of [0,%d)", spec.Core, s.machine.Cores())
		}
		if err := s.machine.Reserve(spec.Core, hint); err != nil {
			return 0, 0, err
		}
		return spec.Core, hint, nil
	}
	core, err := s.machine.Place(hint)
	if err != nil {
		return 0, 0, err
	}
	return core, hint, nil
}

// supports rejects spawn options a kind does not honour, so a
// misconfigured spawn fails eagerly instead of silently running a
// different scenario (SpawnHint and OnCore apply to every kind and
// are never rejected).
func (spec SpawnSpec) supports(util, count, player, burst bool) error {
	if !util && spec.Util != 0 {
		return fmt.Errorf("kind %q does not take SpawnUtil (use SpawnHint for placement)", spec.Kind)
	}
	if !count && spec.Count != 0 {
		return fmt.Errorf("kind %q does not take SpawnCount", spec.Kind)
	}
	if !player && spec.Player != nil {
		return fmt.Errorf("kind %q does not take SpawnPlayer", spec.Kind)
	}
	if !burst && spec.Burst != 0 {
		return fmt.Errorf("kind %q does not take SpawnBurst", spec.Kind)
	}
	return nil
}

// defaultUtil records the built-in kinds' default mean utilisation.
// The factories and the placement hint both read it, so spawn-time
// admission charges what the default workload will actually demand.
// Custom kinds without an entry fall back to a 0.10 hint.
var defaultUtil = map[string]float64{
	"video":     0.25,
	"rtload":    0.15,
	"webserver": 0.30,
	"gameloop":  0.20,
	"vmboot":    0.25,
}

// Built-in workload kinds. Every example, test and benchmark drives
// its scenarios through these; registering a new kind is one
// selftune.Register call away.
func init() {
	// "video": the paper's 25 fps GOP-structured player (Figs 13-14,
	// Table 3). SpawnUtil sets its mean CPU utilisation (default 0.25).
	Register("video", func(env Env, spec SpawnSpec) (Workload, error) {
		if err := spec.supports(true, false, false, false); err != nil {
			return nil, err
		}
		util := spec.Util
		if util <= 0 {
			util = defaultUtil["video"]
		}
		cfg := workload.VideoPlayerConfig(spec.Name, util)
		cfg.Sink = env.Tracer
		return workload.NewPlayer(env.Scheduler, env.Rand, cfg), nil
	})

	// "mp3": the paper's 32.5 Hz mp3 player (Figs 6-12), fixed demand.
	Register("mp3", func(env Env, spec SpawnSpec) (Workload, error) {
		if err := spec.supports(false, false, false, false); err != nil {
			return nil, err
		}
		cfg := workload.MP3PlayerConfig(spec.Name)
		cfg.Sink = env.Tracer
		return workload.NewPlayer(env.Scheduler, env.Rand, cfg), nil
	})

	// "player": a player from an explicit PlayerConfig (SpawnPlayer).
	Register("player", func(env Env, spec SpawnSpec) (Workload, error) {
		if err := spec.supports(false, false, true, false); err != nil {
			return nil, err
		}
		if spec.Player == nil {
			return nil, fmt.Errorf("kind \"player\" needs SpawnPlayer(cfg)")
		}
		cfg := *spec.Player
		if cfg.Name == "" {
			cfg.Name = spec.Name
		}
		// Validate here so a malformed config surfaces as a Spawn
		// error instead of workload.NewPlayer's panic.
		if cfg.Period <= 0 {
			return nil, fmt.Errorf("player config: period %v must be positive", cfg.Period)
		}
		if cfg.MeanDemand <= 0 {
			return nil, fmt.Errorf("player config: mean demand %v must be positive", cfg.MeanDemand)
		}
		return NewWorkloadPlayer(env, cfg), nil
	})

	// "rtload": hard periodic background reservations totalling
	// SpawnUtil of the core, split across SpawnCount tasks (Table 3's
	// "some periodic real-time tasks"). Not tunable.
	Register("rtload", func(env Env, spec SpawnSpec) (Workload, error) {
		if err := spec.supports(true, true, false, false); err != nil {
			return nil, err
		}
		util := spec.Util
		if util <= 0 {
			util = defaultUtil["rtload"]
		}
		n := spec.Count
		if n <= 0 {
			n = 1
		}
		return workload.NewBackground(env.Scheduler, env.Rand, spec.Name, util, n), nil
	})

	// "noise": a best-effort Poisson job stream emitting unrelated
	// syscalls — the aperiodic traffic of the analyser experiments.
	Register("noise", func(env Env, spec SpawnSpec) (Workload, error) {
		if err := spec.supports(false, false, false, false); err != nil {
			return nil, err
		}
		return workload.NewNoise(env.Scheduler, env.Rand, spec.Name,
			50*Millisecond, 2*Millisecond, env.Tracer), nil
	})

	// "transcoder": the ffmpeg-like batch job of the tracer-overhead
	// measurement (Table 1).
	Register("transcoder", func(env Env, spec SpawnSpec) (Workload, error) {
		if err := spec.supports(false, false, false, false); err != nil {
			return nil, err
		}
		cfg := workload.DefaultTranscoderConfig(spec.Name)
		cfg.Sink = env.Tracer
		cfg.OnRequest = env.Requests
		return workload.NewTranscoder(env.Scheduler, env.Rand, cfg), nil
	})

	// "gameloop": a fixed-frame-rate game loop — 60 FPS frames on a
	// rigid release grid, each with a hard deadline at the next frame
	// and a per-frame service demand jittered ±35% around SpawnUtil of
	// the core (scene complexity). The deadline-sensitive scenario of
	// the balancing experiments: every frame stranded on an overloaded
	// core is a visible miss.
	Register("gameloop", func(env Env, spec SpawnSpec) (Workload, error) {
		if err := spec.supports(true, false, false, false); err != nil {
			return nil, err
		}
		cfg := workload.DefaultGameLoopConfig(spec.Name)
		util := spec.Util
		if util <= 0 {
			util = defaultUtil["gameloop"]
		}
		cfg.MeanDemand = Duration(util * float64(cfg.FramePeriod))
		cfg.Sink = env.Tracer
		cfg.OnRequest = env.Requests
		return workload.NewGameLoop(env.Scheduler, env.Rand, cfg), nil
	})

	// "vmboot": a booting virtual machine — a staged demand ramp
	// (firmware, a saturating kernel burst, service startup) over the
	// first ~1.2s, then steady state at SpawnUtil of the core. The
	// heavyweight tenant of the cluster scenarios: scaling a realm out
	// means riding a boot storm before the capacity earns its keep.
	Register("vmboot", func(env Env, spec SpawnSpec) (Workload, error) {
		if err := spec.supports(true, false, false, false); err != nil {
			return nil, err
		}
		util := spec.Util
		if util <= 0 {
			util = defaultUtil["vmboot"]
		}
		cfg := workload.DefaultVMBootConfig(spec.Name, util)
		cfg.Sink = env.Tracer
		cfg.OnRequest = env.Requests
		return workload.NewVMBoot(env.Scheduler, env.Rand, cfg), nil
	})

	// "webserver": a bursty request server — exponential think times
	// between arrival bursts, a geometric number of back-to-back
	// requests per burst (SpawnBurst), exponential service demand
	// scaled so the mean utilisation hits SpawnUtil. The heavy-traffic
	// scenario of the telemetry charts.
	Register("webserver", func(env Env, spec SpawnSpec) (Workload, error) {
		if err := spec.supports(true, false, false, true); err != nil {
			return nil, err
		}
		cfg := workload.DefaultWebServerConfig(spec.Name)
		if spec.Burst > 0 {
			cfg.Burst = spec.Burst
		}
		util := spec.Util
		if util <= 0 {
			util = defaultUtil["webserver"]
		}
		// util = Burst * MeanService / MeanThink on average; solve for
		// the per-request service demand.
		cfg.MeanService = Duration(util * float64(cfg.MeanThink) / float64(cfg.Burst))
		cfg.Sink = env.Tracer
		cfg.OnRequest = env.Requests
		return workload.NewWebServer(env.Scheduler, env.Rand, cfg), nil
	})
}
