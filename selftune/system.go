package selftune

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ktrace"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/smp"
)

// System is a ready-to-use simulated machine: engine, one or more
// scheduling cores with their supervisors, and a shared syscall
// tracer. Build one with NewSystem and functional options, spawn
// workloads from the registry, and watch it through Subscribe.
type System struct {
	engine  *sim.Engine
	machine *smp.Machine
	tracer  *ktrace.Buffer
	rand    *rng.Source

	// Core-parallel (laned) mode, enabled by WithCoreParallelism: each
	// core runs on its own engine lane, advanced concurrently between
	// causality fences; s.engine becomes the control engine carrying
	// the balancer tick, the load sampler and the fence schedule.
	// All nil/empty on a single-engine System.
	lanes    []*sim.Engine
	group    *sim.EngineGroup
	laneBufs []*ktrace.Buffer // per-core tracers
	// Per-lane staged observer events, published at the next fence.
	// Each lane writes only its own stage, and control-phase stagings
	// run with the lanes at rest, so staging needs no lock.
	stages []Stage

	loadSample Duration
	obsMu      sync.Mutex // guards observers and samplerOn
	samplerOn  bool
	observers  []*subscription

	bal      *balancer
	migrated int // units moved across cores

	handles  []*Handle
	groups   []*sharedGroup
	spawnSeq int

	// Reused hot-path buffers: the load sampler's per-core sample, the
	// balancer's unit enumeration and snapshot slices (rebuilt every
	// balance tick), and execute's per-destination staging. All are
	// touched only from the simulation goroutine.
	sampleBuf    []float64
	unitsGen     uint64
	unitsBuf     []*migUnit
	domainMap    []int // cached; the topology is fixed at construction
	snapLoads    []float64
	snapReserved []float64
	snapULub     []float64
	snapUnits    []Unit
	perDest      [][]plannedMove
	destOrder    []int
	takenBuf     []bool
}

// NewSystem builds a System from functional options:
//
//	sys, err := selftune.NewSystem(
//		selftune.WithSeed(1),
//		selftune.WithCPUs(4),
//		selftune.WithULub(0.95),
//	)
//
// With no options it is the paper's machine: one CPU, U_lub = 1, a
// 64Ki-event tracer, seed 0.
func NewSystem(opts ...Option) (*System, error) {
	o := defaultOptions()
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	eng := sim.New()
	s := &System{
		engine:     eng,
		rand:       rng.New(o.seed),
		loadSample: o.loadSample,
	}
	if o.coreParallel > 0 {
		s.lanes = make([]*sim.Engine, o.cpus)
		s.laneBufs = make([]*ktrace.Buffer, o.cpus)
		for i := range s.lanes {
			s.lanes[i] = sim.New()
			s.laneBufs[i] = ktrace.NewBuffer(ktrace.QTrace, o.tracerCap)
		}
		s.group = sim.NewGroup(s.lanes, o.coreParallel)
		s.machine = smp.NewLanedOffset(s.lanes, o.ulub, o.pidOffset)
		s.stages = make([]Stage, o.cpus)
	} else {
		s.machine = smp.NewOffset(eng, o.cpus, o.ulub, o.pidOffset)
		s.tracer = ktrace.NewBuffer(ktrace.QTrace, o.tracerCap)
	}
	if o.topoSet {
		topo := o.topo
		if topo.Empty() {
			topo = smp.Uniform(o.cpus, smp.DefaultNodeCores)
		}
		if err := s.machine.SetTopology(topo); err != nil {
			return nil, fmt.Errorf("selftune: WithTopology: %w", err)
		}
	}
	for i := 0; i < s.machine.Cores(); i++ {
		s.installExhaustHook(i)
	}
	if o.balancer != nil {
		s.bal = &balancer{
			sys:       s,
			policy:    o.balancer,
			every:     o.balanceEvery,
			threshold: o.imbalance,
		}
		s.bal.start()
	}
	return s, nil
}

// installExhaustHook points core i's exhaustion bus slot at the
// observer bus (the user-facing SetExhaustHook slot stays free). The
// hook is a no-op until someone subscribes. In laned mode the event is
// staged on the core's own lane — exhaustions fire mid-epoch, while
// other lanes run concurrently — and delivered at the next fence.
func (s *System) installExhaustHook(i int) {
	core := i
	if s.group != nil {
		lane := s.lanes[i]
		s.machine.Core(i).SetExhaustBus(func(srv *sched.Server, now Time) {
			s.stages[core].Observe(Event{
				Kind:   BudgetExhaustedEvent,
				At:     lane.Now(),
				Core:   core,
				Source: srv.Name(),
			})
		})
		return
	}
	s.machine.Core(i).SetExhaustBus(func(srv *sched.Server, now Time) {
		s.publish(Event{
			Kind:   BudgetExhaustedEvent,
			At:     s.engine.Now(),
			Core:   core,
			Source: srv.Name(),
		})
	})
}

// Core is one CPU of the System: an EDF+CBS scheduler and the
// supervisor enforcing its bandwidth bound.
type Core struct {
	// Index is the core's position in [0, System.CPUs()).
	Index int
	sys   *System
}

// Scheduler returns the core's scheduling substrate.
func (c Core) Scheduler() *Scheduler { return c.sys.machine.Core(c.Index) }

// Supervisor returns the core's bandwidth supervisor.
func (c Core) Supervisor() *Supervisor { return c.sys.machine.Supervisor(c.Index) }

// Load returns the core's effective load: the larger of the placement
// hints accepted for it and its actually reserved bandwidth.
func (c Core) Load() float64 { return c.sys.machine.Load(c.Index) }

// Domain returns the index of the cache/NUMA domain the core belongs
// to (0 on a machine without WithTopology).
func (c Core) Domain() int { return c.sys.machine.DomainOf(c.Index) }

// CPUs returns the number of cores.
func (s *System) CPUs() int { return s.machine.Cores() }

// Core returns core i.
func (s *System) Core(i int) Core {
	if i < 0 || i >= s.machine.Cores() {
		panic(fmt.Sprintf("selftune: core %d out of [0,%d)", i, s.machine.Cores()))
	}
	return Core{Index: i, sys: s}
}

// Machine exposes the underlying multiprocessor, for placement-aware
// callers (per-core loads, total utilisation).
func (s *System) Machine() *smp.Machine { return s.machine }

// Topology returns the machine's cache/NUMA domain grouping (the zero
// value — a single implicit domain — unless WithTopology set one).
func (s *System) Topology() Topology { return s.machine.Topology() }

// Tracer exposes the system-wide syscall tracer. In laned mode
// (WithCoreParallelism) there is no shared buffer — every core traces
// into its own, reachable via CoreTracer — and Tracer returns nil.
func (s *System) Tracer() *Tracer { return s.tracer }

// CoreTracer returns core i's syscall tracer: the per-core buffer in
// laned mode, the shared system-wide buffer otherwise.
func (s *System) CoreTracer(i int) *Tracer { return s.tracerFor(i) }

// tracerFor resolves the buffer workloads and tuners of core i record
// into and download from.
func (s *System) tracerFor(core int) *ktrace.Buffer {
	if s.group != nil {
		return s.laneBufs[core]
	}
	return s.tracer
}

// engineFor resolves the engine core i's timers schedule on: the
// core's own lane in laned mode, the shared engine otherwise.
func (s *System) engineFor(core int) *sim.Engine {
	if s.group != nil {
		return s.lanes[core]
	}
	return s.engine
}

// Clock is a simulated time source: the current instant, and
// callbacks scheduled relative to it.
type Clock interface {
	// Now returns the current instant.
	Now() Time
	// After schedules fn to run d from now.
	After(d Duration, fn func())
}

// engineClock is a Clock reading the simulation engine.
type engineClock struct{ eng *sim.Engine }

func (c engineClock) Now() Time                   { return c.eng.Now() }
func (c engineClock) After(d Duration, fn func()) { c.eng.After(d, fn) }

// Clock returns the System's simulated clock: its engine, which stamps
// every observer event and paces the balancer and the load sampler.
func (s *System) Clock() Clock { return engineClock{s.engine} }

// Now returns the current simulated instant.
func (s *System) Now() Time { return s.engine.Now() }

// Run advances the simulation until the given horizon.
//
// In laned mode (WithCoreParallelism) Run is a sequence of causality
// epochs: the per-core lanes advance concurrently — lock-free, each on
// its own engine — up to the next causality fence, where they barrier
// at the same simulated instant and every cross-core effect applies in
// a deterministic order. Fences sit exactly where machine-wide state
// is touched: at every control-engine event (balancer ticks, load
// samples — anything scheduled on the control engine) and at the
// horizon. Each lane stages its observer events in its own Stage;
// DrainMerged publishes them at the fence in timestamp order, ties
// broken by lane index and staging order, then the control engine runs,
// migrating reservations and re-arming lane timers while the lanes
// rest. Seeded runs are byte-identical at any worker count.
func (s *System) Run(horizon Duration) {
	if s.group == nil {
		s.engine.RunUntil(s.engine.Now().Add(horizon))
		return
	}
	end := s.engine.Now().Add(horizon)
	for {
		next := end
		if p := s.engine.Peek(); p < next {
			next = p
		}
		s.group.AdvanceTo(next)
		DrainMerged(s.stages, s.publish)
		s.engine.RunUntil(next)
		if next >= end {
			return
		}
	}
}

// Steps returns the total number of simulation events executed: the
// control engine's plus, in laned mode, every lane's.
func (s *System) Steps() uint64 {
	n := s.engine.Steps()
	if s.group != nil {
		n += s.group.Steps()
	}
	return n
}

// Fences returns how many causality epochs Run has completed (0 on a
// single-engine System, which has no fences to cross).
func (s *System) Fences() uint64 {
	if s.group == nil {
		return 0
	}
	return s.group.Fences()
}

// Workers returns how many goroutines advance the machine's lanes (1
// on a single-engine System).
func (s *System) Workers() int {
	if s.group == nil {
		return 1
	}
	return s.group.Workers()
}

// Close releases the worker pool of a laned System. Idempotent; a
// no-op on a single-engine System. The System is unusable after.
func (s *System) Close() {
	if s.group != nil {
		s.group.Close()
	}
}

// Handles returns every workload spawned so far, in spawn order.
func (s *System) Handles() []*Handle { return s.handles }

// tickPublisher returns the OnTick hook that routes a tuner's
// activation snapshots onto the observer bus. Tuner ticks run on the
// core's own lane in laned mode, so the event is staged there and
// published at the next fence; the balancer rebuilds the hook on
// migration, so coreIdx is always the tuner's current core.
func (s *System) tickPublisher(coreIdx int, source string) func(TunerSnapshot) {
	return func(snap TunerSnapshot) {
		e := Event{
			Kind:     TunerTickEvent,
			At:       s.engine.Now(),
			Core:     coreIdx,
			Source:   source,
			Snapshot: snap,
		}
		if s.group != nil {
			e.At = s.lanes[coreIdx].Now()
			s.stages[coreIdx].Observe(e)
			return
		}
		s.publish(e)
	}
}

// spawnCtx tracks where a spawned instance currently runs. Request
// publishers are buried inside workload configs and cannot be rebuilt
// on migration, so they read the System and core through this
// indirection. On a single-engine System the core is never updated —
// Event.Core keeps its documented spawn-time semantics — while laned
// migrations update the core, and cross-machine live transfers update
// the System, so events stage on (and report) the machine and lane
// actually executing the workload.
type spawnCtx struct {
	sys  *System
	core int
}

// requestPublisher returns the RequestObserver that routes one spawned
// instance's completed requests onto the observer bus. Publishing with
// no subscribers is a near-free early return, so every request-shaped
// spawn gets one unconditionally. The System is resolved through ctx
// at publish time, so a live cross-machine transfer re-routes the
// stream to the destination's bus without rebuilding the workload's
// config.
func (s *System) requestPublisher(ctx *spawnCtx, kind, source string) RequestObserver {
	return func(r Request) {
		sys := ctx.sys
		e := Event{
			Kind:     RequestCompleteEvent,
			At:       sys.engine.Now(),
			Core:     ctx.core,
			Source:   source,
			Workload: kind,
			Latency:  r.Latency,
			Deadline: r.Deadline,
			Missed:   r.Missed,
		}
		if sys.group != nil {
			e.At = sys.lanes[ctx.core].Now()
			sys.stages[ctx.core].Observe(e)
			return
		}
		sys.publish(e)
	}
}

// attachTuner builds an AutoTuner for task on the given core, wires
// its snapshots into the observer bus and starts it.
func (s *System) attachTuner(coreIdx int, task *Task, cfg TunerConfig) (*AutoTuner, error) {
	tuner, err := core.New(s.machine.Core(coreIdx), s.machine.Supervisor(coreIdx),
		s.tracerFor(coreIdx), task, cfg)
	if err != nil {
		return nil, err
	}
	tuner.BusTick = s.tickPublisher(coreIdx, task.Name())
	tuner.Start()
	return tuner, nil
}

// TuneShared places the tasks of several player-backed handles — the
// threads of one application — into a single shared reservation with
// the given fixed priorities (lower value = higher priority;
// rate-monotonic assignment is the sensible default) and manages it
// with a MultiTuner. All handles must live on the same core. The
// handles become one shared group: they migrate together, as one
// unit, with the MultiTuner rehoming on arrival.
func (s *System) TuneShared(handles []*Handle, prios []int, cfg TunerConfig) (*MultiTuner, error) {
	if len(handles) == 0 {
		return nil, fmt.Errorf("selftune: TuneShared needs at least one handle")
	}
	coreIdx := handles[0].core
	tasks := make([]*sched.Task, len(handles))
	for i, h := range handles {
		if h.sys != s {
			return nil, fmt.Errorf("selftune: TuneShared of a handle from another System")
		}
		if h.core != coreIdx {
			return nil, fmt.Errorf("selftune: TuneShared across cores %d and %d", coreIdx, h.core)
		}
		if h.tuner != nil || h.shared != nil {
			return nil, fmt.Errorf("selftune: workload %q is already tuned", h.Name())
		}
		tn, ok := h.w.(Tunable)
		if !ok {
			return nil, fmt.Errorf("selftune: workload %q (%s) has no single task to tune",
				h.Name(), h.Kind())
		}
		tasks[i] = tn.Task()
	}
	tuner, err := s.attachMultiTuner(coreIdx, tasks, prios, cfg)
	if err != nil {
		return nil, err
	}
	grp := &sharedGroup{
		handles: append([]*Handle(nil), handles...),
		tuner:   tuner,
		core:    coreIdx,
	}
	for _, h := range handles {
		h.shared = grp
	}
	s.groups = append(s.groups, grp)
	return tuner, nil
}

// attachMultiTuner builds a MultiTuner for the tasks on the given
// core, wires its snapshots into the observer bus and starts it.
func (s *System) attachMultiTuner(coreIdx int, tasks []*sched.Task, prios []int, cfg TunerConfig) (*MultiTuner, error) {
	tuner, err := core.NewMulti(s.machine.Core(coreIdx), s.machine.Supervisor(coreIdx),
		s.tracerFor(coreIdx), tasks, prios, cfg)
	if err != nil {
		return nil, err
	}
	tuner.BusTick = s.tickPublisher(coreIdx, tasks[0].Name())
	tuner.Start()
	return tuner, nil
}

// split hands out a private deterministic rng stream.
func (s *System) split() *rng.Source { return s.rand.Split() }
