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
	"repro/internal/workpool"
)

// System is a ready-to-use simulated machine: engine, one or more
// scheduling cores with their supervisors, and syscall tracers. Build
// one with NewSystem and functional options, spawn workloads from the
// registry, and watch it through Subscribe.
type System struct {
	engine  *sim.Engine
	machine *smp.Machine
	rand    *rng.Source

	// Per-core tables: the engine core i's scheduler, workloads and
	// tuner schedule on, and the syscall tracer its workloads record
	// into and its tuner downloads from. On a single-engine System
	// every entry aliases engine and one shared tracer. On a laned one
	// (WithCoreParallelism) each core has its own engine lane and
	// tracer, and engine is the control engine carrying the balancer
	// tick, the load sampler and the fence schedule.
	engines []*sim.Engine
	tracers []*ktrace.Buffer

	// Laned mode only (nil on a single-engine System): the lanes (the
	// engines table itself), the pool of workers advancing them
	// concurrently between causality fences, and the per-lane staged
	// observer events, published at the next fence. Each lane writes
	// only its own stage, and control-phase stagings run with the lanes
	// at rest, so staging needs no lock. advance runs lane i up to
	// fenceAt; it is built once, so crossing a fence allocates nothing.
	lanes   []*sim.Engine
	pool    *workpool.Pool
	stages  []Stage
	fences  uint64
	fenceAt Time
	advance func(int)

	loadSample Duration
	obsMu      sync.Mutex // guards observers and samplerOn
	samplerOn  bool
	observers  []*subscription

	bal      *balancer
	migrated int // units moved across cores

	handles  []*Handle
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
		engines:    make([]*sim.Engine, o.cpus),
		tracers:    make([]*ktrace.Buffer, o.cpus),
	}
	if o.coreParallel > 0 {
		for i := range s.engines {
			s.engines[i] = sim.New()
			s.tracers[i] = ktrace.NewBuffer(ktrace.QTrace, o.tracerCap)
		}
		s.lanes = s.engines
		s.pool = workpool.New(min(o.coreParallel, o.cpus))
		s.stages = make([]Stage, o.cpus)
		s.advance = func(i int) { s.lanes[i].RunUntil(s.fenceAt) }
	} else {
		tracer := ktrace.NewBuffer(ktrace.QTrace, o.tracerCap)
		for i := range s.engines {
			s.engines[i], s.tracers[i] = eng, tracer
		}
	}
	s.machine = smp.New(s.engines, o.ulub, o.pidOffset)
	if o.topoSet {
		topo := o.topo
		if topo.Empty() {
			topo = smp.Uniform(o.cpus, smp.DefaultNodeCores)
		}
		if err := s.machine.SetTopology(topo); err != nil {
			return nil, fmt.Errorf("selftune: WithTopology: %w", err)
		}
	}
	// Every core's exhaustion slot feeds the observer bus; a no-op
	// until someone subscribes.
	for i := 0; i < s.machine.Cores(); i++ {
		s.machine.Core(i).SetExhaustBus(func(srv *sched.Server, now Time) {
			s.emit(i, Event{Kind: BudgetExhaustedEvent, Core: i, Source: srv.Name()})
		})
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

// emit stamps e with core's engine time and delivers it. On a laned
// System the event fired mid-epoch, while other lanes run
// concurrently, so it is staged on the core's own lane and published
// at the next fence; a single-engine System publishes it at once.
func (s *System) emit(core int, e Event) {
	e.At = s.engines[core].Now()
	if s.lanes != nil {
		s.stages[core].Observe(e)
		return
	}
	s.publish(e)
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
func (s *System) Tracer() *Tracer {
	if s.lanes != nil {
		return nil
	}
	return s.tracers[0]
}

// CoreTracer returns core i's syscall tracer: the per-core buffer in
// laned mode, the shared system-wide buffer otherwise.
func (s *System) CoreTracer(i int) *Tracer { return s.tracers[i] }

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
// rest. Each lane's events are closed over the lane — its callbacks
// schedule on, and read state reachable from, that lane only — so
// seeded runs are byte-identical at any worker count: workers change
// the wall-clock moment a lane runs at, never what it computes.
func (s *System) Run(horizon Duration) {
	if s.lanes == nil {
		s.engine.RunUntil(s.engine.Now().Add(horizon))
		return
	}
	end := s.engine.Now().Add(horizon)
	for {
		next := end
		if p := s.engine.Peek(); p < next {
			next = p
		}
		s.fenceAt = next
		s.pool.Run(len(s.lanes), s.advance)
		s.fences++
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
	for _, l := range s.lanes {
		n += l.Steps()
	}
	return n
}

// Fences returns how many causality epochs Run has completed (0 on a
// single-engine System, which has no fences to cross).
func (s *System) Fences() uint64 { return s.fences }

// Workers returns how many goroutines advance the machine's lanes (1
// on a single-engine System).
func (s *System) Workers() int { return s.pool.Workers() }

// Close releases the worker pool of a laned System. Idempotent; a
// no-op on a single-engine System. The System is unusable after.
func (s *System) Close() { s.pool.Close() }

// Handles returns every workload spawned so far, in spawn order.
func (s *System) Handles() []*Handle { return s.handles }

// tickPublisher returns the BusTick hook that routes a tuner's
// activation snapshots onto the observer bus. The hook is rebuilt
// whenever the tuner rehomes, so coreIdx is always the tuner's current
// core.
func (s *System) tickPublisher(coreIdx int, source string) func(TunerSnapshot) {
	return func(snap TunerSnapshot) {
		s.emit(coreIdx, Event{Kind: TunerTickEvent, Core: coreIdx, Source: source, Snapshot: snap})
	}
}

// spawnCtx tracks where a spawned instance's request events go.
// Request publishers are buried inside workload configs and cannot be
// rebuilt on migration, so they read the System and core through this
// indirection. Only a move that changes the workload's engine or
// tracer updates it (carryLane): a laned migration updates the core
// and a cross-machine Transfer both, so events stage on (and report)
// the machine and lane actually executing the workload. A migration
// within a single-engine System leaves the spawn core in place.
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
func requestPublisher(ctx *spawnCtx, kind, source string) RequestObserver {
	return func(r Request) {
		ctx.sys.emit(ctx.core, Event{
			Kind:     RequestCompleteEvent,
			Core:     ctx.core,
			Source:   source,
			Workload: kind,
			Latency:  r.Latency,
			Deadline: r.Deadline,
			Missed:   r.Missed,
		})
	}
}

// startTuner wires a new tuner on the given core into the observer
// bus and starts it.
func (s *System) startTuner(coreIdx int, tuner *Tuner) {
	tuner.BusTick = s.tickPublisher(coreIdx, tuner.Task().Name())
	tuner.Start()
}

// TuneShared places the tasks of several player-backed handles — the
// threads of one application — into a single shared reservation with
// the given fixed priorities (lower value = higher priority;
// rate-monotonic assignment is the sensible default) and manages it
// with one Tuner (core.NewShared). All handles must live on the same
// core. The handles become one shared group: they migrate together,
// as one unit, with the tuner rehoming on arrival.
func (s *System) TuneShared(handles []*Handle, prios []int, cfg TunerConfig) (*Tuner, error) {
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
		if h.tuner != nil {
			return nil, fmt.Errorf("selftune: workload %q is already tuned", h.Name())
		}
		tn, ok := h.w.(Tunable)
		if !ok {
			return nil, fmt.Errorf("selftune: workload %q (%s) has no single task to tune",
				h.Name(), h.Kind())
		}
		tasks[i] = tn.Task()
	}
	tuner, err := core.NewShared(s.machine.Core(coreIdx), s.machine.Supervisor(coreIdx),
		s.tracers[coreIdx], tasks, prios, cfg)
	if err != nil {
		return nil, err
	}
	s.startTuner(coreIdx, tuner)
	grp := &sharedGroup{handles: append([]*Handle(nil), handles...)}
	for _, h := range handles {
		h.tuner, h.shared = tuner, grp
	}
	return tuner, nil
}

// split hands out a private deterministic rng stream.
func (s *System) split() *rng.Source { return s.rand.Split() }
