// Package cluster lifts the reproduction from one machine to a fleet:
// a Cluster owns N selftune.System instances (each a full multi-core
// Machine with its own schedulers, supervisors, balancer and
// topology), slices fleet capacity into tenant realms, drives each
// realm with an open-loop Poisson arrival stream over registered
// workload kinds, admits or queues arrivals through a front-end queue
// manager, re-places work across machines through a ClusterBalancer,
// and adapts each realm's reservation with an autoscaler — the
// paper's adaptive-reservation loop one level up, where the resource
// is the fleet and the budget is a tenant's capacity slice.
//
// Time: every machine is laned (selftune.WithCoreParallelism): each of
// its cores runs its own discrete-event engine lane, advanced between
// the machine's causality fences. The Cluster advances the machines in
// deterministic lockstep ticks of 100ms: each tick it processes
// departures, runs the fleet balancer, generates arrivals, drains
// queues, runs the autoscaler, folds cluster telemetry, and then
// advances every machine to the tick boundary. Cluster control
// therefore operates at tick granularity — service times quantise up
// to the next boundary — while the machines simulate at full event
// resolution in between.
//
// Parallelism: the machines of one tick are independent — they share
// no mutable state between tick boundaries — so WithParallelism(n)
// advances them on a bounded worker pool (default GOMAXPROCS); the
// worker that takes a machine advances all of its lanes. Cross-machine
// effects are confined to the serial control phase, and the machine
// event streams the cluster folds (WithMachineTelemetry,
// WithRequestStats) collect in one selftune.Stage per machine, drained
// in machine-index order at the tick barrier, so a seeded run is
// byte-identical at every parallelism level.
//
// Scale: WithDetail(n) bounds fidelity cost. Jobs landing on the
// first n machines are Started — their workloads release real jobs,
// their tuners and balancers act, their event streams flow — while
// jobs on the remaining machines are placed (admission control,
// capacity accounting, migration targets) but never Started. A
// hundreds-of-machines fleet stays cheap, with full-fidelity machines
// as a detailed core sample.
//
// Telemetry folds into the existing Collector unchanged by mapping
// cluster concepts onto the machine-scope event vocabulary: machines
// play cores in the load samples (one CoreLoadEvent per tick, entry i
// = machine i's mean core load), a realm's reservation trajectory is
// published as TunerTickEvents (Source = realm, Requested = demand,
// Granted = reservation, Detected = queue depth), queued arrivals as
// BudgetExhaustedEvents, queue-full rejections as
// AdmissionRejectEvents, and fleet re-placements as MigrationEvents
// with FromMachine/ToMachine set and Live marking whether the move
// carried CBS state across (a live Transfer) or respawned the job.
// Every CSV, trace and report sink works on a cluster Snapshot exactly
// as on a machine one.
package cluster

import (
	"cmp"
	"container/heap"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/rng"
	"repro/internal/smp"
	"repro/internal/workpool"
	"repro/selftune"
	"repro/selftune/telemetry"
)

// options collects the configuration assembled by functional options.
type options struct {
	seed        uint64
	machines    int
	cores       int
	detail      int
	parallel    int // 0 = GOMAXPROCS
	fleetBal    ClusterBalancer
	fleetEvery  selftune.Duration
	scaler      *AutoscalerConfig
	colOpts     []telemetry.CollectorOption
	machineTel  bool
	machineColO []telemetry.CollectorOption
	reqStats    bool
}

func defaultClusterOptions() options {
	return options{
		machines:   4,
		cores:      8,
		detail:     1,
		fleetEvery: 500 * selftune.Millisecond,
	}
}

// Option configures a Cluster under construction.
type Option func(*options) error

// WithSeed makes the whole fleet deterministic: machine seeds and
// every realm's arrival stream derive from it.
func WithSeed(seed uint64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithMachines sets the fleet size (default 4).
func WithMachines(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("cluster: WithMachines(%d): need at least one machine", n)
		}
		o.machines = n
		return nil
	}
}

// WithCores sets every machine's core count (default 8; the fleet is
// homogeneous). Every core runs at U_lub 1, machines of more than 8
// cores that 8 divides group them into cache/NUMA nodes of 8
// (selftune.WithTopology), and no machine balances across its cores:
// placement within a machine stays where spawn put it.
func WithCores(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("cluster: WithCores(%d): need at least one core", n)
		}
		o.cores = n
		return nil
	}
}

// WithDetail runs the spawned workloads on the first n machines at
// full event fidelity (Start, tuners, balancers, observable event
// streams); jobs on the remaining machines are placement-only.
// Default 1; 0 makes the whole fleet placement-only, n >= machines
// makes it fully detailed.
func WithDetail(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("cluster: WithDetail(%d)", n)
		}
		o.detail = n
		return nil
	}
}

// WithFleetBalancer installs a cross-machine re-placement policy,
// planned every WithFleetBalanceInterval (default 500ms).
func WithFleetBalancer(b ClusterBalancer) Option {
	return func(o *options) error {
		o.fleetBal = b
		return nil
	}
}

// WithFleetBalanceInterval sets how often the fleet balancer plans
// (default 500ms; rounded up to whole ticks).
func WithFleetBalanceInterval(d selftune.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("cluster: WithFleetBalanceInterval(%v): interval must be positive", d)
		}
		o.fleetEvery = d
		return nil
	}
}

// WithAutoscaler turns on the per-realm reservation controller. The
// zero config selects DefaultAutoscalerConfig.
func WithAutoscaler(cfg AutoscalerConfig) Option {
	return func(o *options) error {
		if err := cfg.validate(); err != nil {
			return err
		}
		o.scaler = &cfg
		return nil
	}
}

// WithTelemetry passes options to the cluster-scope telemetry
// Collector (series capacity, SLOs).
func WithTelemetry(opts ...telemetry.CollectorOption) Option {
	return func(o *options) error {
		o.colOpts = append(o.colOpts, opts...)
		return nil
	}
}

// WithParallelism advances the machine engines of each lockstep tick
// on a bounded pool of n worker goroutines (default GOMAXPROCS,
// capped at the fleet size). Machines share no mutable state between
// tick boundaries and all cross-machine effects are staged and
// applied in machine-index order at the tick barrier, so a seeded run
// produces byte-identical telemetry for every parallelism level.
// WithParallelism(1) forces the serial advance. n < 1 is an error.
//
// Observers subscribed to an individual machine (telemetry.Attach on
// Machine(i)) receive that machine's events on whichever worker
// advances it; one observer attached to several machines would be
// called concurrently — feed a shared collector through
// WithMachineTelemetry instead, which stages each machine's events in
// its own selftune.Stage and drains them in index order at the
// barrier.
func WithParallelism(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("cluster: WithParallelism(%d): need at least one worker", n)
		}
		o.parallel = n
		return nil
	}
}

// WithMachineTelemetry attaches one cluster-owned Collector (reached
// via MachineCollector) to every machine's observer bus through a
// per-machine selftune.Stage: each machine's events collect lock-free
// while the engines advance — possibly concurrently, under
// WithParallelism — and the stages drain into the collector in
// machine-index order at every tick barrier. The folded state is
// therefore identical, byte for byte, for any parallelism level. The
// options configure the collector (series capacity, SLOs).
func WithMachineTelemetry(opts ...telemetry.CollectorOption) Option {
	return func(o *options) error {
		o.machineTel = true
		o.machineColO = append(o.machineColO, opts...)
		return nil
	}
}

// WithRequestStats folds the request-level latency stream of the
// detail machines into the cluster-scope Collector (request groups,
// WithTelemetry-installed SLOs, all the existing sinks), the fleet's
// one store of request statistics: per-realm latency distributions,
// deadline-miss counts and SLO scoring (RealmConfig.SLO) surface from
// it in RealmStats and FleetSnapshot, the fleet-wide totals through
// FleetRequests and FleetLatency. Only machines inside the WithDetail
// window Start their workloads, so only they produce completions — the
// stats are a full-fidelity core sample, not a whole-fleet census. Off
// by default: subscribing an observer starts each detail machine's
// load sampler, which perturbs the event count of runs that never
// asked for it.
//
// Completions stage per machine while the engines advance — possibly
// concurrently, under WithParallelism — and fold in machine-index
// order at every tick barrier, so seeded runs produce byte-identical
// latency histograms at every parallelism level.
func WithRequestStats() Option {
	return func(o *options) error {
		o.reqStats = true
		return nil
	}
}

// job is one admitted request; a nil handle marks it departed.
type job struct {
	id      int
	realm   *Realm
	spec    int
	name    string
	hint    float64
	machine int
	handle  *selftune.Handle
	depart  selftune.Time
}

// departHeap orders resident jobs by departure instant (job id breaks
// ties deterministically).
type departHeap []*job

func (h departHeap) Len() int { return len(h) }
func (h departHeap) Less(i, j int) bool {
	if h[i].depart != h[j].depart {
		return h[i].depart < h[j].depart
	}
	return h[i].id < h[j].id
}
func (h departHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *departHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *departHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Cluster is a fleet of Machines serving tenant realms.
type Cluster struct {
	opt      options
	machines []*selftune.System
	mused    []float64 // per-machine sum of resident jobs' hints
	mcap     float64   // per-machine capacity, core-equivalents
	rand     *rng.Source
	col      *telemetry.Collector
	parallel int            // advance workers per tick
	pool     *workpool.Pool // persistent tick-advance workers
	// advanceMachine runs machine i up to tickAt, the boundary of the
	// tick being advanced; it is built once, so a tick allocates
	// nothing to advance the fleet.
	tickAt         selftune.Time
	advanceMachine func(int)

	// Machine event staging: stage i subscribes to machine i — every
	// machine under WithMachineTelemetry, the detail machines under
	// WithRequestStats alone — and the barrier drains the stages in
	// index order into mcol and the request fold.
	stages []selftune.Stage
	mcol   *telemetry.Collector

	realms      []*Realm
	realmByName map[string]*Realm

	now   selftune.Time
	tickN int

	jobSeq  int
	active  []*job // resident jobs, ascending by ID
	departQ departHeap

	fleetEveryTicks int
	scaleEveryTicks int
	replacements    int
	liveMoves       int // of them, executed as live Transfers

	// Reused per-tick buffers: the fleet balancer's snapshot, its
	// per-destination batch counts and reasons, and the load-fold
	// sample.
	snapBuf       FleetSnapshot
	perDestBuf    []int
	perDestReason []string
	loadsBuf      []float64
	coreLoadBuf   []float64
}

// New builds a Cluster from functional options:
//
//	c, err := cluster.New(
//		cluster.WithSeed(1),
//		cluster.WithMachines(100),
//		cluster.WithCores(64),
//		cluster.WithAutoscaler(cluster.DefaultAutoscalerConfig()),
//	)
func New(opts ...Option) (*Cluster, error) {
	o := defaultClusterOptions()
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.detail > o.machines {
		o.detail = o.machines
	}
	c := &Cluster{
		opt:         o,
		machines:    make([]*selftune.System, o.machines),
		mused:       make([]float64, o.machines),
		mcap:        float64(o.cores),
		rand:        rng.New(o.seed),
		realmByName: make(map[string]*Realm),
	}
	c.parallel = o.parallel
	if c.parallel == 0 {
		c.parallel = runtime.GOMAXPROCS(0)
	}
	if c.parallel > o.machines {
		c.parallel = o.machines
	}
	seeds := c.rand.Split()
	for i := range c.machines {
		mopts := []selftune.Option{
			selftune.WithSeed(seeds.Uint64()),
			selftune.WithCPUs(o.cores),
			// One engine lane per core, advanced by the tick worker that
			// advances the machine. The lanes' rings split one default
			// ring's capacity, so tracers nobody drains buffer what one
			// shared ring did.
			selftune.WithCoreParallelism(1),
			selftune.WithTracerCapacity(max(1, selftune.DefaultTracerCapacity/o.cores)),
			// Disjoint PID spaces per machine: live Transfers inject a
			// task's syscall evidence into the destination tracer, and
			// per-PID drains must never mix tasks from different
			// machines. Machine 0 keeps offset 0, the single-machine
			// bases.
			selftune.WithPIDOffset(i * machinePIDSpan),
		}
		if o.cores > smp.DefaultNodeCores && o.cores%smp.DefaultNodeCores == 0 {
			mopts = append(mopts, selftune.WithTopology(selftune.UniformTopology(o.cores, smp.DefaultNodeCores)))
		}
		sys, err := selftune.NewSystem(mopts...)
		if err != nil {
			return nil, fmt.Errorf("cluster: machine %d: %w", i, err)
		}
		c.machines[i] = sys
	}
	c.col = telemetry.NewCollector(o.colOpts...)
	c.pool = workpool.New(c.parallel)
	c.advanceMachine = func(i int) {
		m := c.machines[i]
		m.Run(c.tickAt.Sub(m.Now()))
	}
	// Only detail machines Start workloads, so only they can complete
	// requests; request stats alone subscribe just those, since a
	// subscription starts a machine's load sampler.
	staged := 0
	if o.machineTel {
		c.mcol = telemetry.NewCollector(o.machineColO...)
		staged = o.machines
	} else if o.reqStats {
		staged = o.detail
	}
	c.stages = make([]selftune.Stage, staged)
	for i := range c.stages {
		c.machines[i].Subscribe(&c.stages[i])
	}
	c.fleetEveryTicks = c.ticksOf(o.fleetEvery)
	every := statsEvery
	if o.scaler != nil {
		every = o.scaler.Every
	}
	c.scaleEveryTicks = c.ticksOf(every)
	return c, nil
}

// tick is the cluster control tick: the granularity of arrivals,
// departures, balancing and scaling.
const tick = 100 * selftune.Millisecond

// statsEvery is how often the realms' reservation trajectories fold
// without an autoscaler; with one they fold at its decision cadence.
const statsEvery = 1 * selftune.Second

// machinePIDSpan is the PID-space width reserved per machine: far
// above any per-machine PID (core bases step by 1e6, so 1024 cores at
// a million tasks each still fit), far below int64 overflow for any
// realistic fleet.
const machinePIDSpan = 1_000_000_000

// ticksOf converts a duration to whole ticks, rounding up, minimum 1.
func (c *Cluster) ticksOf(d selftune.Duration) int {
	n := int((d + tick - 1) / tick)
	if n < 1 {
		n = 1
	}
	return n
}

// AddRealm registers a tenant realm. The sum of all realms' initial
// reservations must fit the fleet capacity — the static promises must
// be honourable even before the autoscaler moves anything.
func (c *Cluster) AddRealm(cfg RealmConfig) (*Realm, error) {
	if err := cfg.validate(c.Capacity()); err != nil {
		return nil, err
	}
	if c.realmByName[cfg.Name] != nil {
		return nil, fmt.Errorf("cluster: realm %q added twice", cfg.Name)
	}
	if c.Reserved()+cfg.Reservation > c.Capacity()+1e-9 {
		return nil, fmt.Errorf("cluster: realm %q: reservation %v overcommits the fleet (%.1f of %.1f already reserved)",
			cfg.Name, cfg.Reservation, c.Reserved(), c.Capacity())
	}
	r := &Realm{
		c:           c,
		cfg:         cfg,
		r:           c.rand.Split(),
		rate:        cfg.Rate,
		reservation: cfg.Reservation,
		floor:       cfg.Reservation,
	}
	var cum float64
	for _, s := range cfg.Mix {
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		cum += w
		r.mixCum = append(r.mixCum, cum)
	}
	c.realms = append(c.realms, r)
	c.realmByName[cfg.Name] = r
	return r, nil
}

// Machines returns the fleet size.
func (c *Cluster) Machines() int { return len(c.machines) }

// Machine returns machine i — a full, laned selftune.System; attach
// per-machine collectors or inspect cores through it. Its Tracer is
// nil: each core traces into its own ring (CoreTracer), and the rings
// share the capacity of one default ring.
func (c *Cluster) Machine(i int) *selftune.System { return c.machines[i] }

// Realms returns the registered realms in registration order.
func (c *Cluster) Realms() []*Realm { return append([]*Realm(nil), c.realms...) }

// Capacity returns the fleet capacity in core-equivalents
// (machines x cores x U_lub).
func (c *Cluster) Capacity() float64 { return float64(len(c.machines)) * c.mcap }

// Reserved returns the sum of all realms' current reservations.
func (c *Cluster) Reserved() float64 {
	var sum float64
	for _, r := range c.realms {
		sum += r.reservation
	}
	return sum
}

// Now returns the cluster instant (machine engines are in lockstep
// with it at tick boundaries).
func (c *Cluster) Now() selftune.Time { return c.now }

// Collector returns the cluster-scope telemetry collector; its
// Snapshot feeds every existing sink (CSV, Chrome trace, reports).
func (c *Cluster) Collector() *telemetry.Collector { return c.col }

// MachineCollector returns the collector fed by every machine's event
// stream through the per-machine stages (nil without
// WithMachineTelemetry). Its state is current as of the last tick
// barrier.
func (c *Cluster) MachineCollector() *telemetry.Collector { return c.mcol }

// Parallelism returns the number of worker goroutines advancing
// machine engines each tick.
func (c *Cluster) Parallelism() int { return c.parallel }

// Replacements returns how many cross-machine re-placements the fleet
// balancer has executed (live Transfers and respawns together).
func (c *Cluster) Replacements() int { return c.replacements }

// LiveReplacements returns how many of the executed re-placements
// were live Transfers — the job's CBS state carried across machines
// instead of a despawn/respawn.
func (c *Cluster) LiveReplacements() int { return c.liveMoves }

// FleetRequests returns the request completions and deadline misses
// observed on the detail machines (both zero without
// WithRequestStats), current as of the last tick barrier.
func (c *Cluster) FleetRequests() (completed, missed int64) {
	completed, missed, _ = c.col.RequestTotals()
	return completed, missed
}

// FleetLatency returns a copy of the fleet-wide completion-latency
// distribution over the detail machines' requests (empty without
// WithRequestStats), current as of the last tick barrier.
func (c *Cluster) FleetLatency() telemetry.LatencyHistogram {
	_, _, latency := c.col.RequestTotals()
	return latency
}

// Steps returns the total discrete-event steps executed by the
// machines' lanes and control engines — the fleet's simulation work so
// far.
func (c *Cluster) Steps() uint64 {
	var sum uint64
	for _, m := range c.machines {
		sum += m.Steps()
	}
	return sum
}

// Close releases the Cluster's tick-advance worker goroutines and
// closes every machine. The Cluster remains usable afterwards — Run
// falls back to serial advances — but Close is meant for teardown.
// Safe to call more than once.
func (c *Cluster) Close() {
	c.pool.Close()
	for _, m := range c.machines {
		m.Close()
	}
}

// Resident returns the number of jobs currently resident on the fleet.
func (c *Cluster) Resident() int { return len(c.active) }

// Run advances the cluster by the given horizon: control work on
// every tick boundary, machine engines advanced in lockstep between
// them. Run may be called repeatedly (change arrival rates between
// calls to model surges).
func (c *Cluster) Run(horizon selftune.Duration) {
	end := c.now.Add(horizon)
	for c.now < end {
		c.processDepartures()
		if c.opt.fleetBal != nil && c.tickN%c.fleetEveryTicks == 0 {
			c.rebalance()
		}
		c.generateArrivals()
		c.drainQueues()
		if c.tickN%c.scaleEveryTicks == 0 {
			if c.opt.scaler != nil {
				c.autoscale()
				c.drainQueues() // grown realms admit immediately
			}
			c.foldRealmTicks()
		}
		c.foldLoads()
		step := tick
		if remain := end.Sub(c.now); remain < step {
			step = remain
		}
		next := c.now.Add(step)
		c.advance(next)
		c.now = next
		c.tickN++
	}
}

// advance brings every machine engine to the next tick boundary, then
// merges the staged cross-machine effects at the barrier. With
// parallelism 1 the machines advance serially in index order; with
// more, the Cluster's persistent worker pool deals each worker a
// block of machines, the same block every tick, and a worker that
// runs out steals half of another's remainder — the workers park on a
// channel between ticks, so a tick costs one wakeup per worker
// instead of one goroutine spawn (the old per-tick goroutines cost
// more than they saved on short ticks; see
// BenchmarkClusterParallelTicks). Both paths produce
// identical state: machines share nothing mutable between tick
// boundaries (placements, despawns and realm accounting all happen in
// the serial control phase before the advance), each machine's event
// execution is a pure function of its own pre-tick state, and the
// cross-machine sinks — the machine-telemetry collector and the
// request fold — are fed through per-machine stages drained here in
// machine-index order. The pool's completion barrier orders every
// worker's writes before the merge and the next control phase.
func (c *Cluster) advance(next selftune.Time) {
	c.tickAt = next
	c.pool.Run(len(c.machines), c.advanceMachine)
	// Merge barrier: fold the staged per-machine event streams in
	// machine-index order. Draining on the serial path too keeps the
	// fold order — and the collectors' bytes — parallelism-invariant.
	for i := range c.stages {
		c.stages[i].Drain(c.foldMachineEvent)
	}
}

// foldMachineEvent folds one staged machine event at the tick barrier
// into the machine collector and, for a request completion, the
// cluster-scope collector and the realm's SLO score. The two
// collectors fold disjoint state, so one pass over the stage serves
// both.
func (c *Cluster) foldMachineEvent(e *selftune.Event) {
	if c.mcol != nil {
		c.mcol.Observe(*e)
	}
	if c.opt.reqStats && e.Kind == selftune.RequestCompleteEvent {
		r := c.realmByName[telemetry.RequestGroupOf(e.Source)]
		if r != nil && r.cfg.SLO.Quantile > 0 && e.Latency <= r.cfg.SLO.Threshold {
			r.sloWithin++
		}
		c.col.Observe(*e)
	}
}

// processDepartures despawns every job whose residency ended at or
// before the current tick boundary, in (depart, id) order, so the
// float ledgers subtract in the same order on every run. The departed
// jobs then leave the resident list in one pass that keeps its ID
// order.
func (c *Cluster) processDepartures() {
	for len(c.departQ) > 0 && c.departQ[0].depart <= c.now {
		j := heap.Pop(&c.departQ).(*job)
		if err := c.machines[j.machine].Despawn(j.handle); err != nil {
			panic(fmt.Sprintf("cluster: depart %s from machine %d: %v", j.name, j.machine, err))
		}
		c.mused[j.machine] -= j.hint
		j.realm.used -= j.hint
		j.realm.departed++
		j.handle = nil
	}
	c.active = slices.DeleteFunc(c.active, func(j *job) bool { return j.handle == nil })
}

// generateArrivals draws each realm's Poisson arrivals for this tick
// and admits, queues or rejects them.
func (c *Cluster) generateArrivals() {
	tickSec := float64(tick) / float64(selftune.Second)
	for _, r := range c.realms {
		if r.rate <= 0 {
			continue
		}
		n := r.r.Poisson(r.rate * tickSec)
		for i := 0; i < n; i++ {
			spec := r.pickSpec()
			service := r.cfg.Mix[spec].Service.Sample(r.r)
			if service < selftune.Millisecond {
				service = selftune.Millisecond
			}
			a := arrival{spec: spec, service: service}
			r.arrived++
			if len(r.queue) == 0 && c.admit(r, a) {
				continue
			}
			if len(r.queue) < r.queueCap() {
				r.queue = append(r.queue, a)
				r.queuedT++
				c.col.Observe(selftune.Event{
					Kind:   selftune.BudgetExhaustedEvent,
					At:     c.now,
					Core:   -1,
					Source: r.cfg.Name,
				})
			} else {
				r.rejected++
				c.col.Observe(selftune.Event{
					Kind:   selftune.AdmissionRejectEvent,
					At:     c.now,
					Core:   -1,
					Source: r.cfg.Name,
					Reason: "queue full",
				})
			}
		}
	}
}

// drainQueues admits queued arrivals FIFO per realm, realms in
// registration order, until each realm's head no longer fits.
func (c *Cluster) drainQueues() {
	for _, r := range c.realms {
		for len(r.queue) > 0 && c.admit(r, r.queue[0]) {
			copy(r.queue, r.queue[1:])
			r.queue = r.queue[:len(r.queue)-1]
		}
	}
}

// admit tries to place one arrival: the realm must have reservation
// headroom for the job's hint, and some machine must fit it. On
// success the job is resident (and Started, on a detail machine).
func (c *Cluster) admit(r *Realm, a arrival) bool {
	hint := r.specHint(a.spec)
	if r.used+hint > r.reservation+1e-9 {
		return false
	}
	// Worst-fit across machines, like smp.Machine.Place across cores:
	// try the freest machines first (a spawn can still fail there on
	// per-core fragmentation), give up after a few.
	const tries = 4
	tried := [tries]int{}
	for t := 0; t < tries; t++ {
		best := -1
		for i := range c.mused {
			skip := false
			for _, p := range tried[:t] {
				if p == i {
					skip = true
					break
				}
			}
			if skip || c.mused[i]+hint > c.mcap+1e-9 {
				continue
			}
			if best < 0 || c.mused[i] < c.mused[best] {
				best = i
			}
		}
		if best < 0 {
			return false
		}
		tried[t] = best
		c.jobSeq++
		name := fmt.Sprintf("%s/%d", r.cfg.Name, c.jobSeq)
		h, err := c.spawn(best, r, a.spec, name, hint)
		if err != nil {
			c.jobSeq-- // name not used; keep the sequence dense
			continue   // fragmentation on that machine; try the next
		}
		j := &job{
			id:      c.jobSeq,
			realm:   r,
			spec:    a.spec,
			name:    name,
			hint:    hint,
			machine: best,
			handle:  h,
			depart:  c.now.Add(a.service),
		}
		c.active = append(c.active, j) // IDs only grow: the list stays ascending
		heap.Push(&c.departQ, j)
		c.mused[best] += hint
		r.used += hint
		r.admitted++
		if best < c.opt.detail {
			h.Start(c.now)
		}
		return true
	}
	return false
}

// spawn places one job's workload on a machine.
func (c *Cluster) spawn(machine int, r *Realm, spec int, name string, hint float64) (*selftune.Handle, error) {
	s := r.cfg.Mix[spec]
	opts := []selftune.SpawnOption{
		selftune.SpawnName(name),
		selftune.SpawnHint(hint),
	}
	if s.Util > 0 {
		opts = append(opts, selftune.SpawnUtil(s.Util))
	}
	return c.machines[machine].Spawn(s.Kind, opts...)
}

// rebalance plans and executes one fleet balancing opportunity. The
// planning snapshot reuses the cluster's buffers (valid for the Plan
// call), and the per-destination batch counts reuse a slice instead
// of a per-tick map.
//
// Execution is live-first: a placement between two detail machines
// whose job can carry its state (LiveMovable) Transfers the running
// workload — CBS budget, deadline, throttle state, syscall evidence,
// tuner tick — to the destination machine at this tick's fence;
// everything else falls back to despawn/respawn. A job on a
// placement-only machine was never started, so it has no running
// state to carry even when its kind could move its task.
// The executor runs serially in the control phase, with every machine
// engine (and every core lane) resting at c.now, and walks the plan
// in order — so live moves are byte-identical at every
// WithParallelism level. The published MigrationEvent records whether
// the move carried its state (Event.Live).
func (c *Cluster) rebalance() {
	c.snapshotInto(&c.snapBuf)
	plan := c.opt.fleetBal.Plan(c.snapBuf)
	if len(plan) == 0 {
		return
	}
	if len(c.perDestBuf) < len(c.machines) {
		c.perDestBuf = make([]int, len(c.machines))
		c.perDestReason = make([]string, len(c.machines))
	}
	perDest := c.perDestBuf[:len(c.machines)]
	perDestReason := c.perDestReason[:len(c.machines)]
	for i := range perDest {
		perDest[i] = 0
		perDestReason[i] = ""
	}
	for _, p := range plan {
		at, ok := slices.BinarySearchFunc(c.active, p.Job, func(j *job, id int) int { return cmp.Compare(j.id, id) })
		if !ok || p.To < 0 || p.To >= len(c.machines) || p.To == c.active[at].machine {
			continue
		}
		j := c.active[at]
		if c.mused[p.To]+j.hint > c.mcap+1e-9 {
			continue
		}
		from := j.machine
		live := false
		if from < c.opt.detail && p.To < c.opt.detail && j.handle.LiveMovable() {
			// The hint ledger follows the handle inside Transfer's
			// machine accounts; the cluster ledger below.
			if _, err := c.machines[from].Transfer(j.handle, c.machines[p.To]); err == nil {
				live = true
			}
			// A failed Transfer (per-core fragmentation, supervisor
			// rejection) left both machines untouched: fall back to
			// respawn like any non-live-movable job.
		}
		if !live {
			h, err := c.spawn(p.To, j.realm, j.spec, j.name, j.hint)
			if err != nil {
				continue // per-core fragmentation on the destination
			}
			if err := c.machines[from].Despawn(j.handle); err != nil {
				panic(fmt.Sprintf("cluster: re-place %s off machine %d: %v", j.name, from, err))
			}
			j.handle = h
			if p.To < c.opt.detail {
				h.Start(c.now)
			}
		}
		c.mused[from] -= j.hint
		c.mused[p.To] += j.hint
		j.machine = p.To
		j.realm.replaced++
		c.replacements++
		if live {
			c.liveMoves++
		}
		reason := p.Reason
		if reason == "" {
			reason = "fleet"
		}
		perDest[p.To]++
		if perDestReason[p.To] == "" {
			perDestReason[p.To] = reason
		}
		c.col.Observe(selftune.Event{
			Kind:        selftune.MigrationEvent,
			At:          c.now,
			Core:        p.To,
			From:        from,
			FromMachine: from,
			ToMachine:   p.To,
			Live:        live,
			Source:      j.name,
			Reason:      reason,
		})
	}
	// One batch record per destination machine, like the machine-level
	// balancer's per-destination batches. Destinations in index
	// order for determinism; the batch carries its first move's reason.
	for dest := 0; dest < len(c.machines); dest++ {
		if n := perDest[dest]; n > 0 {
			c.col.Observe(selftune.Event{
				Kind:   selftune.MigrationBatchEvent,
				At:     c.now,
				Core:   dest,
				Count:  n,
				Reason: perDestReason[dest],
			})
		}
	}
}

// machineLoadsInto appends the per-machine mean effective core load
// to dst (pass dst[:0] to reuse its storage).
func (c *Cluster) machineLoadsInto(dst []float64) []float64 {
	for _, m := range c.machines {
		c.coreLoadBuf = m.Machine().LoadsInto(c.coreLoadBuf[:0])
		var sum float64
		for _, l := range c.coreLoadBuf {
			sum += l
		}
		dst = append(dst, sum/float64(len(c.coreLoadBuf)))
	}
	return dst
}

// foldLoads publishes the per-machine load sample (machines play the
// cores of the cluster-scope collector; the collector copies the
// reused sample buffer on fold).
func (c *Cluster) foldLoads() {
	c.loadsBuf = c.machineLoadsInto(c.loadsBuf[:0])
	c.col.Observe(selftune.Event{
		Kind:  selftune.CoreLoadEvent,
		At:    c.now,
		Core:  -1,
		Loads: c.loadsBuf,
	})
}

// foldRealmTicks publishes each realm's reservation state as a tuner
// tick: the autoscaler is an adaptive reservation at cluster scope,
// so its trajectory renders through the existing budget charts —
// Requested is the realm's observed demand, Granted its reservation
// (both scaled as durations per second of cluster time), Bandwidth
// its share of fleet capacity in use, Detected the queue depth.
func (c *Cluster) foldRealmTicks() {
	for _, r := range c.realms {
		c.col.Observe(selftune.Event{
			Kind:   selftune.TunerTickEvent,
			At:     c.now,
			Core:   -1,
			Source: r.cfg.Name,
			Snapshot: selftune.TunerSnapshot{
				At:        c.now,
				Period:    1 * selftune.Second,
				Requested: selftune.Duration(r.demand() / c.Capacity() * float64(selftune.Second)),
				Granted:   selftune.Duration(r.reservation / c.Capacity() * float64(selftune.Second)),
				Bandwidth: r.used / c.Capacity(),
				Detected:  float64(len(r.queue)),
			},
		})
	}
}

// Snapshot freezes the fleet view a ClusterBalancer plans over (also
// the determinism witness: equal seeds yield deeply equal snapshots).
// The returned snapshot is freshly allocated and safe to retain.
func (c *Cluster) Snapshot() FleetSnapshot {
	var snap FleetSnapshot
	c.snapshotInto(&snap)
	return snap
}

// snapshotInto fills snap with the current fleet view, reusing its
// slice storage — the allocation-free path behind the per-tick
// rebalance. The filled snapshot is valid until the next call with
// the same target.
func (c *Cluster) snapshotInto(snap *FleetSnapshot) {
	snap.At = c.now
	snap.MachineCap = c.mcap
	snap.MachineUsed = append(snap.MachineUsed[:0], c.mused...)
	snap.MachineLoads = c.machineLoadsInto(snap.MachineLoads[:0])
	snap.Realms = snap.Realms[:0]
	for _, r := range c.realms {
		snap.Realms = append(snap.Realms, r.Stats())
	}
	snap.Jobs = snap.Jobs[:0]
	for _, j := range c.active {
		snap.Jobs = append(snap.Jobs, JobStat{
			ID:      j.id,
			Realm:   j.realm.cfg.Name,
			Kind:    j.realm.cfg.Mix[j.spec].Kind,
			Machine: j.machine,
			Hint:    j.hint,
		})
	}
}
