package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// ReservedPeriodic is a synthetic periodic real-time application
// running in its own hard reservation — the paper's background-load
// generator ("a simple real-time periodic application", Sec. 5.3).
// Its task is untraced. Stop leaves the reservation on the scheduler
// (sched.Scheduler.DetachAll takes it off to reclaim the bandwidth,
// MoveAll carries it to another core).
type ReservedPeriodic struct {
	app
	Server *sched.Server
}

// StartReservedPeriodic creates a hard CBS (budget, period) and a
// periodic task inside it whose jobs demand demandFrac of the budget
// each period (with a little uniform jitter), starting at offset.
// Table 2's load rows use e.g. (645us, 4300us) for 15% CPU.
func StartReservedPeriodic(sd *sched.Scheduler, r *rng.Source, name string,
	budget, period simtime.Duration, demandFrac float64, offset simtime.Time) *ReservedPeriodic {

	if demandFrac <= 0 || demandFrac > 1 {
		panic(fmt.Sprintf("workload: demandFrac %v out of (0,1]", demandFrac))
	}
	srv := sd.NewServer(name, budget, period, sched.HardCBS)
	rp := &ReservedPeriodic{app: newApp(sd, name, nil), Server: srv}
	rp.task.AttachTo(srv, 0)
	next := offset
	rp.repeat(next, func() simtime.Time {
		now := rp.lt.now()
		d := float64(budget) * demandFrac * r.Uniform(0.95, 1.0)
		rp.task.Release(rp.task.NewJob(now, simtime.Duration(d), now.Add(period)))
		next = next.Add(period)
		return next
	})
	return rp
}

// Reservation is a (budget, period) pair for one background task.
type Reservation struct {
	Budget simtime.Duration
	Period simtime.Duration
}

// Bandwidth returns Q/T.
func (r Reservation) Bandwidth() float64 {
	if r.Period <= 0 {
		return 0
	}
	return float64(r.Budget) / float64(r.Period)
}

// LoadSpec is one background-load configuration from Table 2: the
// total CPU utilisation and the set of reservations generating it.
type LoadSpec struct {
	Util         float64 // total fraction of the CPU
	Reservations []Reservation
}

// Table2Loads are the exact background reservations of the paper's
// Table 2 (budgets and periods in microseconds). Each row of the table
// *adds* the reservation in its second column to the previous row's
// set, each contributing 15% of the CPU.
var Table2Loads = []LoadSpec{
	{0.00, nil},
	{0.15, []Reservation{
		{645 * simtime.Microsecond, 4300 * simtime.Microsecond},
	}},
	{0.30, []Reservation{
		{645 * simtime.Microsecond, 4300 * simtime.Microsecond},
		{1200 * simtime.Microsecond, 8000 * simtime.Microsecond},
	}},
	{0.45, []Reservation{
		{645 * simtime.Microsecond, 4300 * simtime.Microsecond},
		{1200 * simtime.Microsecond, 8000 * simtime.Microsecond},
		{1650 * simtime.Microsecond, 11000 * simtime.Microsecond},
	}},
	{0.60, []Reservation{
		{645 * simtime.Microsecond, 4300 * simtime.Microsecond},
		{1200 * simtime.Microsecond, 8000 * simtime.Microsecond},
		{1650 * simtime.Microsecond, 11000 * simtime.Microsecond},
		{2250 * simtime.Microsecond, 15000 * simtime.Microsecond},
	}},
}

// StartLoad instantiates every reservation of a LoadSpec (no-op for
// the zero-load row) and returns the spawned applications.
func StartLoad(sd *sched.Scheduler, r *rng.Source, spec LoadSpec, name string) []*ReservedPeriodic {
	out := make([]*ReservedPeriodic, 0, len(spec.Reservations))
	for i, res := range spec.Reservations {
		offset := simtime.Time(r.Int63n(int64(res.Period)))
		out = append(out, StartReservedPeriodic(sd, r,
			fmt.Sprintf("%s%d", name, i), res.Budget, res.Period, 0.97, offset))
	}
	return out
}

// MakeLoad builds a background load of approximately util CPU
// utilisation out of n periodic reservations with distinct periods
// (used by Table 3, where the paper loads the system with "some
// periodic real-time tasks").
func MakeLoad(sd *sched.Scheduler, r *rng.Source, util float64, n int) []*ReservedPeriodic {
	return MakeLoadAt(sd, r, util, n, 0)
}

// MakeLoadAt is MakeLoad with every task's release offset shifted to
// start from base, so deferred-start callers can bring the load up
// mid-run.
func MakeLoadAt(sd *sched.Scheduler, r *rng.Source, util float64, n int, base simtime.Time) []*ReservedPeriodic {
	if util <= 0 {
		return nil
	}
	if n <= 0 {
		n = 1
	}
	periods := []simtime.Duration{
		4300 * simtime.Microsecond,
		8000 * simtime.Microsecond,
		11000 * simtime.Microsecond,
		15000 * simtime.Microsecond,
		21000 * simtime.Microsecond,
	}
	out := make([]*ReservedPeriodic, 0, n)
	share := util / float64(n)
	for i := 0; i < n; i++ {
		p := periods[i%len(periods)]
		q := simtime.Duration(share * float64(p))
		if q < simtime.Microsecond {
			q = simtime.Microsecond
		}
		offset := base.Add(simtime.Duration(r.Int63n(int64(p))))
		out = append(out, StartReservedPeriodic(sd, r, fmt.Sprintf("rtload%d", i), q, p, 0.97, offset))
	}
	return out
}

// Background is a deferred MakeLoad: the reservations are created only
// when Start fires, so a background load can sit behind the same
// create-then-start contract as the application models.
type Background struct {
	name    string
	sd      *sched.Scheduler
	r       *rng.Source
	util    float64
	n       int
	started bool
	apps    []*ReservedPeriodic
	servers []*sched.Server // apps' servers, built once at Start
}

// MoveLane implements LaneMover: forward the move to every spawned
// reserved periodic task (a no-op before Start — the reservations are
// created on whatever lane the scheduler then lives on).
func (b *Background) MoveLane(dst *sim.Engine, sink SyscallSink) {
	for _, a := range b.apps {
		a.MoveLane(dst, sink)
	}
}

// NewBackground prepares a background load of approximately util CPU
// utilisation split across n reserved periodic tasks.
func NewBackground(sd *sched.Scheduler, r *rng.Source, name string, util float64, n int) *Background {
	return &Background{name: name, sd: sd, r: r, util: util, n: n}
}

// Name returns the load's configured name.
func (b *Background) Name() string { return b.name }

// Start creates the reservations with release offsets from at
// (clamped to the present, so a mid-run start of a deferred load
// cannot schedule into the past).
func (b *Background) Start(at simtime.Time) {
	if b.started {
		panic("workload: Background started twice")
	}
	b.started = true
	if now := b.sd.Engine().Now(); at < now {
		at = now
	}
	b.apps = MakeLoadAt(b.sd, b.r, b.util, b.n, at)
	for _, a := range b.apps {
		b.servers = append(b.servers, a.Server)
	}
}

// Stop quiesces every reserved periodic task of the load: release
// loops become no-ops at their next firing. The reservations stay on
// the scheduler until detached. Idempotent; a no-op before Start.
func (b *Background) Stop() {
	for _, a := range b.apps {
		a.Stop()
	}
}

// Servers returns the load's CBS servers (nil before Start) — the set
// a migration must carry together, since the load is one application.
// The slice belongs to the load: callers read it and must not modify
// it or append to it.
func (b *Background) Servers() []*sched.Server { return b.servers }

// StartCPUHog creates a best-effort task with a single effectively
// infinite job, useful to keep the CPU saturated in tests.
func StartCPUHog(sd *sched.Scheduler, name string, work simtime.Duration) *sched.Task {
	t := sd.NewTask(name)
	sd.Engine().At(sd.Engine().Now(), func() {
		t.Release(t.NewJob(0, work, simtime.Never))
	})
	return t
}

// Noise is a best-effort task receiving jobs with exponential
// inter-arrival times and exponential demand: unstructured background
// activity that exercises the aperiodicity path of the period
// analyser. The task exists from construction (so PID filters can be
// installed), but no jobs arrive until Start.
type Noise struct {
	app
	r                *rng.Source
	meanInterarrival simtime.Duration
	meanDemand       simtime.Duration
}

// NewNoise prepares a Poisson noise source whose task traces its
// syscalls into sink (nil: untraced).
func NewNoise(sd *sched.Scheduler, r *rng.Source, name string,
	meanInterarrival, meanDemand simtime.Duration, sink SyscallSink) *Noise {

	return &Noise{
		app:              newApp(sd, name, sink),
		r:                r,
		meanInterarrival: meanInterarrival,
		meanDemand:       meanDemand,
	}
}

// Start begins the arrival process at the given instant (clamped to
// the present).
func (n *Noise) Start(at simtime.Time) {
	n.repeat(n.start("Noise", at), func() simtime.Time {
		d := simtime.Duration(n.r.Exp(float64(n.meanDemand)))
		if d < simtime.Microsecond {
			d = simtime.Microsecond
		}
		now := n.lt.now()
		j := n.task.NewJob(now, d, simtime.Never)
		n.syscall(j, d, SysRead)
		n.task.Release(j)
		gap := simtime.Duration(n.r.Exp(float64(n.meanInterarrival)))
		if gap < simtime.Microsecond {
			gap = simtime.Microsecond
		}
		return now.Add(gap)
	})
}

// StartPoissonNoise creates a Poisson noise source whose arrivals
// begin immediately.
func StartPoissonNoise(sd *sched.Scheduler, r *rng.Source, name string,
	meanInterarrival, meanDemand simtime.Duration, sink SyscallSink) *sched.Task {

	n := NewNoise(sd, r, name, meanInterarrival, meanDemand, sink)
	n.Start(sd.Engine().Now())
	return n.Task()
}
