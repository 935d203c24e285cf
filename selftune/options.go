package selftune

import (
	"fmt"

	"repro/internal/simtime"
)

// options collects the configuration assembled by functional options.
type options struct {
	seed         uint64
	cpus         int
	ulub         float64
	tracerCap    int
	loadSample   Duration
	balancer     Balancer
	balanceEvery Duration
	imbalance    float64
	topo         Topology
	topoSet      bool
	coreParallel int
	pidOffset    int
}

// DefaultTracerCapacity is the syscall ring size of a System built
// without WithTracerCapacity, in events.
const DefaultTracerCapacity = 1 << 16

func defaultOptions() options {
	return options{
		cpus:         1,
		ulub:         1,
		tracerCap:    DefaultTracerCapacity,
		loadSample:   250 * simtime.Millisecond,
		balanceEvery: 500 * simtime.Millisecond,
		imbalance:    0.2,
	}
}

// Option configures a System under construction. Options validate
// eagerly: NewSystem reports the first option error instead of
// silently clamping.
type Option func(*options) error

// WithSeed makes the whole simulation deterministic; runs with equal
// seeds produce identical traces.
func WithSeed(seed uint64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithCPUs backs the System with an n-core machine. Each core runs its
// own EDF+CBS scheduler and supervisor, and Spawn places workloads
// across cores worst-fit by bandwidth (smp.Machine.Place). n = 1 is
// the paper's uniprocessor configuration and the default.
func WithCPUs(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("selftune: WithCPUs(%d): need at least one CPU", n)
		}
		o.cpus = n
		return nil
	}
}

// WithULub sets every core's supervisor utilisation bound. Values
// outside (0, 1] are rejected — the schedulability condition
// Σ Q/T ≤ U_lub (Eq. 1) is meaningless beyond full utilisation.
func WithULub(u float64) Option {
	return func(o *options) error {
		if u <= 0 || u > 1 {
			return fmt.Errorf("selftune: WithULub(%v): bound must be in (0,1]", u)
		}
		o.ulub = u
		return nil
	}
}

// WithTracerCapacity sets the syscall ring size: of the one ring all
// cores share, or of each core's own ring on a laned machine
// (WithCoreParallelism). A ring allocates as events arrive, doubling
// up to this capacity (default DefaultTracerCapacity), so an unused
// ring costs nothing.
func WithTracerCapacity(n int) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("selftune: WithTracerCapacity(%d): capacity must be positive", n)
		}
		o.tracerCap = n
		return nil
	}
}

// WithTopology groups the machine's cores into cache/NUMA domains, so
// distance-aware policies (BalanceTopologyAware) and the per-domain
// telemetry know which migrations cross a node boundary. The topology
// must partition the cores: build one with UniformTopology (consecutive
// nodes of a fixed width) or list the domains explicitly; passing the
// zero value selects the default grouping of 8 consecutive cores per
// node. Whether the partition matches WithCPUs is checked by NewSystem,
// which knows the core count. Without this option the machine is a
// single domain and every migration is local — exactly the pre-topology
// behaviour. Validation needs the core count, so it all happens in
// NewSystem (smp.Topology.Validate), not here.
func WithTopology(t Topology) Option {
	return func(o *options) error {
		o.topo = t
		o.topoSet = true
		return nil
	}
}

// WithCoreParallelism shards the machine's simulation across engine
// lanes — one per core — advanced concurrently by up to n worker
// goroutines between causality fences (see System.Run). n counts
// workers only: the lane partition is always one lane per core, so a
// seeded run produces byte-identical event streams at any n ≥ 1.
// Laned mode gives every core its own syscall tracer (System.Tracer
// returns nil; migrations carry undownloaded evidence across buffers).
// The default (no option) is the single-engine machine.
func WithCoreParallelism(n int) Option {
	return func(o *options) error {
		if n < 1 {
			return fmt.Errorf("selftune: WithCoreParallelism(%d): need at least one worker", n)
		}
		o.coreParallel = n
		return nil
	}
}

// WithPIDOffset shifts the machine's whole task-PID space by off.
// PIDs are per-core disjoint within one System already; a fleet whose
// machines exchange live tasks (cluster live migration carries syscall
// evidence between tracers) gives each System a disjoint offset so
// per-PID drains never mix tasks from different machines. Offset 0 —
// the default — keeps the historical single-machine PID bases.
func WithPIDOffset(off int) Option {
	return func(o *options) error {
		if off < 0 {
			return fmt.Errorf("selftune: WithPIDOffset(%d): offset must be non-negative", off)
		}
		o.pidOffset = off
		return nil
	}
}

// WithBalancer installs a cross-core load-balancing policy. The
// built-ins are BalanceReactive() (pull after sustained imbalance),
// BalanceWorkStealing() (multi-migration de-consolidation) and
// BalanceTopologyAware() (cost-based placement over WithTopology); any
// user-supplied Balancer implementation works the same way. nil — the
// default — freezes placement at spawn time, the paper's partitioned
// configuration. Any non-nil balancer also makes admission
// machine-wide: a spawn that fails worst-fit placement lets the policy
// plan room-making moves before it is rejected.
func WithBalancer(b Balancer) Option {
	return func(o *options) error {
		o.balancer = b
		return nil
	}
}

// WithBalanceInterval sets the balance-tick period — how often the
// configured Balancer is asked to Plan (default 500ms of simulated
// time).
func WithBalanceInterval(every Duration) Option {
	return func(o *options) error {
		if every <= 0 {
			return fmt.Errorf("selftune: WithBalanceInterval(%v): interval must be positive", every)
		}
		o.balanceEvery = every
		return nil
	}
}

// WithBalanceThreshold sets the per-core load spread (max - min) below
// which the built-in policies consider the machine balanced (default
// 0.2). The value reaches custom policies as Snapshot.Threshold.
func WithBalanceThreshold(x float64) Option {
	return func(o *options) error {
		if x <= 0 || x >= 1 {
			return fmt.Errorf("selftune: WithBalanceThreshold(%v): spread must be in (0,1)", x)
		}
		o.imbalance = x
		return nil
	}
}

// WithLoadSampling sets the interval at which per-core load events are
// published to observers (the sampler only runs once an observer has
// subscribed). The default is 250ms of simulated time.
func WithLoadSampling(every Duration) Option {
	return func(o *options) error {
		if every <= 0 {
			return fmt.Errorf("selftune: WithLoadSampling(%v): interval must be positive", every)
		}
		o.loadSample = every
		return nil
	}
}
