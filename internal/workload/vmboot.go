package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// VMBootPhase is one stage of a virtual machine's boot sequence: for
// Len of simulated time, the per-period demand is Mult times the
// steady-state demand.
type VMBootPhase struct {
	// Name labels the phase ("firmware", "kernel", ...).
	Name string
	// Mult scales the steady-state demand while the phase lasts.
	Mult float64
	// Len is the phase duration.
	Len simtime.Duration
}

// VMBootConfig parameterises a booting virtual machine.
type VMBootConfig struct {
	// Name identifies the instance (task name, reports).
	Name string
	// Period is the demand-slice period: the VM's virtual CPU is
	// modelled as a periodic task releasing one job per period.
	Period simtime.Duration
	// SteadyDemand is the mean per-period demand once boot completes.
	SteadyDemand simtime.Duration
	// Jitter is the relative standard deviation of the multiplicative
	// noise on each slice's demand.
	Jitter float64
	// Phases is the boot sequence, walked once from Start; afterwards
	// the VM runs at SteadyDemand indefinitely. Per-slice demand is
	// capped at Period — a VM cannot use more than one core.
	Phases []VMBootPhase
	// Sink is where the VM's task starts tracing its I/O syscalls
	// (nil: untraced).
	Sink SyscallSink
	// OnRequest receives one Request per completed demand slice (nil:
	// unobserved). The slice deadline is the period, so a VM falling
	// behind its virtual-CPU clock shows up as deadline misses.
	OnRequest RequestObserver
}

// DefaultVMBootConfig returns the canonical boot profile: 10ms demand
// slices walking firmware (dim), kernel (a saturating burst of device
// probing and decompression) and service-startup phases over the first
// ~1.2s, then steady state at the given mean utilisation.
func DefaultVMBootConfig(name string, steadyUtil float64) VMBootConfig {
	period := 10 * simtime.Millisecond
	return VMBootConfig{
		Name:         name,
		Period:       period,
		SteadyDemand: simtime.Duration(steadyUtil * float64(period)),
		Jitter:       0.15,
		Phases: []VMBootPhase{
			{Name: "firmware", Mult: 0.4, Len: 200 * simtime.Millisecond},
			{Name: "kernel", Mult: 2.2, Len: 400 * simtime.Millisecond},
			{Name: "services", Mult: 1.5, Len: 600 * simtime.Millisecond},
		},
	}
}

// VMBoot models a virtual machine booting and then serving: a periodic
// task whose per-period demand follows a staged ramp — low while
// firmware runs, a burst while the kernel initialises, elevated while
// services start — and settles at a steady state. The heavyweight
// tenant of the cluster scenarios: a realm scaling out sees a boot
// storm before the new capacity earns its keep.
type VMBoot struct {
	app
	cfg    VMBootConfig
	r      *rng.Source
	base   simtime.Time
	slices int
}

// NewVMBoot prepares a VM; the boot sequence begins at Start.
func NewVMBoot(sd *sched.Scheduler, r *rng.Source, cfg VMBootConfig) *VMBoot {
	if cfg.Period <= 0 {
		panic(fmt.Sprintf("workload: vmboot %q: period %v must be positive", cfg.Name, cfg.Period))
	}
	if cfg.SteadyDemand <= 0 {
		panic(fmt.Sprintf("workload: vmboot %q: steady demand %v must be positive", cfg.Name, cfg.SteadyDemand))
	}
	for _, ph := range cfg.Phases {
		if ph.Mult <= 0 || ph.Len <= 0 {
			panic(fmt.Sprintf("workload: vmboot %q: phase %q needs positive multiplier and length", cfg.Name, ph.Name))
		}
	}
	v := &VMBoot{app: newApp(sd, cfg.Name, cfg.Sink), cfg: cfg, r: r}
	if cfg.OnRequest != nil {
		v.task.OnJobComplete = observeCompletion(cfg.OnRequest, cfg.Period)
	}
	return v
}

// Slices returns the number of demand slices released so far.
func (v *VMBoot) Slices() int { return v.slices }

// Phase returns the name of the boot phase active at the given
// instant, or "steady" once the ramp has completed ("" before Start).
func (v *VMBoot) Phase(at simtime.Time) string {
	if !v.started || at < v.base {
		return ""
	}
	elapsed := at.Sub(v.base)
	for _, ph := range v.cfg.Phases {
		if elapsed < ph.Len {
			return ph.Name
		}
		elapsed -= ph.Len
	}
	return "steady"
}

// Booted reports whether the boot ramp has completed at the given
// instant.
func (v *VMBoot) Booted(at simtime.Time) bool { return v.Phase(at) == "steady" }

// mult returns the demand multiplier of the phase active at elapsed
// time since base.
func (v *VMBoot) mult(elapsed simtime.Duration) float64 {
	for _, ph := range v.cfg.Phases {
		if elapsed < ph.Len {
			return ph.Mult
		}
		elapsed -= ph.Len
	}
	return 1
}

// Start begins the boot sequence at the given instant (clamped to the
// present).
func (v *VMBoot) Start(at simtime.Time) {
	v.base = v.start("VMBoot", at)
	next := v.base
	v.repeat(next, func() simtime.Time {
		v.release(v.lt.now())
		next = next.Add(v.cfg.Period)
		return next
	})
}

// release queues one demand slice: the phase multiplier times the
// steady demand, jittered, capped at the period. Boot-phase slices
// emit a disk read() (image and module loading); every slice emits a
// final nanosleep-style block.
func (v *VMBoot) release(now simtime.Time) {
	v.slices++
	m := v.mult(now.Sub(v.base))
	d := float64(v.cfg.SteadyDemand) * m
	if v.cfg.Jitter > 0 {
		d *= v.r.Norm(1, v.cfg.Jitter)
	}
	if min := 0.05 * float64(v.cfg.SteadyDemand); d < min {
		d = min
	}
	if max := float64(v.cfg.Period); d > max {
		d = max
	}
	demand := simtime.Duration(d)
	j := v.task.NewJob(now, demand, now.Add(v.cfg.Period))
	if m != 1 { // booting: disk traffic
		v.syscall(j, 0, SysRead)
	}
	v.syscall(j, demand, SysNanosleep)
	v.task.Release(j)
}
