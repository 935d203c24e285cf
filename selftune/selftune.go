// Package selftune is the public face of the reproduction: a
// self-tuning reservation scheduler for legacy real-time applications,
// after Cucinotta, Checconi, Abeni and Palopoli, "Self-tuning
// Schedulers for Legacy Real-Time Applications" (EuroSys 2010).
//
// A System bundles the simulated kernel pieces — one or more EDF+CBS
// scheduling cores, the syscall tracer and the per-core supervisors —
// and is built from functional options. Workloads are spawned from a
// named registry and tuned transparently:
//
//	sys, _ := selftune.NewSystem(selftune.WithSeed(1))
//	app, _ := sys.Spawn("video",
//		selftune.SpawnName("mplayer"),
//		selftune.SpawnUtil(0.25),
//		selftune.Tuned(selftune.DefaultTunerConfig()))
//	app.Start(0)
//	sys.Run(60 * selftune.Second)
//	fmt.Println(app.Tuner().DetectedFrequency()) // ~25 Hz
//
// Multi-core machines are one option away — WithCPUs(4) backs the
// System with a partitioned multiprocessor and Spawn places each
// workload worst-fit over per-core bandwidth. New scenario kinds are
// one Register call away. Run-time observation goes through Subscribe
// rather than poking at scheduler internals.
//
// The heavy lifting lives in the internal packages; this package
// re-exports the stable subset a downstream user needs.
package selftune

import (
	"repro/internal/core"
	"repro/internal/ktrace"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/smp"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

// Re-exported time types and units.
type (
	// Time is an instant in simulated time (ns since simulation start).
	Time = simtime.Time
	// Duration is a span of simulated time in nanoseconds.
	Duration = simtime.Duration
)

// Convenience units.
const (
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// Re-exported component types. These are aliases, so values returned
// here interoperate with the internal packages inside this module.
type (
	// Scheduler is the per-core EDF+CBS scheduling substrate.
	Scheduler = sched.Scheduler
	// Server is a CBS reservation.
	Server = sched.Server
	// Task is a schedulable entity.
	Task = sched.Task
	// Mode selects a CBS flavour (HardCBS or SoftCBS).
	Mode = sched.Mode
	// Tracer is the in-kernel syscall event buffer.
	Tracer = ktrace.Buffer
	// Supervisor enforces a core's bandwidth bound.
	Supervisor = supervisor.Supervisor
	// Tuner is the self-tuning controller of one workload (Tuned) or
	// of the threads of one application sharing a reservation
	// (TuneShared).
	Tuner = core.Tuner
	// TunerConfig parameterises a Tuner.
	TunerConfig = core.Config
	// TunerSnapshot is one controller activation record.
	TunerSnapshot = core.Snapshot
	// Player is the periodic multimedia application model.
	Player = workload.Player
	// PlayerConfig parameterises a Player.
	PlayerConfig = workload.PlayerConfig
	// Topology groups a machine's cores into cache/NUMA domains
	// (install one with WithTopology).
	Topology = smp.Topology
	// Request is one completed unit of request-shaped work (a webserver
	// request, a game-loop frame, a VM demand slice, a transcode unit).
	Request = workload.Request
	// RequestObserver receives completed requests; Env.Requests hands
	// workload factories one wired to the observer bus.
	RequestObserver = workload.RequestObserver
)

// Re-exported CBS modes.
const (
	// HardCBS throttles a depleted server until its deadline.
	HardCBS = sched.HardCBS
	// SoftCBS replenishes immediately and postpones the deadline.
	SoftCBS = sched.SoftCBS
)

// DefaultTunerConfig returns the paper's standard tuner parameters.
func DefaultTunerConfig() TunerConfig { return core.DefaultConfig() }

// UniformTopology groups cores into consecutive NUMA nodes of
// coresPerNode each (the last node takes the remainder). coresPerNode
// <= 0 selects the default of 8 cores per node.
func UniformTopology(cores, coresPerNode int) Topology { return smp.Uniform(cores, coresPerNode) }
