package selftune

// The observer API replaces direct poking at Scheduler()/Tracer()
// internals: callers subscribe once and receive tuner activation
// snapshots, budget-exhaustion notifications and periodic per-core
// load samples as a single typed event stream.

import (
	"slices"
	"sync/atomic"
)

// EventKind discriminates the events a System publishes.
type EventKind int

const (
	// TunerTickEvent is one controller activation; Event.Snapshot
	// carries the activation record and Event.Source the task name.
	TunerTickEvent EventKind = iota
	// BudgetExhaustedEvent fires when a CBS server depletes its budget
	// with work still pending; Event.Source names the server.
	BudgetExhaustedEvent
	// CoreLoadEvent is a periodic sample of the per-core effective
	// loads (Event.Loads, one entry per core). Published every
	// WithLoadSampling interval once an observer is subscribed.
	CoreLoadEvent
	// MigrationEvent fires when a workload's reservation moves between
	// cores: Event.Source names the workload, Event.From the origin
	// core, Event.Core the destination, and Event.Reason the trigger
	// ("periodic", "imbalance", "steal", "numa", "admission" or
	// "manual"). Cluster-scope re-placements publish the same kind with
	// Event.FromMachine/ToMachine set (unequal) and Event.Live
	// distinguishing a state-carrying Transfer from a respawn.
	MigrationEvent
	// AdmissionRejectEvent fires when Spawn turns a workload away
	// because no core can take its bandwidth hint (after the balancer's
	// one rebalance pass, if admission is machine-wide). Event.Source
	// names the rejected instance and Event.Reason the placement error.
	AdmissionRejectEvent
	// MigrationBatchEvent fires once per executed balancer batch — a
	// destination core claiming one or more migration units of a
	// single plan. Every policy's moves flow through it: a push
	// policy's batches carry one unit, the work-stealing policy's
	// carry many. Event.Core is the claiming core, Event.Count how many
	// units arrived (a unit that failed admission or whose tuner the
	// destination supervisor rejected stays behind and is not
	// counted), Event.Reason the trigger of the first unit that
	// arrived. The individual MigrationEvents are published alongside.
	MigrationBatchEvent
	// RequestCompleteEvent fires when a request-shaped workload (a
	// webserver request, a game-loop frame, a VM demand slice, a
	// transcode unit) completes one unit of work. Event.Source names the
	// instance, Event.Workload its registry kind, Event.Latency the
	// completion latency, Event.Deadline the relative deadline (0 =
	// none) and Event.Missed whether it finished late. Event.Core is
	// the instance's current core on a laned machine
	// (WithCoreParallelism) and after a cross-machine Transfer; on a
	// single-engine machine, cross-core migrations leave it at the
	// core the instance was placed on at spawn.
	RequestCompleteEvent
)

// String returns the kind's name.
func (k EventKind) String() string {
	switch k {
	case TunerTickEvent:
		return "tuner-tick"
	case BudgetExhaustedEvent:
		return "budget-exhausted"
	case CoreLoadEvent:
		return "core-load"
	case MigrationEvent:
		return "migration"
	case AdmissionRejectEvent:
		return "admission-reject"
	case MigrationBatchEvent:
		return "migration-batch"
	case RequestCompleteEvent:
		return "request-complete"
	default:
		return "unknown"
	}
}

// Event is one observation published by a System.
type Event struct {
	// Kind discriminates which of the payload fields are valid.
	Kind EventKind
	// At is the simulated instant of the event (every event kind uses
	// the same timebase: the System's engine).
	At Time
	// Core is the index of the originating core, or -1 for
	// system-wide events (core-load samples, admission rejects).
	Core int
	// Source names the originating component: the tuned task for
	// tuner ticks, the server for exhaustions, the rejected instance
	// for admission rejects.
	Source string
	// Snapshot is the activation record of a TunerTickEvent.
	Snapshot TunerSnapshot
	// Loads is the per-core effective load of a CoreLoadEvent. The
	// slice is the publisher's reused sample buffer: it is valid only
	// for the duration of Observe, and an observer that retains the
	// sample must copy it (every collector in this module does).
	Loads []float64
	// From is the origin core of a MigrationEvent (Core holds the
	// destination); meaningless for other kinds.
	From int
	// FromMachine and ToMachine are the machine indices of a
	// cluster-scope MigrationEvent — a fleet balancer re-placing a job
	// across machines. Machine-scope (cross-core) migrations leave both
	// zero: a MigrationEvent is cross-machine iff FromMachine !=
	// ToMachine.
	FromMachine int
	ToMachine   int
	// Live reports whether a cross-machine MigrationEvent carried the
	// CBS server state across (a live Transfer) rather than respawning
	// the workload on the destination. Machine-scope migrations are
	// always live and leave it false.
	Live bool
	// Reason is what triggered a MigrationEvent or MigrationBatchEvent
	// ("periodic", "imbalance", "steal", "numa", "admission" or
	// "manual") or the placement error of an AdmissionRejectEvent.
	Reason string
	// Count is the number of units moved by a MigrationBatchEvent;
	// zero for other kinds.
	Count int
	// Latency is the completion latency of a RequestCompleteEvent.
	Latency Duration
	// Deadline is the relative response deadline of a
	// RequestCompleteEvent (0 when the request ran without one).
	Deadline Duration
	// Missed reports whether a RequestCompleteEvent finished past its
	// deadline.
	Missed bool
	// Workload is the registry kind of the instance that produced a
	// RequestCompleteEvent ("webserver", "gameloop", ...).
	Workload string
}

// Observer receives System events.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f(e).
func (f ObserverFunc) Observe(e Event) { f(e) }

// subscription is one live observer registration.
type subscription struct {
	obs       Observer
	cancelled atomic.Bool
}

// Subscribe registers an observer and returns its cancel function.
// The first subscription starts the per-core load sampler, so systems
// that never subscribe run exactly the event sequence they always did.
//
// The bus itself — registration, cancellation and event delivery — is
// safe for concurrent use: a draining goroutine may Subscribe or
// cancel while the simulation publishes. The exception is a Subscribe
// that (re)starts the load sampler: arming it schedules on the
// simulation engine, which is not goroutine-safe, so attach
// the sampler-starting first observer from the simulation's goroutine
// (in practice: before Run), as every collector in this module does.
func (s *System) Subscribe(o Observer) (cancel func()) {
	if o == nil {
		panic("selftune: Subscribe(nil)")
	}
	sub := &subscription{obs: o}
	s.obsMu.Lock()
	next := append(slices.Clip(s.subscribers()), sub)
	s.observers.Store(&next)
	s.obsMu.Unlock()
	s.startSampler()
	return func() {
		sub.cancelled.Store(true)
		s.cancels.Add(1)
	}
}

// subscribers returns the live subscription list. Subscribe and
// compact replace the list whole and never write one in place, so a
// caller may range over it while Observe callbacks subscribe or
// cancel.
func (s *System) subscribers() []*subscription {
	if p := s.observers.Load(); p != nil {
		return *p
	}
	return nil
}

// publish delivers an event to every observer live at publish time.
// Observers subscribed from inside an Observe callback start receiving
// from the next event; cancelled ones are skipped, and compacted away
// afterwards once a cancel has been counted. Delivery takes no lock:
// an Observe callback may itself publish (the reactive balancer
// migrating from a load sample) or subscribe, and concurrent cancels
// only flip their subscription's flag.
func (s *System) publish(e *Event) {
	subs := s.subscribers()
	if len(subs) == 0 {
		return
	}
	for _, sub := range subs {
		if !sub.cancelled.Load() {
			sub.obs.Observe(*e)
		}
	}
	if s.cancels.Load() > 0 {
		s.compact()
	}
}

// compact replaces the subscription list with its live entries. The
// counter is cleared before the list is read: a cancel that lands
// after the read counts again and is compacted by a later publish.
func (s *System) compact() {
	s.obsMu.Lock()
	s.cancels.Store(0)
	live := slices.DeleteFunc(slices.Clone(s.subscribers()), func(sub *subscription) bool {
		return sub.cancelled.Load()
	})
	s.observers.Store(&live)
	s.obsMu.Unlock()
}

// startSampler schedules the periodic per-core load sample on the
// System's engine. Idempotent; the sampler retires itself once every
// observer has cancelled (publish compacts the list), and the next
// Subscribe restarts it.
func (s *System) startSampler() {
	s.obsMu.Lock()
	if s.samplerOn {
		s.obsMu.Unlock()
		return
	}
	s.samplerOn = true
	s.obsMu.Unlock()
	var tick func()
	tick = func() {
		s.sampleBuf = s.machine.LoadsInto(s.sampleBuf[:0])
		s.publish(&Event{
			Kind:  CoreLoadEvent,
			At:    s.engine.Now(),
			Core:  -1,
			Loads: s.sampleBuf,
		})
		s.obsMu.Lock()
		if len(s.subscribers()) == 0 {
			s.samplerOn = false
			s.obsMu.Unlock()
			return
		}
		s.obsMu.Unlock()
		s.engine.After(s.loadSample, tick)
	}
	s.engine.After(s.loadSample, tick)
}
