// Package core implements the paper's headline contribution: the
// self-tuning scheduler of Figure 3. Each legacy application gets a
// task controller (Tuner) that
//
//  1. downloads the application's syscall timestamps from the kernel
//     tracer,
//  2. feeds them to the period analyser to estimate the activation
//     period P,
//  3. samples the scheduler's consumed-CPU-time sensor and runs a
//     feedback controller (LFS++ by default) to compute a budget
//     request Q_req, and
//  4. submits (Q_req, P) to the supervisor, applying the granted
//     reservation to the application's CBS server.
//
// New manages one task in a server of its own, as in the paper.
// NewShared manages the threads of a multi-threaded application in one
// shared server, the paper's Sec. 6 future-work item; the two differ
// only in how step 2 learns the period.
//
// Everything is transparent to the application: no API calls, no
// instrumentation — exactly the paper's definition of support for
// legacy real-time applications.
package core

import (
	"fmt"

	"repro/internal/feedback"
	"repro/internal/ktrace"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/spectrum"
	"repro/internal/supervisor"
)

// Config parameterises a Tuner.
type Config struct {
	// Sampling is the controller activation period S. The paper warns
	// against S = P (asynchronous sampling makes job-wise adaptation
	// unstable); several periods per activation is the intended use.
	Sampling simtime.Duration
	// Horizon is the observation window H fed to the period analyser.
	Horizon simtime.Duration
	// Band is the analysed frequency range.
	Band spectrum.Band
	// Detect parameterises the peak-detection heuristic.
	Detect spectrum.DetectConfig
	// Controller computes budget requests; nil selects LFS++ with the
	// paper's defaults.
	Controller feedback.Controller
	// RateDetection enables the period analyser. When false the
	// reservation period stays at InitialPeriod (the configuration the
	// paper uses to evaluate the feedback in isolation, Sec. 5.4).
	RateDetection bool
	// InitialBudget and InitialPeriod set the reservation before the
	// loop has learned anything. The default budget is deliberately
	// generous (25% of the period): an under-provisioned reservation
	// throttles the application before the analyser has seen it, and
	// the throttling itself imprints the server period onto the
	// syscall train — the analyser then locks onto the reservation
	// instead of the application, and the loop self-reinforces. A
	// generous start lets the first detection see the application's
	// own structure; the controller tightens the budget immediately
	// after.
	InitialBudget simtime.Duration
	InitialPeriod simtime.Duration
	// MinBandwidth is the guaranteed floor registered with the
	// supervisor.
	MinBandwidth float64
	// MinEvents is the number of traced events required before the
	// analyser's verdict is trusted.
	MinEvents int
	// PeriodTolerance is the relative period change that resets the
	// controller history (old samples were scaled by the old period).
	PeriodTolerance float64
	// Mode selects the CBS flavour of the managed server.
	Mode sched.Mode
}

// DefaultConfig returns the configuration used by the paper's
// complete-feedback experiments. The aperiodicity criterion is
// stricter than the analyser default: the tuner re-tests every 200ms
// forever, so its per-window false-positive probability must be far
// smaller than a one-shot analysis needs — and a genuinely periodic
// 2s window measures a peak-to-mean ratio an order of magnitude above
// this threshold anyway.
func DefaultConfig() Config {
	detect := spectrum.DefaultDetect
	detect.MinPeakToMean = 4.5
	return Config{
		Sampling:        200 * simtime.Millisecond,
		Horizon:         2 * simtime.Second,
		Band:            spectrum.DefaultBand,
		Detect:          detect,
		RateDetection:   true,
		InitialBudget:   10 * simtime.Millisecond,
		InitialPeriod:   40 * simtime.Millisecond,
		MinBandwidth:    0.01,
		MinEvents:       50,
		PeriodTolerance: 0.10,
		Mode:            sched.HardCBS,
	}
}

// Snapshot records the tuner state after one activation, the data
// behind Figures 13-14's "reserved fraction of CPU" curves.
type Snapshot struct {
	At        simtime.Time
	Period    simtime.Duration // current period estimate
	Requested simtime.Duration // budget requested from the supervisor
	Granted   simtime.Duration // budget actually applied
	Bandwidth float64          // granted / period
	Detected  float64          // last analyser verdict in Hz (0 = none; New only)
	Events    int              // events inside the analyser window (New only)
}

// Tuner is the task controller of Figure 3. Built by New it manages
// one task in a CBS server of its own; built by NewShared it manages
// the threads of one application in a shared server, scheduled inside
// it by fixed priority, with one analyser window per thread and one
// feedback law sizing the shared budget.
type Tuner struct {
	cfg    Config
	name   string // of the server and the supervisor client
	sd     *sched.Scheduler
	sup    *supervisor.Supervisor
	client *supervisor.Client
	tracer *ktrace.Buffer
	tasks  []*sched.Task
	server *sched.Server

	windows []*spectrum.Window // one per task; nil without rate detection

	// The detect step's storage, reused by every activation: the
	// drained events, their instants, the amplitudes and the peak
	// heuristic's scratch.
	drained  []ktrace.Event
	times    []simtime.Time
	spec     spectrum.Spectrum
	detector spectrum.Detector

	// shared selects how the period is learned: per-thread verdicts
	// frozen at the smallest period (NewShared) or per-task hysteresis
	// (New).
	shared bool
	// locked is set once a period has been learned: a New tuner's
	// first detection, a NewShared tuner's frozen verdicts. Until then
	// the loop holds the budget.
	locked   bool
	period   simtime.Duration
	detected float64

	// Detection hysteresis of a New tuner: a period change is applied
	// only after the analyser repeats it, so one noisy verdict (common
	// under heavy contention, when a dilated trace briefly favours a
	// harmonic) cannot flap the reservation period and reset the
	// controller.
	pendingPeriod simtime.Duration
	pendingCount  int

	// verdicts are a NewShared tuner's per-thread period estimates, one
	// per task, until they are stable enough to freeze. Once the shared
	// budget starts slicing jobs across server periods, the trace shows
	// the *server's* grid, so the verdicts must be taken from the
	// generous hold phase and then locked.
	verdicts []threadVerdict

	holdLastExh int // exhaustion counter during the hold phase
	holdGrowths int // budget growths spent during the hold phase

	snapshots []Snapshot
	running   bool
	stopped   bool
	tickFn    func()
	tickEv    sim.Timer
	tickAt    simtime.Time

	// BusTick, if non-nil, observes every activation. An embedding
	// system routes it onto its observation bus (the selftune observer
	// API), where every other observer subscribes.
	BusTick func(Snapshot)
}

// threadVerdict is one thread's period estimate (0 = none yet) and the
// consecutive ticks it has stayed within the period tolerance.
type threadVerdict struct {
	period simtime.Duration
	stable int
}

// Validate checks the invariants New and NewShared enforce on a
// configuration, letting callers fail before committing resources.
func (c Config) Validate() error {
	if c.Sampling <= 0 || c.Horizon <= 0 {
		return fmt.Errorf("core: sampling and horizon must be positive")
	}
	if c.InitialBudget <= 0 || c.InitialPeriod <= 0 || c.InitialBudget > c.InitialPeriod {
		return fmt.Errorf("core: invalid initial reservation Q=%v T=%v",
			c.InitialBudget, c.InitialPeriod)
	}
	return nil
}

// New creates a Tuner managing the given task: it builds the task's
// CBS server, attaches the task, points the tracer's PID filter at it
// and registers with the supervisor (which may be nil for
// unsupervised operation). The task must not be attached to a server
// already.
func New(sd *sched.Scheduler, sup *supervisor.Supervisor, tracer *ktrace.Buffer,
	task *sched.Task, cfg Config) (*Tuner, error) {

	return newTuner(sd, sup, tracer, "tuner:", []*sched.Task{task}, []int{0}, cfg)
}

// NewShared creates a Tuner managing the threads of a multi-threaded
// application in one shared server; prios[i] is the fixed priority of
// tasks[i] inside it (lower value = higher priority; rate-monotonic
// assignment is the sensible choice). The tasks must not be attached
// to servers already.
//
// This implements the paper's Sec. 6 future-work item ("optimal ways
// to deal with multi-threaded applications") with the design its
// Sec. 3.2 analysis suggests: the reservation period is set to the
// smallest detected thread period (the rate-monotonic-dominant one),
// and the budget follows the aggregate consumed-time sensor. As
// Figure 2 predicts, this configuration pays a bandwidth premium over
// per-thread reservations — quantified in this package's tests.
func NewShared(sd *sched.Scheduler, sup *supervisor.Supervisor, tracer *ktrace.Buffer,
	tasks []*sched.Task, prios []int, cfg Config) (*Tuner, error) {

	if len(tasks) == 0 {
		return nil, fmt.Errorf("core: NewShared needs at least one task")
	}
	if len(prios) != len(tasks) {
		return nil, fmt.Errorf("core: %d priorities for %d tasks", len(prios), len(tasks))
	}
	t, err := newTuner(sd, sup, tracer, "multituner:", tasks, prios, cfg)
	if err != nil {
		return nil, err
	}
	t.shared = true
	t.verdicts = make([]threadVerdict, len(tasks))
	return t, nil
}

// newTuner applies the configuration defaults, registers with the
// supervisor and attaches the tasks to a new server named prefix plus
// the first task's name.
func newTuner(sd *sched.Scheduler, sup *supervisor.Supervisor, tracer *ktrace.Buffer,
	prefix string, tasks []*sched.Task, prios []int, cfg Config) (*Tuner, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Controller == nil {
		cfg.Controller = feedback.NewLFSPP()
	}
	if cfg.MinEvents <= 0 {
		cfg.MinEvents = 50
	}
	if cfg.PeriodTolerance <= 0 {
		cfg.PeriodTolerance = 0.10
	}
	t := &Tuner{
		cfg:    cfg,
		name:   prefix + tasks[0].Name(),
		sd:     sd,
		sup:    sup,
		tracer: tracer,
		tasks:  tasks,
		period: cfg.InitialPeriod,
	}
	// Claim the bandwidth floor before creating the server: a rejected
	// registration must not leave an orphan reservation on the
	// scheduler.
	client, err := t.Claim(sup)
	if err != nil {
		return nil, err
	}
	t.client = client
	t.server = sd.NewServer(t.name, cfg.InitialBudget, cfg.InitialPeriod, cfg.Mode)
	for i, task := range tasks {
		task.AttachTo(t.server, prios[i])
		if cfg.RateDetection {
			t.windows = append(t.windows, spectrum.NewWindow(cfg.Band, cfg.Horizon))
		}
	}
	return t, nil
}

// Claim registers the tuner with sup under the configured bandwidth
// floor: the supervisor's admission step (Sec. 4, Eq. 1), and the only
// step of a move that may refuse. It changes nothing but sup, so a
// move asks for it before its server leaves the old core and, once the
// server has moved, hands the returned client to Rehome. A nil sup
// (unsupervised operation) claims nothing and never refuses.
func (t *Tuner) Claim(sup *supervisor.Supervisor) (*supervisor.Client, error) {
	if sup == nil {
		return nil, nil
	}
	client, ok := sup.Register(t.name, t.cfg.MinBandwidth)
	if !ok {
		return nil, fmt.Errorf("core: supervisor rejected registration of %s", t.tasks[0].Name())
	}
	return client, nil
}

// Rehome points the tuner at newSched, the core its managed server has
// moved to, and at client, the claim Claim made with that core's
// supervisor newSup. It releases the old core's claim and re-submits
// the current reservation through the new one, so the new supervisor's
// admission accounts for it (applying any compression the new core's
// contention forces). On a machine whose cores run on separate engine
// lanes, the pending activation moves to the new core's lane at the
// same instant. The controller history, period estimates and analyser
// windows all survive — the application did not change, only where it
// runs. Rehome cannot fail; it panics if the server is not on
// newSched.
func (t *Tuner) Rehome(newSched *sched.Scheduler, newSup *supervisor.Supervisor, client *supervisor.Client) {
	if !newSched.Owns(t.server) {
		panic(fmt.Sprintf("core: Rehome of %s before its server moved", t.tasks[0].Name()))
	}
	t.releaseClaim()
	t.sup, t.client = newSup, client
	t.apply(t.server.Budget(), t.server.Period())
	if oldEng, newEng := t.sd.Engine(), newSched.Engine(); oldEng != newEng && t.tickEv.Pending() {
		oldEng.Cancel(t.tickEv)
		t.tickEv = newEng.At(t.tickAt, t.tickFn)
	}
	t.sd = newSched
}

// releaseClaim gives the tuner's supervisor claim back.
func (t *Tuner) releaseClaim() {
	if t.client != nil {
		t.client.Release()
		t.sup.Unregister(t.client)
		t.client = nil
	}
}

// SetTracer repoints the tuner at another kernel trace buffer. On a
// per-core-tracer machine a migration moves the managed tasks' syscall
// streams to the destination core's buffer; the tuner must download
// its evidence from there.
func (t *Tuner) SetTracer(b *ktrace.Buffer) { t.tracer = b }

// Task returns the managed task (a NewShared tuner's first one).
func (t *Tuner) Task() *sched.Task { return t.tasks[0] }

// Server returns the managed CBS server.
func (t *Tuner) Server() *sched.Server { return t.server }

// Period returns the current reservation period: the task's period
// estimate, or a NewShared tuner's smallest thread period.
func (t *Tuner) Period() simtime.Duration { return t.period }

// DetectedFrequency returns the analyser's last verdict in Hz (0
// before the first confident detection, and always for a NewShared
// tuner, whose verdicts are per thread).
func (t *Tuner) DetectedFrequency() float64 { return t.detected }

// ThreadPeriods returns a NewShared tuner's per-thread period verdicts
// by PID (empty for a New tuner).
func (t *Tuner) ThreadPeriods() map[int]simtime.Duration {
	out := make(map[int]simtime.Duration, len(t.verdicts))
	for i, v := range t.verdicts {
		if v.period != 0 {
			out[t.tasks[i].PID()] = v.period
		}
	}
	return out
}

// Locked reports whether the tuner has learned a period: a New tuner's
// first detection, or a NewShared tuner's frozen per-thread verdicts.
func (t *Tuner) Locked() bool { return t.locked }

// Snapshots returns the activation history.
func (t *Tuner) Snapshots() []Snapshot { return t.snapshots }

// Start schedules the periodic controller activations. It must be
// called once, before running the engine.
func (t *Tuner) Start() {
	if t.running {
		panic("core: Tuner started twice")
	}
	t.running = true
	t.stopped = false
	t.tickFn = func() {
		if t.stopped {
			return
		}
		t.tick()
		t.armTick()
	}
	t.armTick()
}

// armTick schedules the next activation one sampling period from now on
// the managed scheduler's current engine, remembering the instant so a
// cross-lane Rehome can re-arm it on the destination lane.
func (t *Tuner) armTick() {
	eng := t.sd.Engine()
	t.tickAt = eng.Now().Add(t.cfg.Sampling)
	t.tickEv = eng.At(t.tickAt, t.tickFn)
}

// Stop cancels future activations. The tasks keep running in their
// server with the last applied reservation and the supervisor claim
// stays in place (the bandwidth is still consumed); the system simply
// stops adapting. Stop is idempotent and the tuner can be started
// again later.
func (t *Tuner) Stop() {
	if !t.running || t.stopped {
		return
	}
	t.stopped = true
	t.running = false
}

// Retire stops the tuner for good and releases its supervisor claim,
// so the departed workload's bandwidth is no longer accounted against
// the core. Used on teardown (selftune.System.Despawn); unlike after a
// plain Stop, a retired tuner must not be started again — it no longer
// holds a claim to request through. Idempotent.
func (t *Tuner) Retire() {
	t.Stop()
	t.releaseClaim()
}

// tick is one activation of the task controller: Figure 3's loop body.
func (t *Tuner) tick() {
	now := t.sd.Engine().Now()

	// Bootstrap guard: while no period has been learned yet, a server
	// that exhausted its budget during the sampling interval has been
	// dilating the application, and the trace collected meanwhile
	// shows the *server's* quantisation rather than the application's
	// period. Discard that evidence, grow the budget and try again —
	// before letting the analyser see any of it. After several growths
	// (e.g. when the supervisor caps the budget under contention) the
	// tuner accepts the imperfect evidence rather than holding forever.
	const maxHoldGrowths = 10
	if t.windows != nil && !t.locked && t.holdGrowths < maxHoldGrowths {
		exhaustions := t.server.Stats().Exhaustions
		exhausted := exhaustions > t.holdLastExh
		t.holdLastExh = exhaustions
		if exhausted {
			t.holdGrowths++
			for i, task := range t.tasks {
				if t.tracer != nil {
					t.drained = t.tracer.AppendDrainPID(t.drained[:0], task.PID())
				}
				t.windows[i].Reset()
			}
			clear(t.verdicts)
			t.actuate(now, min(simtime.Duration(1.5*float64(t.server.Budget())), t.server.Period()))
			return
		}
	}

	// 1-2. Download the batch of traced timestamps and update the
	// period estimate.
	if t.windows != nil && t.tracer != nil {
		if !t.shared {
			t.learnPeriod(now)
		} else if !t.locked {
			t.learnThreadPeriods(now)
		}
	}

	// With rate detection enabled, the feedback law is held back until
	// a period has been learned: the law rescales consumption by the
	// period, so acting on the initial guess can shrink the budget,
	// dilate the application's bursts and imprint the wrong period
	// onto the very trace the analyser is about to read.
	if t.windows != nil && !t.locked {
		t.actuate(now, t.server.Budget())
		return
	}

	// 3. Sample the scheduler state and run the feedback law.
	st := t.server.Stats()
	req := t.cfg.Controller.Tick(feedback.Sample{
		Now:         now,
		Consumed:    st.Consumed,
		Exhaustions: st.Exhaustions,
		Period:      t.period,
		Sampling:    t.cfg.Sampling,
		Budget:      t.server.Budget(),
	})
	if req > t.period {
		req = t.period
	}
	if req <= 0 {
		req = simtime.Microsecond
	}
	t.actuate(now, req)
}

// detect downloads task i's traced timestamps into its analyser window
// and returns the window's verdict in Hz, if the window holds enough
// events and the verdict is periodic.
func (t *Tuner) detect(now simtime.Time, i int) (float64, bool) {
	w := t.windows[i]
	t.drained = t.tracer.AppendDrainPID(t.drained[:0], t.tasks[i].PID())
	t.times = ktrace.AppendTimestamps(t.times[:0], t.drained)
	w.Observe(now, t.times)
	if w.Events() < t.cfg.MinEvents {
		return 0, false
	}
	w.SpectrumInto(&t.spec)
	det := t.detector.Detect(&t.spec, t.cfg.Detect)
	return det.Frequency, det.Periodic && det.Frequency > 0
}

// learnPeriod is a New tuner's period step: the first lock and any
// refinement of it apply at once, a different period only once the
// analyser has repeated it.
func (t *Tuner) learnPeriod(now simtime.Time) {
	f, ok := t.detect(now, 0)
	if !ok {
		return
	}
	newP := simtime.FromHertz(f)
	switch {
	case !t.locked || relDiff(newP, t.period) <= t.cfg.PeriodTolerance:
		t.locked = true
		t.detected = f
		t.period = newP
		t.pendingCount = 0
	case t.pendingPeriod != 0 && relDiff(newP, t.pendingPeriod) <= t.cfg.PeriodTolerance:
		// The same new period again: one more vote.
		t.pendingCount++
		t.pendingPeriod = newP
		if t.pendingCount >= 2 {
			// The change is real: per-period scalings of the
			// controller history are invalid.
			t.cfg.Controller.Reset()
			t.detected = f
			t.period = newP
			t.pendingCount = 0
			t.pendingPeriod = 0
		}
	default:
		t.pendingPeriod = newP
		t.pendingCount = 0
	}
}

// learnThreadPeriods is a NewShared tuner's period step, which runs
// only until the verdicts freeze: after the budget tightens, slower
// threads' jobs get sliced across server periods and their traces
// would re-imprint the server grid. The verdicts freeze, and the
// reservation period becomes the smallest of them, once every
// thread's estimate has stayed within the period tolerance for two
// consecutive ticks.
func (t *Tuner) learnThreadPeriods(now simtime.Time) {
	for i := range t.tasks {
		f, ok := t.detect(now, i)
		if !ok {
			continue
		}
		p := simtime.FromHertz(f)
		v := &t.verdicts[i]
		if v.period != 0 {
			if relDiff(p, v.period) <= t.cfg.PeriodTolerance {
				v.stable++
			} else {
				v.stable = 0
			}
		}
		v.period = p
	}
	minP := simtime.Duration(0)
	for _, v := range t.verdicts {
		if v.period == 0 || v.stable < 2 {
			return
		}
		if minP == 0 || v.period < minP {
			minP = v.period
		}
	}
	t.period = minP
	t.locked = true
	t.cfg.Controller.Reset()
}

// actuate is step 4: it submits the request at the current period to
// the supervisor, applies the grant to the server and records the
// activation.
func (t *Tuner) actuate(now simtime.Time, req simtime.Duration) {
	granted := t.apply(req, t.period)
	snap := Snapshot{
		At:        now,
		Period:    t.period,
		Requested: req,
		Granted:   granted,
		Bandwidth: t.server.Bandwidth(),
		Detected:  t.detected,
	}
	if t.windows != nil && !t.shared {
		snap.Events = t.windows[0].Events()
	}
	t.snapshots = append(t.snapshots, snap)
	if t.BusTick != nil {
		t.BusTick(snap)
	}
}

// apply submits the reservation (req, period) to the supervisor, when
// there is one, sets the server to the grant and returns it.
func (t *Tuner) apply(req, period simtime.Duration) simtime.Duration {
	granted := req
	if t.client != nil {
		granted = t.client.Request(req, period)
		if granted <= 0 {
			granted = simtime.Microsecond
		}
	}
	if granted != t.server.Budget() || period != t.server.Period() {
		t.server.SetParams(granted, period)
	}
	return granted
}

func relDiff(a, b simtime.Duration) float64 {
	if b == 0 {
		return 1
	}
	d := float64(a-b) / float64(b)
	if d < 0 {
		return -d
	}
	return d
}
