package main

// The four workloads. Each builds its scenario from the seed, warms up
// untimed, then advances through a fixed simulated horizon in
// fixed-size Run calls. Host metrics cover the measured phase only;
// simulated metrics cover the whole horizon and are deterministic at
// a fixed seed, so the digest over them must match across processes,
// worker counts and traced runs.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/feedback"
	"repro/internal/simtime"
	"repro/internal/workload"
	"repro/selftune"
	"repro/selftune/cluster"
	"repro/selftune/telemetry"
)

// config is one repetition's settings.
type config struct {
	seed    uint64
	workers int       // cluster.WithParallelism and selftune.WithCoreParallelism
	scale   float64   // multiplies every measured horizon; 1 is the benchmark
	rec     *recorder // nil in the untraced run
}

// workloadDef describes one workload.
type workloadDef struct {
	name    string
	warmup  selftune.Duration
	measure selftune.Duration // at scale 1
	chunk   selftune.Duration // simulated length of one Run call
	build   func(c config) (instance, error)
}

// instance is a built workload.
type instance interface {
	run(d selftune.Duration)
	steps() uint64
	// counts returns the layer counters, sampled around the measured
	// phase.
	counts() counts
	// warmedUp checks the state the measured phase starts from.
	warmedUp() error
	// chunkDone runs after measured chunk i of n.
	chunkDone(i, n int)
	// finish checks the outputs and adds the simulated metrics, the
	// traced layer metrics and further digest input.
	finish(o *outcome) error
	close()
}

// counts are the layer counters every workload reports.
type counts struct {
	requests, migrations, records, activations, fences float64
	arrivals, rejected, replacements                   float64
}

// workloads lists the benchmark's workloads in their default order.
var workloads = []*workloadDef{
	{
		// One chunk per tuner sampling period: every tuner activates
		// once in every chunk, so chunk times are alike.
		name: "tune", warmup: 5 * selftune.Second, measure: 18 * selftune.Second,
		chunk: 200 * selftune.Millisecond, build: buildTune,
	},
	{
		name: "dense", warmup: 60 * selftune.Second, measure: 720 * selftune.Second,
		chunk: 1 * selftune.Second, build: buildDense,
	},
	{
		name: "fleet", warmup: 10 * selftune.Second, measure: 24 * selftune.Second,
		chunk: 100 * selftune.Millisecond, build: buildFleet,
	},
	{
		name: "rescue", warmup: 6 * selftune.Second, measure: 24 * selftune.Second,
		chunk: 100 * selftune.Millisecond, build: buildRescue,
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// execute runs one repetition of a workload.
func execute(def *workloadDef, c config) (*outcome, error) {
	o := &outcome{Workload: def.name, Seed: c.seed, Traced: c.rec != nil}
	r := c.rec
	t0 := time.Now()
	r.begin("bench", "setup")
	inst, err := def.build(c)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", def.name, err)
	}
	defer inst.close()
	built := time.Since(t0)
	for t := selftune.Duration(0); t < def.warmup; t += def.chunk {
		inst.run(def.chunk)
	}
	r.end()
	setup := time.Since(t0)
	if err := inst.warmedUp(); err != nil {
		return nil, fmt.Errorf("%s: after warm-up: %w", def.name, err)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, s0 := inst.counts(), inst.steps()
	n := max(1, int(math.Round(float64(def.measure)*c.scale/float64(def.chunk))))
	start := time.Now()
	r.begin("bench", "measured")
	for i := 0; i < n; i++ {
		r.begin("run", "chunk")
		inst.run(def.chunk)
		r.end()
		inst.chunkDone(i, n)
	}
	r.end()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	c1, events := inst.counts(), float64(inst.steps()-s0)

	simS := float64(selftune.Duration(n)*def.chunk) / float64(selftune.Second)
	o.Host.add("sim_speed", simS/wall.Seconds(), "sim_s/s")
	o.Host.add("setup_s", setup.Seconds(), "s")

	l := &o.Layers
	l.add("selftune.events", events, "count")
	l.add("selftune.ns_per_event", ratio(float64(wall.Nanoseconds()), events), "ns")
	l.add("selftune.requests", c1.requests-c0.requests, "count")
	l.add("selftune.migrations", c1.migrations-c0.migrations, "count")
	l.add("selftune.fences", c1.fences-c0.fences, "count")
	l.add("selftune.us_per_fence", ratio(float64(wall.Microseconds()), c1.fences-c0.fences), "us")
	l.add("ktrace.records", c1.records-c0.records, "count")
	l.add("core.activations", c1.activations-c0.activations, "count")
	l.add("cluster.arrivals", c1.arrivals-c0.arrivals, "count")
	l.add("cluster.rejected", c1.rejected-c0.rejected, "count")
	l.add("cluster.replacements", c1.replacements-c0.replacements, "count")
	l.add("setup.build_ms", float64(built.Nanoseconds())/1e6, "ms")
	l.add("setup.warmup_ms", float64((setup-built).Nanoseconds())/1e6, "ms")
	l.add("go.alloc_mb_per_sim_s", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/simS, "MB/sim_s")
	l.add("go.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	l.add("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	if r != nil {
		r.spanTiming(l, "run", "chunk", "ms")
	}

	if err := inst.finish(o); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	h := sha256.New()
	for _, m := range o.Sim {
		fmt.Fprintf(h, "%s=%v\n", m.Name, m.Value)
	}
	fmt.Fprintf(h, "steps=%d counts=%+v %+v\n", inst.steps(), c0, c1)
	for _, s := range o.digestExtra {
		fmt.Fprintln(h, s)
	}
	o.Digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	o.Host.add("peak_rss_mb", peakRSSMB(), "MB")
	return o, nil
}

// tracerRecords returns the syscalls every tracer of a machine has
// recorded: the shared buffer, or each core's own on a laned machine.
func tracerRecords(sys *selftune.System) float64 {
	if t := sys.Tracer(); t != nil {
		return float64(t.Recorded())
	}
	var n int
	for i := 0; i < sys.CPUs(); i++ {
		n += sys.CoreTracer(i).Recorded()
	}
	return float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d selftune.Duration) float64 { return float64(d) / float64(selftune.Millisecond) }

// addRequests adds the request metrics every workload reports.
func addRequests(o *outcome, lat telemetry.LatencyHistogram, missed int64) error {
	n := lat.Total()
	if n == 0 {
		return fmt.Errorf("no request completed")
	}
	o.Sim.add("requests", float64(n), "count")
	o.Sim.add("req_p50_ms", ms(lat.Quantile(0.50)), "ms")
	o.Sim.add("req_p99_ms", ms(lat.Quantile(0.99)), "ms")
	o.Sim.add("miss_frac", float64(missed)/float64(n), "ratio")
	return nil
}

// spawnSpec is one generated spawn of a machine workload.
type spawnSpec struct {
	kind  string
	core  int
	util  float64 // SpawnUtil; 0 leaves the kind's default
	hint  float64 // SpawnHint; 0 derives it
	tuned bool
	start selftune.Time
}

// withStarts draws each spawn's start instant in [0, 100ms) from the
// seed, so seeds differ in the phase of every application.
func withStarts(seed uint64, plan []spawnSpec) []spawnSpec {
	r := rand.New(rand.NewPCG(seed, 0x62656e6368))
	for i := range plan {
		plan[i].start = selftune.Time(r.Int64N(int64(100 * selftune.Millisecond)))
	}
	return plan
}

// spawn places one generated spawn, timed as a span.
func spawn(sys *selftune.System, r *recorder, s spawnSpec, i int, tuner *selftune.TunerConfig) (*selftune.Handle, error) {
	opts := []selftune.SpawnOption{
		selftune.SpawnName(fmt.Sprintf("%s-%d", s.kind, i)),
		selftune.OnCore(s.core),
	}
	if s.util > 0 {
		opts = append(opts, selftune.SpawnUtil(s.util))
	}
	if s.hint > 0 {
		opts = append(opts, selftune.SpawnHint(s.hint))
	}
	if tuner != nil {
		opts = append(opts, selftune.Tuned(*tuner))
	}
	var h *selftune.Handle
	var err error
	r.timed("selftune", "spawn", func() { h, err = sys.Spawn(s.kind, opts...) })
	return h, err
}

// --- tune -------------------------------------------------------------------

const tuneCores = 8

type tuneInst struct {
	c     config
	sys   *selftune.System
	col   *telemetry.Collector
	tuned []*selftune.Handle
	// Traced run only: the wrapped tracer and the captured controller
	// outputs.
	sink   *timedSink
	grants []grant
}

func tunePlan(seed uint64) []spawnSpec {
	var plan []spawnSpec
	for core := 0; core < tuneCores; core++ {
		plan = append(plan,
			spawnSpec{kind: "video", core: core, util: 0.15, tuned: true},
			spawnSpec{kind: "mp3", core: core, tuned: true},
			spawnSpec{kind: "gameloop", core: core, util: 0.1, tuned: true},
			spawnSpec{kind: "rtload", core: core, util: 0.1},
			spawnSpec{kind: "noise", core: core, hint: 0.05},
		)
	}
	return withStarts(seed, plan)
}

func buildTune(c config) (instance, error) {
	sys, err := selftune.NewSystem(selftune.WithSeed(c.seed), selftune.WithCPUs(tuneCores))
	if err != nil {
		return nil, err
	}
	t := &tuneInst{c: c, sys: sys}
	if c.rec == nil {
		t.col, _ = telemetry.Attach(sys)
	} else {
		t.col = telemetry.NewCollector()
		sys.Subscribe(timedObserver{t.col, c.rec.hist("telemetry.observe")})
		t.sink = &timedSink{inner: sys.Tracer(), h: c.rec.hist("ktrace.record"), trains: map[int]*[]simtime.Time{}}
	}
	plan := tunePlan(c.seed)
	handles := make([]*selftune.Handle, len(plan))
	for i, s := range plan {
		var cfg *selftune.TunerConfig
		if s.tuned {
			tc := selftune.DefaultTunerConfig()
			if c.rec != nil {
				tc.Controller = &timedController{
					Controller: feedback.NewLFSPP(), h: c.rec.hist("feedback.tick"),
					core: s.core, tuner: len(t.tuned), out: &t.grants,
				}
			}
			cfg = &tc
		}
		h, err := spawn(sys, c.rec, s, i, cfg)
		if err != nil {
			sys.Close()
			return nil, err
		}
		handles[i] = h
		if s.tuned {
			t.tuned = append(t.tuned, h)
		}
	}
	if t.sink != nil {
		for _, h := range t.tuned {
			t.sink.trains[h.Tuner().Task().PID()] = new([]simtime.Time)
		}
		for _, h := range handles {
			if m, ok := h.Workload().(workload.LaneMover); ok {
				m.MoveLane(h.Core().Scheduler().Engine(), t.sink)
			}
		}
	}
	for i, h := range handles {
		h.Start(plan[i].start)
	}
	return t, nil
}

func (t *tuneInst) run(d selftune.Duration) { t.sys.Run(d) }
func (t *tuneInst) steps() uint64           { return t.sys.Steps() }
func (t *tuneInst) chunkDone(int, int)      {}
func (t *tuneInst) close()                  { t.sys.Close() }

func (t *tuneInst) counts() counts {
	var acts int
	for _, h := range t.tuned {
		acts += len(h.Tuner().Snapshots())
	}
	return counts{
		requests:    float64(t.col.Snapshot().Requests),
		migrations:  float64(t.sys.Migrations()),
		records:     tracerRecords(t.sys),
		activations: float64(acts),
	}
}

func (t *tuneInst) warmedUp() error {
	for _, h := range t.tuned {
		if h.Tuner().DetectedFrequency() <= 0 {
			return fmt.Errorf("tuner of %s has detected no period", h.Name())
		}
	}
	return nil
}

func (t *tuneInst) finish(o *outcome) error {
	snap := t.col.Snapshot()
	if err := addRequests(o, snap.Latency, snap.DeadlineMisses); err != nil {
		return err
	}
	var bw float64
	var acts int
	var ift []float64
	for _, h := range t.tuned {
		for _, s := range h.Tuner().Snapshots() {
			bw += s.Bandwidth
			acts++
		}
		if p := h.Player(); p != nil {
			for _, d := range p.InterFrameTimes() {
				ift = append(ift, ms(d))
			}
		}
	}
	o.Sim.add("reject_frac", 0, "ratio")
	o.Sim.add("tuned_bw", ratio(bw, float64(acts)), "ratio")
	o.Sim.add("ift_std_ms", stddev(ift), "ms")
	o.Sim.add("live_frac", 0, "ratio")

	r := t.c.rec
	if r == nil {
		return nil
	}
	cfg := selftune.DefaultTunerConfig()
	for _, h := range t.tuned {
		r.replaySpectrum(cfg, *t.sink.trains[h.Tuner().Task().PID()], h.Tuner().Snapshots())
	}
	r.replaySupervisor(t.grants, 1, cfg.MinBandwidth)
	if err := r.probeTelemetry(t.col); err != nil {
		return err
	}
	l := &o.Layers
	r.spanTiming(l, "selftune", "spawn", "us")
	r.callTiming(l, "ktrace.record", "ns")
	r.callTiming(l, "spectrum.observe", "us")
	r.callTiming(l, "spectrum.detect", "us")
	r.callTiming(l, "feedback.tick", "ns")
	r.callTiming(l, "supervisor.request", "ns")
	r.callTiming(l, "telemetry.observe", "ns")
	r.spanTiming(l, "telemetry", "snapshot", "ms")
	r.spanTiming(l, "telemetry", "export", "ms")
	return nil
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	return math.Sqrt(sq / float64(len(xs)-1))
}

// --- dense ------------------------------------------------------------------

const denseCores = 64

// requestFold folds request completions into a latency histogram: the
// dense workload's only observer, so memory stays flat.
type requestFold struct {
	lat    telemetry.LatencyHistogram
	missed int64
}

func (f *requestFold) Observe(e selftune.Event) {
	if e.Kind == selftune.RequestCompleteEvent {
		f.lat.Observe(e.Latency)
		if e.Missed {
			f.missed++
		}
	}
}

type denseInst struct {
	c   config
	sys *selftune.System
	req requestFold
	bal *timedBalancer // traced run only
}

func densePlan(seed uint64) []spawnSpec {
	var plan []spawnSpec
	for core := 0; core < denseCores; core++ {
		plan = append(plan, spawnSpec{kind: "rtload", core: core, util: 0.35})
		if core%4 == 0 {
			plan = append(plan, spawnSpec{kind: "webserver", core: core, util: 0.2})
		}
	}
	return withStarts(seed, plan)
}

func buildDense(c config) (instance, error) {
	d := &denseInst{c: c}
	var bal selftune.Balancer = selftune.BalanceWorkStealing()
	if c.rec != nil {
		d.bal = &timedBalancer{Balancer: bal, r: c.rec}
		bal = d.bal
	}
	sys, err := selftune.NewSystem(
		selftune.WithSeed(c.seed),
		selftune.WithCPUs(denseCores),
		selftune.WithCoreParallelism(c.workers),
		selftune.WithBalancer(bal),
	)
	if err != nil {
		return nil, err
	}
	d.sys = sys
	var obs selftune.Observer = &d.req
	if c.rec != nil {
		obs = timedObserver{obs, c.rec.hist("telemetry.observe")}
	}
	sys.Subscribe(obs)
	plan := densePlan(c.seed)
	for i, s := range plan {
		h, err := spawn(sys, c.rec, s, i, nil)
		if err != nil {
			sys.Close()
			return nil, err
		}
		h.Start(s.start)
	}
	return d, nil
}

func (d *denseInst) run(t selftune.Duration) { d.sys.Run(t) }
func (d *denseInst) steps() uint64           { return d.sys.Steps() }
func (d *denseInst) chunkDone(int, int)      {}
func (d *denseInst) close()                  { d.sys.Close() }

func (d *denseInst) counts() counts {
	return counts{
		requests:   float64(d.req.lat.Total()),
		migrations: float64(d.sys.Migrations()),
		records:    tracerRecords(d.sys),
		fences:     float64(d.sys.Fences()),
	}
}

func (d *denseInst) warmedUp() error { return nil }

func (d *denseInst) finish(o *outcome) error {
	if err := addRequests(o, d.req.lat, d.req.missed); err != nil {
		return err
	}
	o.Sim.add("reject_frac", 0, "ratio")
	o.Sim.add("tuned_bw", 0, "ratio")
	o.Sim.add("live_frac", 0, "ratio")
	r := d.c.rec
	if r == nil {
		return nil
	}
	l := &o.Layers
	r.spanTiming(l, "selftune", "spawn", "us")
	r.spanTiming(l, "selftune", "balance_plan", "us")
	l.add("selftune.moves_planned", float64(d.bal.moves), "count")
	l.add("selftune.move_yield", ratio(float64(d.sys.Migrations()), float64(d.bal.moves)), "ratio")
	r.callTiming(l, "telemetry.observe", "ns")
	return nil
}

// --- fleet and rescue -------------------------------------------------------

// clusterInst drives either cluster workload.
type clusterInst struct {
	c        config
	cl       *cluster.Cluster
	bal      *timedFleetBalancer // traced run only
	surge    []*cluster.Realm    // triple their rate for the middle third
	base     []float64           // their rates before the surge
	resident float64             // summed per measured tick
	ticks    int
}

// newCluster builds the cluster with the workload's options; traced,
// the fleet balancer is wrapped.
func newCluster(c config, bal cluster.ClusterBalancer, opts ...cluster.Option) (*clusterInst, error) {
	ci := &clusterInst{c: c}
	if c.rec != nil {
		ci.bal = &timedFleetBalancer{ClusterBalancer: bal, r: c.rec}
		bal = ci.bal
	}
	opts = append([]cluster.Option{
		cluster.WithSeed(c.seed),
		cluster.WithParallelism(c.workers),
		cluster.WithRequestStats(),
		cluster.WithFleetBalancer(bal),
		cluster.WithFleetBalanceInterval(500 * selftune.Millisecond),
	}, opts...)
	cl, err := cluster.New(opts...)
	if err != nil {
		return nil, err
	}
	ci.cl = cl
	return ci, nil
}

func buildFleet(c config) (instance, error) {
	ci, err := newCluster(c, cluster.FleetWorstFit(0, 0),
		cluster.WithMachines(128),
		cluster.WithCores(32),
		cluster.WithDetail(2),
		cluster.WithAutoscaler(cluster.DefaultAutoscalerConfig()),
	)
	if err != nil {
		return nil, err
	}
	capacity := ci.cl.Capacity()
	for i := 0; i < 8; i++ {
		r, err := ci.cl.AddRealm(cluster.RealmConfig{
			Name:        fmt.Sprintf("realm%d", i),
			Reservation: capacity * 0.08,
			Rate:        110,
			Mix: []cluster.WorkloadSpec{
				{Kind: "webserver", Hint: 0.2, Util: 0.2, Service: cluster.Exp(8 * selftune.Second), Weight: 2},
				{Kind: "vmboot", Hint: 0.3, Util: 0.25, Service: cluster.Pareto(4*selftune.Second, 1.6)},
			},
		})
		if err != nil {
			ci.close()
			return nil, err
		}
		if i < 2 {
			ci.surge = append(ci.surge, r)
		}
	}
	return ci, nil
}

func buildRescue(c config) (instance, error) {
	bounded := telemetry.WithSeriesCapacity(4096)
	ci, err := newCluster(c, cluster.BalanceSLOAware(),
		cluster.WithMachines(16),
		cluster.WithCores(16),
		cluster.WithDetail(16),
		cluster.WithMachineTelemetry(bounded),
		cluster.WithTelemetry(bounded),
	)
	if err != nil {
		return nil, err
	}
	capacity := ci.cl.Capacity()
	frontend, err := ci.cl.AddRealm(cluster.RealmConfig{
		Name:        "frontend",
		Reservation: capacity * 0.35,
		Rate:        32,
		QueueCap:    64,
		Mix: []cluster.WorkloadSpec{{
			Kind: "webserver", Hint: 0.15, Util: 0.45,
			Service: cluster.Exp(1500 * selftune.Millisecond),
		}},
		SLO: telemetry.SLO{Quantile: 0.95, Threshold: 250 * selftune.Millisecond},
	})
	if err == nil {
		_, err = ci.cl.AddRealm(cluster.RealmConfig{
			Name:        "batch",
			Reservation: capacity * 0.55,
			Rate:        48,
			QueueCap:    64,
			Mix: []cluster.WorkloadSpec{
				{Kind: "rtload", Hint: 0.35, Util: 0.15, Service: cluster.Exp(6 * selftune.Second)},
				{Kind: "rtload", Hint: 0.05, Util: 0.55, Service: cluster.Exp(6 * selftune.Second)},
			},
		})
	}
	if err != nil {
		ci.close()
		return nil, err
	}
	ci.surge = []*cluster.Realm{frontend}
	return ci, nil
}

func (ci *clusterInst) run(d selftune.Duration) { ci.cl.Run(d) }
func (ci *clusterInst) steps() uint64           { return ci.cl.Steps() }
func (ci *clusterInst) close()                  { ci.cl.Close() }

func (ci *clusterInst) counts() counts {
	var k counts
	for _, r := range ci.cl.Realms() {
		st := r.Stats()
		k.arrivals += float64(st.Arrived)
		k.rejected += float64(st.Rejected)
	}
	for i := 0; i < ci.cl.Machines(); i++ {
		m := ci.cl.Machine(i)
		k.migrations += float64(m.Migrations())
		k.records += tracerRecords(m)
	}
	req, _ := ci.cl.FleetRequests()
	k.requests = float64(req)
	k.replacements = float64(ci.cl.Replacements())
	return k
}

// conserved checks that every arrival is admitted, rejected or queued,
// and that admissions minus departures are the resident jobs.
func (ci *clusterInst) conserved() error {
	var admitted, departed int
	for _, r := range ci.cl.Realms() {
		st := r.Stats()
		if st.Arrived != st.Admitted+st.Rejected+st.Queue {
			return fmt.Errorf("realm %s: %d arrived != %d admitted + %d rejected + %d queued",
				st.Name, st.Arrived, st.Admitted, st.Rejected, st.Queue)
		}
		admitted += st.Admitted
		departed += st.Departed
	}
	if admitted-departed != ci.cl.Resident() {
		return fmt.Errorf("%d admitted - %d departed != %d resident", admitted, departed, ci.cl.Resident())
	}
	return nil
}

func (ci *clusterInst) warmedUp() error { return ci.conserved() }

// chunkDone triples the surging realms' rates for the middle third of
// the measured phase; traced, it also times a fleet snapshot every
// three simulated seconds (a snapshot costs as much as the balancer's
// own, so once per balance interval would double the traced run's
// work).
func (ci *clusterInst) chunkDone(i, n int) {
	switch i + 1 {
	case n / 3:
		for _, r := range ci.surge {
			ci.base = append(ci.base, r.Rate())
			r.SetRate(3 * r.Rate())
		}
	case 2 * n / 3:
		for k, rate := range ci.base {
			ci.surge[k].SetRate(rate)
		}
	}
	ci.resident += float64(ci.cl.Resident())
	ci.ticks++
	if ci.c.rec != nil && i%30 == 29 {
		ci.c.rec.timed("cluster", "snapshot", func() { ci.cl.Snapshot() })
	}
}

func (ci *clusterInst) finish(o *outcome) error {
	if err := ci.conserved(); err != nil {
		return err
	}
	_, missed := ci.cl.FleetRequests()
	if err := addRequests(o, ci.cl.FleetLatency(), missed); err != nil {
		return err
	}
	var arrived, rejected, admitted int
	for _, r := range ci.cl.Realms() {
		st := r.Stats()
		arrived += st.Arrived
		rejected += st.Rejected
		admitted += st.Admitted
		o.digestExtra = append(o.digestExtra, fmt.Sprintf("%+v", st))
	}
	o.Sim.add("reject_frac", ratio(float64(rejected), float64(arrived)), "ratio")
	o.Sim.add("tuned_bw", 0, "ratio")
	o.Sim.add("live_frac", ratio(float64(ci.cl.LiveReplacements()), float64(ci.cl.Replacements())), "ratio")

	r := ci.c.rec
	if r == nil {
		return nil
	}
	if mc := ci.cl.MachineCollector(); mc != nil {
		if err := r.probeTelemetry(mc); err != nil {
			return err
		}
	}
	l := &o.Layers
	r.spanTiming(l, "cluster", "snapshot", "ms")
	r.spanTiming(l, "cluster", "plan", "us")
	l.add("cluster.placements_planned", float64(ci.bal.placements), "count")
	l.add("cluster.move_yield", ratio(float64(ci.cl.Replacements()), float64(ci.bal.placements)), "ratio")
	l.add("cluster.live_moves", float64(ci.cl.LiveReplacements()), "count")
	l.add("cluster.admitted", float64(admitted), "count")
	l.add("cluster.resident_mean", ratio(ci.resident, float64(ci.ticks)), "count")
	if ci.cl.MachineCollector() != nil {
		r.spanTiming(l, "telemetry", "snapshot", "ms")
		r.spanTiming(l, "telemetry", "export", "ms")
	}
	return nil
}
