// Package telemetry is the measurement pipeline of the reproduction:
// a streaming Collector that subscribes to a System's observer bus and
// folds the event stream into typed series — counters (budget
// exhaustions, migrations, balancer batches, admission rejects),
// gauges (per-core
// utilisation, per-workload budget) and fixed-bucket histograms
// (supervisor compression error, per-core slack) — plus exporters that
// turn a Snapshot into the paper's figure data (CSV), a Chrome
// trace-event file (chrome://tracing, Perfetto) or live text reports.
//
// Typical use:
//
//	col, stop := telemetry.Attach(sys)
//	app.Start(0)
//	sys.Run(30 * selftune.Second)
//	stop()
//	snap := col.Snapshot()
//	snap.WriteCSV(csvFile)     // figure data, one series per signal
//	snap.WriteTrace(traceFile) // open in chrome://tracing or Perfetto
//
// The Collector is safe for concurrent use: events may be folded in
// while another goroutine takes Snapshots (snapshots are deep copies,
// never views of live state).
package telemetry

import (
	"sort"
	"strings"
	"sync"

	"repro/selftune"
)

// TickRecord is one tuner activation folded from a TunerTickEvent.
type TickRecord struct {
	At        selftune.Time
	Core      int
	Period    selftune.Duration
	Requested selftune.Duration
	Granted   selftune.Duration
	Bandwidth float64
	Detected  float64 // Hz, 0 = no verdict yet
}

// SourceSeries is the budget trajectory of one tuned workload.
type SourceSeries struct {
	Name        string
	Core        int // core of the latest tick (migrations move it)
	Exhaustions int
	Ticks       []TickRecord
}

// LoadSample is one periodic per-core utilisation sample.
type LoadSample struct {
	At    selftune.Time
	Loads []float64
}

// ExhaustRecord is one budget exhaustion instant.
type ExhaustRecord struct {
	At     selftune.Time
	Core   int
	Source string
}

// MigrationRecord is one migration instant: a reservation moving
// between cores of one machine, or — in cluster-scope streams — a job
// moving between machines of a fleet.
type MigrationRecord struct {
	At       selftune.Time
	From, To int
	Source   string
	Reason   string
	// FromMachine and ToMachine are the machine indices of a
	// cluster-scope move; a record is cross-machine iff they differ
	// (machine-scope migrations leave both zero). Live reports whether
	// a cross-machine move carried the CBS server state across (a live
	// Transfer) rather than respawning the workload.
	FromMachine int
	ToMachine   int
	Live        bool
}

// BatchRecord is one executed balancer batch: a destination core
// claiming Count migration units of one plan (every policy's moves
// flow through batches; only the work-stealing policy's typically
// exceed one unit).
type BatchRecord struct {
	At     selftune.Time
	Core   int // the claiming (destination) core
	Count  int
	Reason string
}

// RejectRecord is one machine-wide admission rejection.
type RejectRecord struct {
	At     selftune.Time
	Source string
	Reason string
}

// Histogram is a fixed-bucket histogram over [Lo, Hi): Counts[i] holds
// the observations in [Lo + i*w, Lo + (i+1)*w) with w = (Hi-Lo)/len.
// Out-of-range observations land in Under/Over.
type Histogram struct {
	Lo, Hi      float64
	Counts      []int
	Under, Over int
}

func newHistogram(lo, hi float64, buckets int) Histogram {
	return Histogram{Lo: lo, Hi: hi, Counts: make([]int, buckets)}
}

func (h *Histogram) observe(v float64) {
	switch {
	case v < h.Lo:
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (v - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Counts) { // guard the v≈Hi rounding edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations, including out-of-range
// ones.
func (h Histogram) Total() int {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Bucket returns the half-open range [lo, hi) of bucket i.
func (h Histogram) Bucket(i int) (lo, hi float64) {
	n := float64(len(h.Counts))
	return h.Lo + (h.Hi-h.Lo)*float64(i)/n, h.Lo + (h.Hi-h.Lo)*float64(i+1)/n
}

func (h Histogram) clone() Histogram {
	out := h
	out.Counts = append([]int(nil), h.Counts...)
	return out
}

// Snapshot is a self-contained copy of everything a Collector has
// folded so far. It shares no memory with the live Collector, so it
// can be exported, rendered or compared while events keep streaming.
type Snapshot struct {
	// Counters.
	Ticks       int
	Exhaustions int
	Migrations  int
	Batches     int // executed balancer batches (MigrationBatchEvent)
	Rejects     int
	LoadEvents  int

	// Gauges: the latest per-core utilisation sample (nil until the
	// first CoreLoadEvent) and its core count.
	Cores int
	Loads []float64

	// Topology: the per-core cache/NUMA domain map the collector was
	// configured with (WithDomains; nil on a flat machine), the latest
	// per-domain mean load gauge, and how many migrations crossed a
	// domain boundary.
	Domain              []int
	DomainLoads         []float64
	CrossNodeMigrations int

	// Cross-machine moves (cluster-scope streams only; both zero on a
	// single machine): of the Migrations counted above, how many moved
	// a job between machines as a live Transfer carrying its CBS state,
	// and how many respawned it on the destination.
	LiveMigrations    int
	RespawnMigrations int

	// Time series.
	LoadSamples []LoadSample
	// DomainSamples is the per-domain mean-load trajectory, one entry
	// per CoreLoadEvent (only collected with WithDomains).
	DomainSamples []LoadSample
	Sources       []SourceSeries // sorted by name
	Exhausts      []ExhaustRecord
	Moves         []MigrationRecord
	MoveBatches   []BatchRecord
	Rejections    []RejectRecord

	// Fixed-bucket histograms: the supervisor's relative compression
	// error (requested - granted) / requested per tick, and the
	// per-core slack 1 - load per load sample.
	TunerError Histogram
	Slack      Histogram

	// Request-level latency: total completed requests and deadline
	// misses, the aggregate completion-latency and miss-tardiness
	// distributions, the per-group distributions (sorted by name), the
	// retained completion log, and the live state of every SLO the
	// collector was configured with (WithSLOs, installation order).
	Requests       int64
	DeadlineMisses int64
	Latency        LatencyHistogram
	Tardiness      LatencyHistogram
	RequestGroups  []RequestGroup
	RequestLog     []RequestRecord
	SLOs           []SLOStatus
}

// SLO returns the live state of the named objective and whether it is
// configured.
func (s Snapshot) SLO(name string) (SLOStatus, bool) {
	for _, st := range s.SLOs {
		if st.Name == name {
			return st, true
		}
	}
	return SLOStatus{}, false
}

// Collector folds observer-bus events into counters, gauges,
// histograms and retained time series. The zero value is not ready;
// use NewCollector (or Attach). All methods are safe for concurrent
// use.
type Collector struct {
	mu       sync.Mutex
	capacity int // max retained samples per series; 0 = unlimited

	ticks       int
	exhaustions int
	migrations  int
	batches     int
	rejections  int
	loadEvents  int

	domain        []int // per-core domain map; nil = flat machine
	domains       int   // number of domains (0 when domain is nil)
	crossNode     int
	liveMoves     int // cross-machine migrations executed live
	respawnMoves  int // cross-machine migrations executed as respawns
	domainLoads   []float64
	domainSamples ring[LoadSample]

	loads       []float64
	loadSamples ring[LoadSample]
	sources     map[string]*sourceState
	exhausts    ring[ExhaustRecord]
	moves       ring[MigrationRecord]
	moveBatches ring[BatchRecord]
	rejects     ring[RejectRecord]

	tunerError Histogram
	slack      Histogram

	requests   int64
	misses     int64
	latency    LatencyHistogram
	tardiness  LatencyHistogram
	groups     map[string]*RequestGroup
	requestLog ring[RequestRecord]
	slos       []SLOStatus
}

// sourceState is the live state behind one SourceSeries; Snapshot
// materialises its tick ring into SourceSeries.Ticks.
type sourceState struct {
	name        string
	core        int
	exhaustions int
	ticks       ring[TickRecord]
}

// CollectorOption adjusts a Collector under construction.
type CollectorOption func(*Collector)

// WithSeriesCapacity bounds every retained time series (tick records
// per source, load samples, event logs) to its most recent n entries;
// counters and histograms keep folding the full stream. A bounded
// series is a ring: it holds exactly n entries once full, and each
// event costs O(1) — the oldest entry is overwritten in place, nothing
// is shifted. The default (n <= 0) retains everything.
func WithSeriesCapacity(n int) CollectorOption {
	return func(c *Collector) {
		if n > 0 {
			c.capacity = n
		}
	}
}

// WithDomains gives the collector the machine's per-core cache/NUMA
// domain map (domain[c] = node of core c), turning on the per-domain
// signals: the domain load gauge and series, and the cross-node
// migration counter. Attach passes the System's topology
// automatically; an explicit empty (or nil) map switches the
// per-domain signals off again, keeping the collector flat — the
// opt-out for callers who want the historical output shape on a
// topology-aware System.
func WithDomains(domain []int) CollectorOption {
	return func(c *Collector) {
		if len(domain) == 0 {
			c.domain, c.domains = nil, 0
			return
		}
		c.domain = append([]int(nil), domain...)
		c.domains = 0
		for _, d := range c.domain {
			if d+1 > c.domains {
				c.domains = d + 1
			}
		}
	}
}

// NewCollector returns an empty Collector.
func NewCollector(opts ...CollectorOption) *Collector {
	c := &Collector{
		sources:    make(map[string]*sourceState),
		groups:     make(map[string]*RequestGroup),
		tunerError: newHistogram(0, 1, 10),
		slack:      newHistogram(0, 1, 10),
	}
	for _, opt := range opts {
		if opt != nil {
			opt(c)
		}
	}
	c.domainSamples.limit = c.capacity
	c.loadSamples.limit = c.capacity
	c.exhausts.limit = c.capacity
	c.moves.limit = c.capacity
	c.moveBatches.limit = c.capacity
	c.rejects.limit = c.capacity
	c.requestLog.limit = c.capacity
	return c
}

// Attach subscribes a fresh Collector to the System's observer bus and
// returns it with the subscription's cancel function. A System with a
// multi-node topology (WithTopology) configures the per-domain signals
// automatically; explicit options still win.
func Attach(sys *selftune.System, opts ...CollectorOption) (*Collector, func()) {
	if m := sys.Machine(); m.NumDomains() > 1 {
		opts = append([]CollectorOption{WithDomains(m.DomainMap())}, opts...)
	}
	c := NewCollector(opts...)
	return c, sys.Subscribe(c)
}

// source returns the series for a workload name, creating it on first
// sight (a budget exhaustion may precede the first tuner tick).
func (c *Collector) source(name string) *sourceState {
	src := c.sources[name]
	if src == nil {
		src = &sourceState{name: name, ticks: ring[TickRecord]{limit: c.capacity}}
		c.sources[name] = src
	}
	return src
}

// Observe folds one event. Collector implements selftune.Observer.
func (c *Collector) Observe(e selftune.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Kind {
	case selftune.TunerTickEvent:
		c.ticks++
		snap := e.Snapshot
		if snap.Requested > 0 {
			c.tunerError.observe(float64(snap.Requested-snap.Granted) / float64(snap.Requested))
		}
		src := c.source(e.Source)
		src.core = e.Core
		src.ticks.push(TickRecord{
			At:        e.At,
			Core:      e.Core,
			Period:    snap.Period,
			Requested: snap.Requested,
			Granted:   snap.Granted,
			Bandwidth: snap.Bandwidth,
			Detected:  snap.Detected,
		})
	case selftune.BudgetExhaustedEvent:
		c.exhaustions++
		// Exhaustions name the CBS server; a tuner's server is
		// "tuner:<task>", which telemetry folds back onto the workload.
		name := strings.TrimPrefix(e.Source, "tuner:")
		src := c.source(name)
		src.exhaustions++
		src.core = e.Core
		c.exhausts.push(ExhaustRecord{At: e.At, Core: e.Core, Source: name})
	case selftune.CoreLoadEvent:
		c.loadEvents++
		c.loads = append(c.loads[:0], e.Loads...)
		for _, l := range e.Loads {
			c.slack.observe(1 - l)
		}
		c.loadSamples.push(LoadSample{
			At:    e.At,
			Loads: append([]float64(nil), e.Loads...),
		})
		if c.domains > 0 {
			c.domainLoads = c.foldDomains(e.Loads)
			c.domainSamples.push(LoadSample{
				At:    e.At,
				Loads: append([]float64(nil), c.domainLoads...),
			})
		}
	case selftune.MigrationEvent:
		c.migrations++
		if c.domains > 0 && c.domainOf(e.From) != c.domainOf(e.Core) {
			c.crossNode++
		}
		if e.FromMachine != e.ToMachine {
			if e.Live {
				c.liveMoves++
			} else {
				c.respawnMoves++
			}
		}
		c.moves.push(MigrationRecord{
			At: e.At, From: e.From, To: e.Core, Source: e.Source, Reason: e.Reason,
			FromMachine: e.FromMachine, ToMachine: e.ToMachine, Live: e.Live,
		})
	case selftune.MigrationBatchEvent:
		c.batches++
		c.moveBatches.push(BatchRecord{
			At: e.At, Core: e.Core, Count: e.Count, Reason: e.Reason,
		})
	case selftune.AdmissionRejectEvent:
		c.rejections++
		c.rejects.push(RejectRecord{At: e.At, Source: e.Source, Reason: e.Reason})
	case selftune.RequestCompleteEvent:
		c.foldRequest(e)
	}
}

// domainOf maps a core to its domain (0 for out-of-range cores).
func (c *Collector) domainOf(core int) int {
	if core < 0 || core >= len(c.domain) {
		return 0
	}
	return c.domain[core]
}

// foldDomains reduces a per-core load sample to per-domain means.
func (c *Collector) foldDomains(loads []float64) []float64 {
	sum := make([]float64, c.domains)
	count := make([]int, c.domains)
	for core, l := range loads {
		d := c.domainOf(core)
		sum[d] += l
		count[d]++
	}
	for d := range sum {
		if count[d] > 0 {
			sum[d] /= float64(count[d])
		}
	}
	return sum
}

// Snapshot returns a deep copy of the collector's state, safe to hold
// and export while events keep arriving.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Ticks:       c.ticks,
		Exhaustions: c.exhaustions,
		Migrations:  c.migrations,
		Batches:     c.batches,
		Rejects:     c.rejections,
		LoadEvents:  c.loadEvents,
		Cores:       len(c.loads),
		Loads:       append([]float64(nil), c.loads...),
		Domain:      append([]int(nil), c.domain...),
		DomainLoads: append([]float64(nil), c.domainLoads...),

		CrossNodeMigrations: c.crossNode,
		LiveMigrations:      c.liveMoves,
		RespawnMigrations:   c.respawnMoves,

		Exhausts:    c.exhausts.appendTo(nil),
		Moves:       c.moves.appendTo(nil),
		MoveBatches: c.moveBatches.appendTo(nil),
		Rejections:  c.rejects.appendTo(nil),
		TunerError:  c.tunerError.clone(),
		Slack:       c.slack.clone(),

		Requests:       c.requests,
		DeadlineMisses: c.misses,
		Latency:        c.latency.Clone(),
		Tardiness:      c.tardiness.Clone(),
		RequestLog:     c.requestLog.appendTo(nil),
		SLOs:           append([]SLOStatus(nil), c.slos...),
	}
	if len(c.groups) > 0 {
		s.RequestGroups = make([]RequestGroup, 0, len(c.groups))
		for _, g := range c.groups {
			s.RequestGroups = append(s.RequestGroups, g.clone())
		}
		sort.Slice(s.RequestGroups, func(i, j int) bool {
			return s.RequestGroups[i].Name < s.RequestGroups[j].Name
		})
	}
	// LoadSamples is never nil, so an empty series marshals as [];
	// the other series stay nil until their first entry.
	s.LoadSamples = copySamples(c.loadSamples.appendTo(make([]LoadSample, 0, c.loadSamples.len())))
	s.DomainSamples = copySamples(c.domainSamples.appendTo(nil))
	s.Sources = make([]SourceSeries, 0, len(c.sources))
	for _, src := range c.sources {
		s.Sources = append(s.Sources, SourceSeries{
			Name:        src.name,
			Core:        src.core,
			Exhaustions: src.exhaustions,
			Ticks:       src.ticks.appendTo(nil),
		})
	}
	sort.Slice(s.Sources, func(i, j int) bool { return s.Sources[i].Name < s.Sources[j].Name })
	return s
}

// copySamples gives every sample of a freshly copied series its own
// Loads slice, so the snapshot shares no memory with the collector.
func copySamples(samples []LoadSample) []LoadSample {
	for i := range samples {
		samples[i].Loads = append([]float64(nil), samples[i].Loads...)
	}
	return samples
}
