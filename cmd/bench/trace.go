package main

// The traced run: every call the benchmark makes into a layer, or
// that a layer makes through an interface the benchmark supplies, is
// timed from outside. Coarse calls (Run chunks, cluster ticks, Plan,
// Snapshot, Spawn) become spans with a parent; per-syscall and
// per-activation calls only feed histograms. The untraced run passes a
// nil *recorder, on which begin, end and timed do nothing, so both runs
// share one code path and must produce the same simulated digest.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/feedback"
	"repro/internal/simtime"
	"repro/internal/spectrum"
	"repro/internal/supervisor"
	"repro/internal/workload"
	"repro/selftune"
	"repro/selftune/cluster"
	"repro/selftune/telemetry"
)

// hist is a log-linear histogram of durations: exact below 32ns, then
// 16 buckets per power of two, none wider than 6.25% of its values.
type hist struct {
	n      int64
	counts [1024]int64
}

func histIndex(v uint64) int {
	if v < 32 {
		return int(v)
	}
	e := bits.Len64(v) - 5
	return 16*e + int(v>>e)
}

// histBucket returns the smallest value of bucket i and its width.
func histBucket(i int) (lo, width uint64) {
	if i < 32 {
		return uint64(i), 1
	}
	e := i/16 - 1
	return uint64(i-16*e) << e, 1 << e
}

func (h *hist) add(d time.Duration) {
	h.n++
	h.counts[histIndex(uint64(max(d, 0)))]++
}

// quantile returns the q-quantile in nanoseconds, interpolated
// linearly within its bucket (0 when empty).
func (h *hist) quantile(q float64) float64 {
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c > 0 && cum+float64(c) >= rank {
			lo, w := histBucket(i)
			return float64(lo) + float64(w)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return 0
}

// span is one timed call, with offsets from the start of the run.
type span struct {
	id, parent int
	cat, name  string
	start, dur time.Duration
}

// recorder holds the spans and histograms of one traced run in memory
// until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indices of the open spans, innermost last
	hists map[string]*hist
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), hists: map[string]*hist{}}
}

// hist returns the histogram under key, creating it on first use.
func (r *recorder) hist(key string) *hist {
	h := r.hists[key]
	if h == nil {
		h = &hist{}
		r.hists[key] = h
	}
	return h
}

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(cat, name string) {
	if r == nil {
		return
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].id
	}
	r.spans = append(r.spans, span{
		id: len(r.spans) + 1, parent: parent, cat: cat, name: name,
		start: time.Since(r.t0),
	})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].dur = time.Since(r.t0) - r.spans[i].start
}

// timed runs f inside a span.
func (r *recorder) timed(cat, name string, f func()) {
	r.begin(cat, name)
	f()
	r.end()
}

var unitNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// spanTiming reports the spans named cat.name as "<cat>.<name>_<unit>_p50",
// "..._p90" and "<cat>.<name>_calls". Spans report p90, not p99: a run
// holds hundreds of them, too few for a p99.
func (r *recorder) spanTiming(out *metrics, cat, name, unit string) {
	var ds []float64
	for _, s := range r.spans {
		if s.cat == cat && s.name == name {
			ds = append(ds, float64(s.dur.Nanoseconds())/unitNs[unit])
		}
	}
	slices.Sort(ds)
	key := cat + "." + name
	out.add(fmt.Sprintf("%s_%s_p50", key, unit), percentile(ds, 0.5), unit)
	out.add(fmt.Sprintf("%s_%s_p90", key, unit), percentile(ds, 0.9), unit)
	out.add(key+"_calls", float64(len(ds)), "count")
}

// percentile interpolates linearly between the order statistics of
// sorted (0 when empty).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// callTiming reports the per-call histogram key as "<key>_<unit>_p50",
// "..._p99" and "<key>_calls".
func (r *recorder) callTiming(out *metrics, key, unit string) {
	h := r.hist(key)
	out.add(fmt.Sprintf("%s_%s_p50", key, unit), h.quantile(0.5)/unitNs[unit], unit)
	out.add(fmt.Sprintf("%s_%s_p99", key, unit), h.quantile(0.99)/unitNs[unit], unit)
	out.add(key+"_calls", float64(h.n), "count")
}

// write stores the spans as a Chrome trace and the layer table next
// to it: DIR/<w>.trace.json and DIR/<w>.layers.json.
func (r *recorder) write(dir string, o *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Cat: s.cat, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		}
	}
	trace := map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}
	layers := map[string]any{
		"workload": o.Workload, "seed": o.Seed, "digest": o.Digest,
		"metrics": o.Layers.byName(),
	}
	if err := writeJSON(filepath.Join(dir, o.Workload+".trace.json"), trace); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, o.Workload+".layers.json"), layers)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// --- wrappers around the interfaces the program accepts ---------------

// timedSink times every syscall recorded into the kernel tracer and
// keeps the syscall train of each tuned task for the spectrum replay.
type timedSink struct {
	inner  workload.SyscallSink
	h      *hist
	trains map[int]*[]simtime.Time // by tuned PID
}

func (s *timedSink) Syscall(now simtime.Time, pid, nr int) simtime.Duration {
	t := time.Now()
	ov := s.inner.Syscall(now, pid, nr)
	s.h.add(time.Since(t))
	if tr := s.trains[pid]; tr != nil {
		*tr = append(*tr, now)
	}
	return ov
}

// grant is one feedback-controller output, kept for the supervisor
// replay.
type grant struct {
	core, tuner    int
	budget, period simtime.Duration
}

// timedController times every feedback step and keeps its output.
type timedController struct {
	feedback.Controller
	h           *hist
	core, tuner int
	out         *[]grant
}

func (c *timedController) Tick(s feedback.Sample) simtime.Duration {
	t := time.Now()
	q := c.Controller.Tick(s)
	c.h.add(time.Since(t))
	*c.out = append(*c.out, grant{core: c.core, tuner: c.tuner, budget: q, period: s.Period})
	return q
}

// timedObserver times every event an observer folds.
type timedObserver struct {
	inner selftune.Observer
	h     *hist
}

func (o timedObserver) Observe(e selftune.Event) {
	t := time.Now()
	o.inner.Observe(e)
	o.h.add(time.Since(t))
}

// timedBalancer spans every machine-level Plan and counts the moves.
type timedBalancer struct {
	selftune.Balancer
	r     *recorder
	moves int
}

func (b *timedBalancer) Plan(snap selftune.Snapshot) []selftune.Move {
	b.r.begin("selftune", "balance_plan")
	m := b.Balancer.Plan(snap)
	b.r.end()
	b.moves += len(m)
	return m
}

// timedFleetBalancer spans every fleet-level Plan and counts the
// placements.
type timedFleetBalancer struct {
	cluster.ClusterBalancer
	r          *recorder
	placements int
}

func (b *timedFleetBalancer) Plan(snap cluster.FleetSnapshot) []cluster.Placement {
	b.r.begin("cluster", "plan")
	p := b.ClusterBalancer.Plan(snap)
	b.r.end()
	b.placements += len(p)
	return p
}

// --- replays --------------------------------------------------------------

// replaySpectrum feeds one tuned task's captured syscall train through
// a fresh analyser window at each of the tuner's activation instants,
// timing Observe and Detect the way AutoTuner.tick calls them.
func (r *recorder) replaySpectrum(cfg selftune.TunerConfig, train []simtime.Time, ticks []selftune.TunerSnapshot) {
	obs, det := r.hist("spectrum.observe"), r.hist("spectrum.detect")
	w := spectrum.NewWindow(cfg.Band, cfg.Horizon)
	next := 0
	for _, tk := range ticks {
		end := next
		for end < len(train) && train[end] <= tk.At {
			end++
		}
		t := time.Now()
		w.Observe(tk.At, train[next:end])
		obs.add(time.Since(t))
		next = end
		if w.Events() >= cfg.MinEvents {
			t = time.Now()
			spectrum.Detect(w.Spectrum(), cfg.Detect)
			det.add(time.Since(t))
		}
	}
}

// replaySupervisor submits the captured controller outputs, in
// activation order, to one fresh supervisor per core holding one
// client per tuner, timing each Request.
func (r *recorder) replaySupervisor(grants []grant, ulub, minBW float64) {
	h := r.hist("supervisor.request")
	sups := map[int]*supervisor.Supervisor{}
	clients := map[int]*supervisor.Client{}
	for _, g := range grants {
		c := clients[g.tuner]
		if c == nil {
			sup := sups[g.core]
			if sup == nil {
				sup = supervisor.New(ulub)
				sups[g.core] = sup
			}
			var ok bool
			if c, ok = sup.Register(fmt.Sprint("tuner", g.tuner), minBW); !ok {
				continue
			}
			clients[g.tuner] = c
		}
		q := min(max(g.budget, simtime.Microsecond), g.period)
		t := time.Now()
		c.Request(q, g.period)
		h.add(time.Since(t))
	}
}

// probeTelemetry times a collector Snapshot and its export through
// every sink, repeated so the histograms hold more than one sample.
func (r *recorder) probeTelemetry(col *telemetry.Collector) error {
	for i := 0; i < 5; i++ {
		var snap telemetry.Snapshot
		r.timed("telemetry", "snapshot", func() { snap = col.Snapshot() })
		var err error
		r.timed("telemetry", "export", func() {
			for _, write := range []func(io.Writer) error{snap.WriteCSV, snap.WriteTrace, snap.WriteMetrics} {
				if e := write(io.Discard); e != nil && err == nil {
					err = e
				}
			}
		})
		if err != nil {
			return fmt.Errorf("telemetry export: %w", err)
		}
	}
	return nil
}
