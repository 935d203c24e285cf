package telemetry

// Request-level latency aggregation: log-bucketed histograms with a
// quantile estimator, per-group distributions, and the fold path that
// turns RequestCompleteEvents into all of them.

import (
	"sort"
	"strings"

	"repro/selftune"
)

// latencyBounds are the bucket boundaries of a LatencyHistogram in
// nanoseconds: 8 log-spaced buckets per decade over [1µs, 100s), 64
// buckets plus Under/Over mass outside. The mantissas are
// round(1000·10^(k/8)) as integer literals — no math.Pow — so the
// boundaries are bit-identical on every platform and goldens stay
// byte-stable.
var latencyBounds = func() [65]int64 {
	mant := [8]int64{1000, 1334, 1778, 2371, 3162, 4217, 5623, 7499}
	var b [65]int64
	scale := int64(1) // decade multiplier over the 1µs base
	for d := 0; d < 8; d++ {
		for m := 0; m < 8; m++ {
			b[d*8+m] = mant[m] * scale
		}
		scale *= 10
	}
	b[64] = 1000 * scale // the open 100s upper edge
	return b
}()

// LatencyHistogram counts completion latencies in 64 log-spaced
// buckets spanning [1µs, 100s) — 8 per decade — with Under/Over mass
// for out-of-range observations and the exact Sum for means. The zero
// value is an empty, usable histogram (Counts allocates on the first
// in-range observation). Merging is element-wise addition —
// associative and commutative — so per-shard histograms folded in any
// grouping produce identical state.
type LatencyHistogram struct {
	Counts      []int64
	Under, Over int64
	Sum         selftune.Duration
}

// latencyBucket returns the bucket index of an in-range value.
func latencyBucket(v int64) int {
	return sort.Search(len(latencyBounds)-2, func(i int) bool { return v < latencyBounds[i+1] })
}

// Observe folds one latency into the histogram.
func (h *LatencyHistogram) Observe(d selftune.Duration) {
	h.Sum += d
	switch {
	case int64(d) < latencyBounds[0]:
		h.Under++
	case int64(d) >= latencyBounds[len(latencyBounds)-1]:
		h.Over++
	default:
		if h.Counts == nil {
			h.Counts = make([]int64, len(latencyBounds)-1)
		}
		h.Counts[latencyBucket(int64(d))]++
	}
}

// Total returns the number of observations, including Under/Over mass.
func (h LatencyHistogram) Total() int64 {
	n := h.Under + h.Over
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Mean returns the mean observed latency (0 when empty).
func (h LatencyHistogram) Mean() selftune.Duration {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return h.Sum / selftune.Duration(t)
}

// Buckets returns the number of in-range buckets (64).
func (h LatencyHistogram) Buckets() int { return len(latencyBounds) - 1 }

// Bucket returns the half-open latency range [lo, hi) of bucket i.
func (h LatencyHistogram) Bucket(i int) (lo, hi selftune.Duration) {
	return selftune.Duration(latencyBounds[i]), selftune.Duration(latencyBounds[i+1])
}

// Merge adds o's counts into h. Addition is associative, so shards can
// be merged in any grouping with identical results.
func (h *LatencyHistogram) Merge(o LatencyHistogram) {
	h.Under += o.Under
	h.Over += o.Over
	h.Sum += o.Sum
	if len(o.Counts) > 0 {
		if h.Counts == nil {
			h.Counts = make([]int64, len(latencyBounds)-1)
		}
		for i, c := range o.Counts {
			h.Counts[i] += c
		}
	}
}

// Clone returns an independent deep copy.
func (h LatencyHistogram) Clone() LatencyHistogram {
	out := h
	out.Counts = append([]int64(nil), h.Counts...)
	return out
}

// Quantile estimates the q-th latency quantile by linear interpolation
// within the covering bucket: Quantile(0.5) is the median,
// Quantile(0.99) the p99. Under mass interpolates over [0, 1µs); a
// quantile landing in the Over mass pins to the 100s upper edge. An
// empty histogram returns 0; q is clamped to [0, 1].
func (h LatencyHistogram) Quantile(q float64) selftune.Duration {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	if h.Under > 0 {
		cum = float64(h.Under)
		if rank <= cum {
			return selftune.Duration(float64(latencyBounds[0]) * rank / cum)
		}
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo, hi := float64(latencyBounds[i]), float64(latencyBounds[i+1])
			return selftune.Duration(lo + (hi-lo)*(rank-cum)/float64(c))
		}
		cum = next
	}
	return selftune.Duration(latencyBounds[len(latencyBounds)-1])
}

// RequestGroup aggregates the requests of one source group — the
// source prefix before the first '/', which is the realm of a cluster
// job name like "web/17" and the instance name of a plain spawn.
type RequestGroup struct {
	Name string
	// Kind is the registry kind of the group's requests (last seen —
	// a cluster realm's mix can span kinds).
	Kind     string
	Requests int64
	Misses   int64
	// Latency is the completion-latency distribution; Tardiness holds
	// how far past their deadline the missed requests finished.
	Latency   LatencyHistogram
	Tardiness LatencyHistogram
}

// RequestRecord is one retained request completion.
type RequestRecord struct {
	At      selftune.Time
	Source  string
	Kind    string
	Core    int
	Latency selftune.Duration
	Missed  bool
}

// RequestGroupOf returns the aggregation key of a request source: the
// prefix before the first '/', or the full source name.
func RequestGroupOf(source string) string {
	if i := strings.IndexByte(source, '/'); i >= 0 {
		return source[:i]
	}
	return source
}

// clone returns a copy of g that shares no memory with it.
func (g *RequestGroup) clone() RequestGroup {
	out := *g
	out.Latency = g.Latency.Clone()
	out.Tardiness = g.Tardiness.Clone()
	return out
}

// RequestGroup returns a copy of the named request group and whether
// the collector has folded any of its requests.
func (c *Collector) RequestGroup(name string) (RequestGroup, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g := c.groups[name]; g != nil {
		return g.clone(), true
	}
	return RequestGroup{Name: name}, false
}

// RequestTotals returns the completions and deadline misses of every
// group together, and a copy of their completion-latency distribution.
func (c *Collector) RequestTotals() (requests, misses int64, latency LatencyHistogram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requests, c.misses, c.latency.Clone()
}

// foldRequest folds one RequestCompleteEvent. Caller holds c.mu.
func (c *Collector) foldRequest(e selftune.Event) {
	c.requests++
	c.latency.Observe(e.Latency)
	if e.Missed {
		c.misses++
		c.tardiness.Observe(e.Latency - e.Deadline)
	}
	name := RequestGroupOf(e.Source)
	g := c.groups[name]
	if g == nil {
		g = &RequestGroup{Name: name}
		c.groups[name] = g
	}
	g.Kind = e.Workload
	g.Requests++
	g.Latency.Observe(e.Latency)
	if e.Missed {
		g.Misses++
		g.Tardiness.Observe(e.Latency - e.Deadline)
	}
	for i := range c.slos {
		s := &c.slos[i]
		if s.Source != "" && s.Source != name && s.Source != e.Source {
			continue
		}
		s.Requests++
		if e.Latency <= s.Threshold {
			s.Within++
		}
	}
	c.requestLog.push(RequestRecord{
		At: e.At, Source: e.Source, Kind: e.Workload, Core: e.Core,
		Latency: e.Latency, Missed: e.Missed,
	})
}
