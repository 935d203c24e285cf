package telemetry

import (
	"reflect"
	"testing"

	"repro/selftune"
)

func ms(n int) selftune.Duration { return selftune.Duration(n) * selftune.Millisecond }

func TestLatencyBoundsShape(t *testing.T) {
	var h LatencyHistogram
	if h.Buckets() != 64 {
		t.Fatalf("buckets = %d, want 64", h.Buckets())
	}
	prevLo, _ := h.Bucket(0)
	if prevLo != selftune.Microsecond {
		t.Errorf("lowest bound %v, want 1µs", prevLo)
	}
	for i := 1; i < h.Buckets(); i++ {
		lo, hi := h.Bucket(i)
		if lo <= prevLo || hi <= lo {
			t.Fatalf("bucket %d bounds [%v,%v) not strictly increasing after %v", i, lo, hi, prevLo)
		}
		prevLo = lo
	}
	if _, hi := h.Bucket(63); hi != 100*selftune.Second {
		t.Errorf("upper edge %v, want 100s", hi)
	}
}

func TestLatencyHistogramEmpty(t *testing.T) {
	var h LatencyHistogram
	if h.Total() != 0 || h.Mean() != 0 {
		t.Errorf("empty histogram total=%d mean=%v", h.Total(), h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestLatencyHistogramSingleBucket(t *testing.T) {
	var h LatencyHistogram
	for i := 0; i < 100; i++ {
		h.Observe(ms(10))
	}
	if h.Total() != 100 || h.Under != 0 || h.Over != 0 {
		t.Fatalf("total=%d under=%d over=%d", h.Total(), h.Under, h.Over)
	}
	if h.Mean() != ms(10) {
		t.Errorf("mean %v, want 10ms", h.Mean())
	}
	lo, hi := h.Bucket(latencyBucket(int64(ms(10))))
	if !(lo <= ms(10) && ms(10) < hi) {
		t.Fatalf("10ms not inside its bucket [%v,%v)", lo, hi)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := h.Quantile(q)
		if got < lo || got > hi {
			t.Errorf("Quantile(%v) = %v outside single bucket [%v,%v]", q, got, lo, hi)
		}
	}
	if h.Quantile(0.9) <= h.Quantile(0.1) {
		t.Errorf("interpolation not monotone within bucket: p90 %v <= p10 %v",
			h.Quantile(0.9), h.Quantile(0.1))
	}
}

func TestLatencyHistogramBoundaryIsHalfOpen(t *testing.T) {
	var h LatencyHistogram
	lo, _ := h.Bucket(1)
	h.Observe(lo) // exactly on a boundary: belongs to the upper bucket
	if h.Counts[1] != 1 || h.Counts[0] != 0 {
		t.Errorf("boundary observation landed in counts[0]=%d counts[1]=%d", h.Counts[0], h.Counts[1])
	}
}

func TestLatencyHistogramUnderOver(t *testing.T) {
	var h LatencyHistogram
	h.Observe(500)                   // 500ns, below the 1µs floor
	h.Observe(200 * selftune.Second) // above the 100s edge
	h.Observe(selftune.Microsecond)  // exactly on the floor: in range
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under=%d over=%d, want 1/1", h.Under, h.Over)
	}
	if h.Total() != 3 {
		t.Fatalf("total=%d, want 3", h.Total())
	}
	// A quantile inside the under mass interpolates over [0, 1µs).
	var u LatencyHistogram
	u.Observe(1)
	u.Observe(2)
	if got := u.Quantile(0.5); got <= 0 || got > selftune.Microsecond {
		t.Errorf("under-mass Quantile(0.5) = %v, want in (0, 1µs]", got)
	}
	// A quantile landing in the over mass pins to the upper edge.
	var o LatencyHistogram
	o.Observe(200 * selftune.Second)
	if got := o.Quantile(0.99); got != 100*selftune.Second {
		t.Errorf("over-mass Quantile = %v, want 100s", got)
	}
}

func TestLatencyHistogramMergeAssociative(t *testing.T) {
	mk := func(vals ...selftune.Duration) LatencyHistogram {
		var h LatencyHistogram
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	a := mk(500, ms(1), ms(4), ms(120))
	b := mk(ms(16), ms(16), 200*selftune.Second)
	c := mk(ms(2), selftune.Microsecond)

	// (a ⊕ b) ⊕ c
	left := a.Clone()
	left.Merge(b)
	left.Merge(c)
	// a ⊕ (b ⊕ c)
	bc := b.Clone()
	bc.Merge(c)
	right := a.Clone()
	right.Merge(bc)
	// Direct fold of every observation in one histogram.
	direct := mk(500, ms(1), ms(4), ms(120), ms(16), ms(16), 200*selftune.Second, ms(2), selftune.Microsecond)

	if !reflect.DeepEqual(left, right) {
		t.Errorf("merge is not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", left, right)
	}
	if !reflect.DeepEqual(left, direct) {
		t.Errorf("merged state differs from direct fold:\nmerged = %+v\ndirect = %+v", left, direct)
	}
	if left.Total() != a.Total()+b.Total()+c.Total() {
		t.Errorf("merged total %d, want %d", left.Total(), a.Total()+b.Total()+c.Total())
	}
}

func TestCollectorFoldsRequests(t *testing.T) {
	c := NewCollector()
	ev := func(source, kind string, lat selftune.Duration, missed bool) {
		c.Observe(selftune.Event{
			Kind: selftune.RequestCompleteEvent, At: selftune.Time(lat), Core: 0,
			Source: source, Workload: kind, Latency: lat, Deadline: ms(100), Missed: missed,
		})
	}
	ev("web/1", "webserver", ms(4), false)
	ev("web/2", "webserver", ms(130), true)
	ev("batch/1", "vmboot", ms(9), false)
	snap := c.Snapshot()
	if snap.Requests != 3 || snap.DeadlineMisses != 1 {
		t.Fatalf("requests=%d misses=%d", snap.Requests, snap.DeadlineMisses)
	}
	if got := snap.Tardiness.Total(); got != 1 {
		t.Errorf("tardiness mass %d, want 1 (misses only)", got)
	}
	if len(snap.RequestGroups) != 2 {
		t.Fatalf("groups = %+v, want batch and web", snap.RequestGroups)
	}
	if snap.RequestGroups[0].Name != "batch" || snap.RequestGroups[1].Name != "web" {
		t.Errorf("groups not sorted by name: %s, %s",
			snap.RequestGroups[0].Name, snap.RequestGroups[1].Name)
	}
	web := snap.RequestGroups[1]
	if web.Requests != 2 || web.Misses != 1 || web.Kind != "webserver" {
		t.Errorf("web group %+v", web)
	}
	if len(snap.RequestLog) != 3 {
		t.Errorf("request log has %d records, want 3", len(snap.RequestLog))
	}
	// The read accessors agree with the snapshot.
	g, ok := c.RequestGroup("web")
	if !ok || !reflect.DeepEqual(g, web) {
		t.Errorf("RequestGroup(web) = %+v, %v; want %+v", g, ok, web)
	}
	if g, ok := c.RequestGroup("mail"); ok || g.Requests != 0 {
		t.Errorf("RequestGroup of an unseen group = %+v, %v", g, ok)
	}
	requests, misses, latency := c.RequestTotals()
	if requests != 3 || misses != 1 || !reflect.DeepEqual(latency, snap.Latency) {
		t.Errorf("RequestTotals = %d, %d, %+v", requests, misses, latency)
	}
	// Snapshot independence: keep folding, the old snapshot and the
	// accessors' copies must not move.
	before := snap.Latency.Total()
	ev("web/3", "webserver", ms(5), false)
	if snap.Latency.Total() != before || g.Latency.Total() != 2 || latency.Total() != before {
		t.Error("snapshot or accessor histogram shares memory with the live collector")
	}
}
