package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/selftune"
)

// TestCollectorFoldsLiveRun attaches a collector to a real system and
// checks every signal class arrives: ticks, exhaustions, load samples,
// per-source trajectories, histograms.
func TestCollectorFoldsLiveRun(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(6), selftune.WithCPUs(2))
	if err != nil {
		t.Fatal(err)
	}
	col, stop := Attach(sys)
	app, err := sys.Spawn("video",
		selftune.SpawnName("mplayer"),
		selftune.SpawnUtil(0.4),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	app.Start(0)
	sys.Run(10 * selftune.Second)
	stop()

	s := col.Snapshot()
	if s.Ticks == 0 || s.Exhaustions == 0 || s.LoadEvents == 0 {
		t.Fatalf("counters: ticks=%d exhaustions=%d loads=%d", s.Ticks, s.Exhaustions, s.LoadEvents)
	}
	if s.Cores != 2 || len(s.Loads) != 2 {
		t.Errorf("gauges: cores=%d loads=%v", s.Cores, s.Loads)
	}
	if len(s.Sources) != 1 || s.Sources[0].Name != "mplayer" {
		t.Fatalf("sources: %+v", s.Sources)
	}
	src := s.Sources[0]
	if len(src.Ticks) != s.Ticks {
		t.Errorf("%d tick records vs %d tick events", len(src.Ticks), s.Ticks)
	}
	if src.Exhaustions != s.Exhaustions {
		t.Errorf("per-source exhaustions %d vs total %d", src.Exhaustions, s.Exhaustions)
	}
	if s.TunerError.Total() != s.Ticks {
		t.Errorf("tuner-error histogram has %d observations for %d ticks", s.TunerError.Total(), s.Ticks)
	}
	if got, want := s.Slack.Total(), s.LoadEvents*2; got != want {
		t.Errorf("slack histogram has %d observations, want %d (2 cores x samples)", got, want)
	}
	// Budget trajectories are monotone in time.
	for i := 1; i < len(src.Ticks); i++ {
		if src.Ticks[i].At < src.Ticks[i-1].At {
			t.Fatalf("tick records out of order at %d", i)
		}
	}
}

// TestSnapshotIsDeepCopy mutates a snapshot and checks the collector
// is unaffected (and vice versa: later events don't leak in).
func TestSnapshotIsDeepCopy(t *testing.T) {
	c := NewCollector()
	c.Observe(selftune.Event{Kind: selftune.CoreLoadEvent, At: 1, Core: -1, Loads: []float64{0.5}})
	s1 := c.Snapshot()
	s1.Loads[0] = 99
	s1.LoadSamples[0].Loads[0] = 99
	s1.TunerError.Counts[0] = 99
	s2 := c.Snapshot()
	if s2.Loads[0] != 0.5 || s2.LoadSamples[0].Loads[0] != 0.5 || s2.TunerError.Counts[0] != 0 {
		t.Error("snapshot shares memory with the collector")
	}
	c.Observe(selftune.Event{Kind: selftune.CoreLoadEvent, At: 2, Core: -1, Loads: []float64{0.7}})
	if len(s2.LoadSamples) != 1 {
		t.Error("later events leaked into an existing snapshot")
	}
}

// feedAll publishes one event of every kind the collector retains,
// all at instant i.
func feedAll(c *Collector, i int) {
	at := selftune.Time(i)
	for _, e := range []selftune.Event{
		{Kind: selftune.TunerTickEvent, At: at, Core: 0, Source: "x",
			Snapshot: selftune.TunerSnapshot{Period: 40, Requested: 12, Granted: 10}},
		{Kind: selftune.BudgetExhaustedEvent, At: at, Core: 0, Source: "x"},
		{Kind: selftune.CoreLoadEvent, At: at, Core: -1, Loads: []float64{0.1, 0.3}},
		{Kind: selftune.MigrationEvent, At: at, Core: 1, From: 0, Source: "x", Reason: "manual"},
		{Kind: selftune.MigrationBatchEvent, At: at, Core: 1, From: -1, Count: 2, Reason: "steal"},
		{Kind: selftune.AdmissionRejectEvent, At: at, Core: -1, Source: "y", Reason: "full"},
		{Kind: selftune.RequestCompleteEvent, At: at, Core: 0, Source: "x/1", Workload: "webserver",
			Latency: selftune.Millisecond},
	} {
		c.Observe(e)
	}
}

// retainedAts lists the instants of every retained entry, per series,
// in snapshot order.
func retainedAts(s Snapshot) map[string][]selftune.Time {
	m := make(map[string][]selftune.Time)
	add := func(series string, at selftune.Time) { m[series] = append(m[series], at) }
	for _, src := range s.Sources {
		for _, tk := range src.Ticks {
			add("ticks:"+src.Name, tk.At)
		}
	}
	for _, r := range s.Exhausts {
		add("exhausts", r.At)
	}
	for _, r := range s.LoadSamples {
		add("loads", r.At)
	}
	for _, r := range s.DomainSamples {
		add("domains", r.At)
	}
	for _, r := range s.Moves {
		add("moves", r.At)
	}
	for _, r := range s.MoveBatches {
		add("batches", r.At)
	}
	for _, r := range s.Rejections {
		add("rejects", r.At)
	}
	for _, r := range s.RequestLog {
		add("requests", r.At)
	}
	return m
}

// TestSeriesCapacity bounds every retained series to its most recent
// entries, oldest first, without touching the counters and histograms,
// across wrap-around of the ring; the unbounded default keeps every
// event in order, also across its blocks.
func TestSeriesCapacity(t *testing.T) {
	series := []string{"ticks:x", "exhausts", "loads", "domains", "moves", "batches", "rejects", "requests"}
	for _, tc := range []struct {
		name     string
		opts     []CollectorOption
		events   int
		retained int
	}{
		{"capacity 1", []CollectorOption{WithSeriesCapacity(1)}, 2*1 + 3, 1},
		{"capacity 4", []CollectorOption{WithSeriesCapacity(4)}, 2*4 + 3, 4},
		{"capacity 4 below bound", []CollectorOption{WithSeriesCapacity(4)}, 3, 3},
		{"unbounded", nil, 37, 37},
		{"unbounded across blocks", nil, 2*ringBlock + 37, 2*ringBlock + 37},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector(append([]CollectorOption{WithDomains([]int{0, 1})}, tc.opts...)...)
			for i := 0; i < tc.events; i++ {
				feedAll(c, i)
			}
			s := c.Snapshot()
			ats := retainedAts(s)
			for _, name := range series {
				got := ats[name]
				if len(got) != tc.retained {
					t.Errorf("%s retained %d entries, want %d", name, len(got), tc.retained)
					continue
				}
				for k, at := range got {
					if want := selftune.Time(tc.events - tc.retained + k); at != want {
						t.Errorf("%s entry %d at %v, want %v (most recent, oldest first)", name, k, at, want)
						break
					}
				}
			}
			n := tc.events
			if s.Ticks != n || s.Exhaustions != n || s.LoadEvents != n || s.Migrations != n ||
				s.Batches != n || s.Rejects != n || s.Requests != int64(n) {
				t.Errorf("counters trimmed with the series: ticks=%d exhaustions=%d loads=%d migrations=%d batches=%d rejects=%d requests=%d, want %d each",
					s.Ticks, s.Exhaustions, s.LoadEvents, s.Migrations, s.Batches, s.Rejects, s.Requests, n)
			}
			if s.Sources[0].Exhaustions != n {
				t.Errorf("per-source exhaustions = %d, want %d", s.Sources[0].Exhaustions, n)
			}
			if s.TunerError.Total() != n || s.Slack.Total() != 2*n || s.Latency.Total() != int64(n) {
				t.Errorf("histograms trimmed with the series: tuner=%d slack=%d latency=%d",
					s.TunerError.Total(), s.Slack.Total(), s.Latency.Total())
			}

			// A snapshot is a copy: later events — enough to wrap every
			// ring again — leave it untouched.
			before, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			for i := tc.events; i < 2*tc.events+3; i++ {
				feedAll(c, i)
			}
			after, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Error("later events changed an existing snapshot")
			}
		})
	}
}

// TestBoundedRequestFoldAllocs pins the steady-state cost of a full
// bounded collector: folding a request completion overwrites the
// oldest log entry in place and allocates nothing.
func TestBoundedRequestFoldAllocs(t *testing.T) {
	c := NewCollector(WithSeriesCapacity(8))
	e := selftune.Event{Kind: selftune.RequestCompleteEvent, Core: 0, Source: "web/3",
		Workload: "webserver", Latency: 3 * selftune.Millisecond}
	for i := 0; i < 16; i++ {
		c.Observe(e)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Observe(e) }); allocs != 0 {
		t.Errorf("folding a request into a full bounded collector allocates %.1f times", allocs)
	}
}

// BenchmarkCollectorBoundedFold folds request completions into a full
// WithSeriesCapacity(4096) collector — the per-event cost of bounded
// retention once every ring has wrapped.
func BenchmarkCollectorBoundedFold(b *testing.B) {
	c := NewCollector(WithSeriesCapacity(4096))
	e := selftune.Event{Kind: selftune.RequestCompleteEvent, Core: 0, Source: "web/3",
		Workload: "webserver", Latency: 3 * selftune.Millisecond}
	for i := 0; i < 4096; i++ {
		e.At = selftune.Time(i)
		c.Observe(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At = selftune.Time(4096 + i)
		c.Observe(e)
	}
}

// TestCollectorConcurrentPublishAndSnapshot hammers Observe from many
// goroutines while snapshots are taken — the race-detector proof of
// the "safe under concurrent publish" contract.
func TestCollectorConcurrentPublishAndSnapshot(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	events := []selftune.Event{
		{Kind: selftune.TunerTickEvent, Core: 0, Source: "a",
			Snapshot: selftune.TunerSnapshot{Period: 40, Requested: 12, Granted: 10}},
		{Kind: selftune.BudgetExhaustedEvent, Core: 1, Source: "b"},
		{Kind: selftune.CoreLoadEvent, Core: -1, Loads: []float64{0.4, 0.6}},
		{Kind: selftune.MigrationEvent, Core: 1, From: 0, Source: "a", Reason: "manual"},
		{Kind: selftune.MigrationBatchEvent, Core: 1, From: -1, Reason: "steal", Count: 3},
		{Kind: selftune.AdmissionRejectEvent, Core: -1, Source: "c", Reason: "full"},
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Observe(events[(g+i)%len(events)])
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if total := s.Ticks + s.Exhaustions + s.Migrations + s.Batches + s.Rejects + s.LoadEvents; total != 8*500 {
		t.Errorf("folded %d events, want %d", total, 8*500)
	}
}

// TestReportSinkLive drives a system with a periodic report sink and
// checks reports render at the configured cadence with the expected
// tables.
func TestReportSinkLive(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	sink := NewReportSink(&b, selftune.Second)
	stop := sink.Attach(sys)
	app, err := sys.Spawn("video", selftune.SpawnName("mplayer"),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	app.Start(0)
	sys.Run(5 * selftune.Second)
	stop()

	out := b.String()
	if got := strings.Count(out, "---- telemetry @"); got < 5 {
		t.Errorf("%d live reports in 5s at 1s cadence", got)
	}
	for _, want := range []string{
		"== telemetry: events ==",
		"== telemetry: per-core utilisation ==",
		"== telemetry: tuned workloads ==",
		"mplayer",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live report lacks %q", want)
		}
	}
	// stop() detaches: further simulated time adds no reports.
	n := len(b.String())
	sys.Run(3 * selftune.Second)
	if len(b.String()) != n {
		t.Error("reports kept rendering after stop")
	}
}

// TestWebserverScenarioCharts spawns the bursty webserver kind next to
// a tuned player and checks the telemetry sees its heavy traffic.
func TestWebserverScenarioCharts(t *testing.T) {
	sys, err := selftune.NewSystem(selftune.WithSeed(11), selftune.WithCPUs(2))
	if err != nil {
		t.Fatal(err)
	}
	col, stop := Attach(sys)
	web, err := sys.Spawn("webserver",
		selftune.SpawnName("web-1"),
		selftune.SpawnUtil(0.5),
		selftune.SpawnBurst(8),
		selftune.Tuned(selftune.DefaultTunerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	web.Start(0)
	sys.Run(10 * selftune.Second)
	stop()

	s := col.Snapshot()
	if len(s.Sources) != 1 || s.Sources[0].Name != "web-1" {
		t.Fatalf("sources: %+v", s.Sources)
	}
	if s.Ticks == 0 {
		t.Error("no tuner ticks for the tuned webserver")
	}
	var maxBW float64
	for _, tk := range s.Sources[0].Ticks {
		if tk.Bandwidth > maxBW {
			maxBW = tk.Bandwidth
		}
	}
	if maxBW <= 0 {
		t.Error("webserver never got a budget")
	}
}
