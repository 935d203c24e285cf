package telemetry

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/report"
	"repro/selftune"
)

// Tables renders the snapshot as aligned-text tables (internal/report
// style): event counters, per-core utilisation, and one row per tuned
// workload. The live ReportSink prints these on an interval; batch
// callers can render them once after Run.
func (s Snapshot) Tables() []*report.Table {
	counters := report.NewTable("telemetry: events", "event", "count")
	counters.AddRowf("tuner ticks", s.Ticks)
	counters.AddRowf("budget exhaustions", s.Exhaustions)
	counters.AddRowf("migrations", s.Migrations)
	if len(s.Domain) > 0 {
		counters.AddRowf("cross-node migrations", s.CrossNodeMigrations)
	}
	if s.LiveMigrations+s.RespawnMigrations > 0 {
		counters.AddRowf("live migrations (cross-machine)", s.LiveMigrations)
		counters.AddRowf("respawn migrations (cross-machine)", s.RespawnMigrations)
	}
	counters.AddRowf("migration batches", s.Batches)
	counters.AddRowf("admission rejects", s.Rejects)
	counters.AddRowf("load samples", s.LoadEvents)
	if s.Requests > 0 {
		counters.AddRowf("requests completed", s.Requests)
		counters.AddRowf("deadline misses", s.DeadlineMisses)
	}
	out := []*report.Table{counters}

	if len(s.Loads) > 0 {
		if len(s.Domain) > 0 {
			cores := report.NewTable("telemetry: per-core utilisation", "core", "node", "load", "slack")
			for i, l := range s.Loads {
				node := 0
				if i < len(s.Domain) {
					node = s.Domain[i]
				}
				cores.AddRowf(i, node, l, 1-l)
			}
			out = append(out, cores)
		} else {
			cores := report.NewTable("telemetry: per-core utilisation", "core", "load", "slack")
			for i, l := range s.Loads {
				cores.AddRowf(i, l, 1-l)
			}
			out = append(out, cores)
		}
	}

	if len(s.DomainLoads) > 0 {
		nodes := report.NewTable("telemetry: per-domain utilisation", "node", "mean load")
		for d, l := range s.DomainLoads {
			nodes.AddRowf(d, l)
		}
		out = append(out, nodes)
	}

	if len(s.Sources) > 0 {
		w := report.NewTable("telemetry: tuned workloads",
			"workload", "core", "ticks", "exhaust", "period", "budget", "bw", "detected")
		for _, src := range s.Sources {
			if len(src.Ticks) == 0 {
				w.AddRowf(src.Name, src.Core, 0, src.Exhaustions, "-", "-", "-", "-")
				continue
			}
			last := src.Ticks[len(src.Ticks)-1]
			w.AddRowf(src.Name, src.Core, len(src.Ticks), src.Exhaustions,
				last.Period.String(), last.Granted.String(), last.Bandwidth,
				fmt.Sprintf("%.2fHz", last.Detected))
		}
		out = append(out, w)
	}

	if len(s.RequestGroups) > 0 {
		lat := report.NewTable("telemetry: request latency",
			"group", "kind", "requests", "missed", "p50", "p95", "p99")
		for _, g := range s.RequestGroups {
			lat.AddRowf(g.Name, g.Kind, g.Requests, g.Misses,
				g.Latency.Quantile(0.50).String(),
				g.Latency.Quantile(0.95).String(),
				g.Latency.Quantile(0.99).String())
		}
		if s.Latency.Under > 0 || s.Latency.Over > 0 {
			lat.AddNote("out of histogram range: %d under 1µs, %d over 100s",
				s.Latency.Under, s.Latency.Over)
		}
		out = append(out, lat)
	}

	if len(s.SLOs) > 0 {
		slos := report.NewTable("telemetry: slo attainment",
			"slo", "objective", "requests", "attainment", "burn", "met")
		for _, st := range s.SLOs {
			obj := fmt.Sprintf("p%g<=%s", st.Quantile*100, st.Threshold)
			met := "MET"
			if !st.Met() {
				met = "VIOLATED"
			}
			slos.AddRowf(st.Name, obj, st.Requests,
				fmt.Sprintf("%.4f", st.Attainment()),
				fmt.Sprintf("%.2f", st.ErrorBudgetBurn()), met)
		}
		out = append(out, slos)
	}

	if s.TunerError.Total() > 0 || s.Slack.Total() > 0 {
		hists := report.NewTable("telemetry: histogram mass",
			"histogram", "total", "in range", "under", "over")
		for _, h := range []struct {
			name string
			h    Histogram
		}{
			{"compression error", s.TunerError},
			{"core slack", s.Slack},
		} {
			t := h.h.Total()
			hists.AddRowf(h.name, t, t-h.h.Under-h.h.Over, h.h.Under, h.h.Over)
		}
		out = append(out, hists)
	}
	return out
}

// ReportSink is the live half of the pipeline: it subscribes a
// Collector to a System and renders the snapshot tables to a writer on
// a fixed interval of the System's simulated clock — the streaming
// replacement for ad-hoc printing inside simulation loops.
type ReportSink struct {
	mu     sync.Mutex
	w      io.Writer
	every  selftune.Duration
	col    *Collector
	clock  selftune.Clock
	cancel func()
	live   bool
}

// NewReportSink returns a sink rendering to w every interval of
// simulated (observation-clock) time once attached.
func NewReportSink(w io.Writer, every selftune.Duration) *ReportSink {
	if w == nil {
		panic("telemetry: NewReportSink(nil writer)")
	}
	if every <= 0 {
		panic(fmt.Sprintf("telemetry: NewReportSink interval %v must be positive", every))
	}
	return &ReportSink{w: w, every: every, col: NewCollector()}
}

// Collector returns the sink's underlying collector, for exporting a
// CSV or trace of the same run after the live reports.
func (rs *ReportSink) Collector() *Collector { return rs.col }

// Attach subscribes the sink to the System and starts the render
// timer. The returned stop function cancels the subscription, stops
// future renders and emits one final report.
func (rs *ReportSink) Attach(sys *selftune.System) (stop func()) {
	rs.mu.Lock()
	if rs.live {
		rs.mu.Unlock()
		panic("telemetry: ReportSink attached twice")
	}
	rs.live = true
	rs.clock = sys.Clock()
	rs.cancel = sys.Subscribe(rs.col)
	rs.mu.Unlock()

	var tick func()
	tick = func() {
		rs.mu.Lock()
		live := rs.live
		rs.mu.Unlock()
		if !live {
			return
		}
		rs.Render()
		rs.clock.After(rs.every, tick)
	}
	rs.clock.After(rs.every, tick)

	return func() {
		rs.mu.Lock()
		if !rs.live {
			rs.mu.Unlock()
			return
		}
		rs.live = false
		cancel := rs.cancel
		rs.mu.Unlock()
		cancel()
		rs.Render()
	}
}

// Render writes one report of the current snapshot.
func (rs *ReportSink) Render() {
	snap := rs.col.Snapshot()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.clock != nil {
		fmt.Fprintf(rs.w, "---- telemetry @ %v ----\n", rs.clock.Now())
	} else {
		fmt.Fprintln(rs.w, "---- telemetry ----")
	}
	for _, t := range snap.Tables() {
		t.Render(rs.w)
	}
	fmt.Fprintln(rs.w)
}
