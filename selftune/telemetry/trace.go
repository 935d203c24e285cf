package telemetry

import (
	"encoding/json"
	"io"
	"strconv"

	"repro/selftune"
)

// Chrome trace-event export. The snapshot renders as a JSON object in
// the Trace Event Format (the "JSON Object Format" flavour with a
// traceEvents array), loadable in chrome://tracing and Perfetto:
//
//   - one track (thread) per core, under one "selftune machine"
//     process;
//   - one complete slice per server budget interval: each tuner tick
//     opens a slice named after the workload on its core's track,
//     closed by the next tick (args carry the granted budget, period,
//     bandwidth and detected rate);
//   - instant events for budget exhaustions (thread-scoped, on the
//     exhausting core) and admission rejects (global);
//   - migrations as flow-style instant events on the destination core,
//     with the origin in args; balancer batches (a core stealing
//     several units in one tick) as thread-scoped instants on the
//     claiming core's track;
//   - a counter track with the per-core utilisation samples;
//   - a request-latency counter track (one series per source group)
//     fed by the retained request log, with deadline misses as
//     thread-scoped instants on the serving core.
//
// A snapshot from a topology-aware collector (WithDomains) renders
// each NUMA node as its own lane: one "node N" process per domain with
// its cores' tracks inside it and a per-node mean-utilisation counter,
// while machine-wide events (rejects, the per-core utilisation
// counter) stay on the "selftune machine" process. Flat snapshots keep
// the single-process layout byte-for-byte.

// traceEvent is one entry of the traceEvents array.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: t(hread) | g(lobal)
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// machinePID is the synthetic process id the machine-wide tracks live
// under; with a topology, each NUMA node's lane is its own process at
// machinePID+1+node.
const machinePID = 1

func us(t selftune.Time) float64         { return float64(t) / 1e3 }
func usDur(d selftune.Duration) *float64 { v := float64(d) / 1e3; return &v }

// numDomains returns how many NUMA-node lanes the snapshot renders (0
// for a flat snapshot, which keeps everything on the machine process).
func (s Snapshot) numDomains() int {
	if len(s.Domain) == 0 {
		return 0
	}
	max := 0
	for _, d := range s.Domain {
		if d > max {
			max = d
		}
	}
	return max + 1
}

// domainOf maps a core to its NUMA node (0 for out-of-range cores).
func (s Snapshot) domainOf(core int) int {
	if core < 0 || core >= len(s.Domain) {
		return 0
	}
	return s.Domain[core]
}

// pidOf returns the process a core's track belongs to: the node lane
// of a topology-aware snapshot, or the machine process of a flat one.
func (s Snapshot) pidOf(core int) int {
	if core < 0 || core >= len(s.Domain) {
		return machinePID
	}
	return machinePID + 1 + s.Domain[core]
}

// WriteTrace renders the snapshot in the Chrome trace-event format.
func (s Snapshot) WriteTrace(w io.Writer) error {
	cores := s.Cores
	for _, src := range s.Sources {
		for _, tk := range src.Ticks {
			if tk.Core >= cores {
				cores = tk.Core + 1
			}
		}
	}
	nodes := s.numDomains()
	events := make([]traceEvent, 0,
		2+cores+len(s.LoadSamples)+len(s.Exhausts)+len(s.Moves)+len(s.MoveBatches)+len(s.Rejections))

	// Metadata: process and per-core thread names — one process per
	// NUMA node when the snapshot knows the topology, so the nodes
	// render as separate lanes.
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M", PID: machinePID, TID: 0,
		Args: map[string]any{"name": "selftune machine"},
	})
	for d := 0; d < nodes; d++ {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", PID: machinePID + 1 + d, TID: 0,
			Args: map[string]any{"name": "node " + strconv.Itoa(d)},
		})
	}
	for i := 0; i < cores; i++ {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: s.pidOf(i), TID: i,
			Args: map[string]any{"name": "core " + strconv.Itoa(i)},
		})
	}

	// One complete slice per budget interval, per tuned workload.
	for _, src := range s.Sources {
		for i, tk := range src.Ticks {
			var dur *float64
			if i+1 < len(src.Ticks) {
				dur = usDur(selftune.Duration(src.Ticks[i+1].At - tk.At))
			} else if tk.Period > 0 {
				dur = usDur(tk.Period) // last interval: one period long
			}
			events = append(events, traceEvent{
				Name: src.Name, Cat: "budget", Ph: "X",
				TS: us(tk.At), Dur: dur, PID: s.pidOf(tk.Core), TID: tk.Core,
				Args: map[string]any{
					"granted_ms":  tk.Granted.Milliseconds(),
					"period_ms":   tk.Period.Milliseconds(),
					"bandwidth":   tk.Bandwidth,
					"detected_hz": tk.Detected,
				},
			})
		}
	}

	for _, ex := range s.Exhausts {
		events = append(events, traceEvent{
			Name: "exhaust " + ex.Source, Cat: "cbs", Ph: "i", S: "t",
			TS: us(ex.At), PID: s.pidOf(ex.Core), TID: ex.Core,
		})
	}
	for _, mv := range s.Moves {
		args := map[string]any{"from": mv.From, "to": mv.To, "reason": mv.Reason}
		if nodes > 0 {
			args["cross_node"] = s.domainOf(mv.From) != s.domainOf(mv.To)
		}
		if mv.FromMachine != mv.ToMachine {
			args["from_machine"] = mv.FromMachine
			args["to_machine"] = mv.ToMachine
			mode := "respawn"
			if mv.Live {
				mode = "live"
			}
			args["mode"] = mode
		}
		events = append(events, traceEvent{
			Name: "migrate " + mv.Source, Cat: "balance", Ph: "i", S: "g",
			TS: us(mv.At), PID: s.pidOf(mv.To), TID: mv.To,
			Args: args,
		})
	}
	for _, b := range s.MoveBatches {
		// Multi-unit batches read "<reason> N" ("steal 7", "numa 4"); a
		// push policy's one-unit claims keep their own trigger as the
		// label, so a periodic run's timeline never shows phantom steal
		// markers.
		name := b.Reason
		if b.Reason == "steal" || b.Count > 1 {
			name = b.Reason + " " + strconv.Itoa(b.Count)
		}
		events = append(events, traceEvent{
			Name: name, Cat: "balance", Ph: "i", S: "t",
			TS: us(b.At), PID: s.pidOf(b.Core), TID: b.Core,
			Args: map[string]any{"count": b.Count, "reason": b.Reason},
		})
	}
	for _, rj := range s.Rejections {
		events = append(events, traceEvent{
			Name: "reject " + rj.Source, Cat: "admission", Ph: "i", S: "g",
			TS: us(rj.At), PID: machinePID, TID: 0,
			Args: map[string]any{"reason": rj.Reason},
		})
	}

	// Request completions as a latency counter track (one series per
	// source group) on the machine process, with deadline misses as
	// thread-scoped instants on the core that served the request.
	for _, rr := range s.RequestLog {
		events = append(events, traceEvent{
			Name: "request latency", Cat: "request", Ph: "C",
			TS: us(rr.At), PID: machinePID, TID: 0,
			Args: map[string]any{RequestGroupOf(rr.Source) + "_ms": rr.Latency.Milliseconds()},
		})
		if rr.Missed {
			events = append(events, traceEvent{
				Name: "miss " + rr.Source, Cat: "request", Ph: "i", S: "t",
				TS: us(rr.At), PID: s.pidOf(rr.Core), TID: rr.Core,
			})
		}
	}

	// Per-core utilisation as a counter track on the machine process.
	for _, ls := range s.LoadSamples {
		args := make(map[string]any, len(ls.Loads))
		for i, l := range ls.Loads {
			args["core"+strconv.Itoa(i)] = l
		}
		events = append(events, traceEvent{
			Name: "utilisation", Cat: "load", Ph: "C",
			TS: us(ls.At), PID: machinePID, TID: 0, Args: args,
		})
	}
	// Per-node mean utilisation, one counter track inside each node
	// lane.
	for _, ds := range s.DomainSamples {
		for d, l := range ds.Loads {
			events = append(events, traceEvent{
				Name: "node utilisation", Cat: "load", Ph: "C",
				TS: us(ds.At), PID: machinePID + 1 + d, TID: 0,
				Args: map[string]any{"mean_load": l},
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}
