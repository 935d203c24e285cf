package sched

import (
	"fmt"
	"strings"

	"repro/internal/simtime"
)

// EventKind classifies scheduler log entries.
type EventKind int

// Scheduler event kinds.
const (
	EvDispatch EventKind = iota
	EvJobRelease
	EvJobComplete
	EvExhaust
	EvReplenish
	EvThrottle
	EvWakeup
	EvParamChange
)

var eventKindNames = [...]string{
	EvDispatch:    "dispatch",
	EvJobRelease:  "release",
	EvJobComplete: "complete",
	EvExhaust:     "exhaust",
	EvReplenish:   "replenish",
	EvThrottle:    "throttle",
	EvWakeup:      "wakeup",
	EvParamChange: "params",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// LogEntry is one record in the scheduler event log.
type LogEntry struct {
	At     simtime.Time
	Kind   EventKind
	Task   string // task name, empty for server-only events
	Detail string
}

// String implements fmt.Stringer.
func (e LogEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v %v", e.At, e.Kind)
	if e.Task != "" {
		fmt.Fprintf(&b, " %s", e.Task)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// Log is a bounded ring buffer of scheduler events, kept for tests and
// debugging. When full, the oldest entries are overwritten.
type Log struct {
	entries []LogEntry
	next    int
	full    bool
	dropped int
}

// NewLog returns a log that retains the most recent capacity entries.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		panic("sched: log capacity must be positive")
	}
	return &Log{entries: make([]LogEntry, 0, capacity)}
}

func (l *Log) add(e LogEntry) {
	if len(l.entries) < cap(l.entries) {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % cap(l.entries)
	l.full = true
	l.dropped++
}

// Entries returns the retained entries in chronological order.
func (l *Log) Entries() []LogEntry {
	if !l.full {
		out := make([]LogEntry, len(l.entries))
		copy(out, l.entries)
		return out
	}
	out := make([]LogEntry, 0, cap(l.entries))
	out = append(out, l.entries[l.next:]...)
	out = append(out, l.entries[:l.next]...)
	return out
}

// Dropped returns how many entries were overwritten.
func (l *Log) Dropped() int { return l.dropped }

// Count returns the number of events matching kind.
func (l *Log) Count(kind EventKind) int {
	n := 0
	for _, e := range l.Entries() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// trace appends a formatted entry to the scheduler log. Callers check
// sd.log != nil first: the arguments are boxed into the variadic slice
// before the call, so an unguarded call would allocate on every
// scheduling event even with logging off.
func (sd *Scheduler) trace(kind EventKind, t *Task, format string, args ...any) {
	e := LogEntry{At: sd.now(), Kind: kind}
	if t != nil {
		e.Task = t.name
	}
	if format != "" {
		e.Detail = fmt.Sprintf(format, args...)
	}
	sd.log.add(e)
}
