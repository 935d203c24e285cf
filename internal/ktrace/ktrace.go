// Package ktrace reproduces the paper's kernel-level system-call
// tracer (Sec. 4.1): a bounded circular buffer that records a timestamp
// for each system call issued by a selected set of processes, plus a
// "character device" interface through which the user-space controller
// downloads batches of timestamps. The paper's buffer is statically
// allocated; this one wraps and drops exactly as a fixed ring of the
// same capacity would, but grows its storage on demand up to that
// capacity, so a simulation holding thousands of tracers pays for the
// events they buffer rather than for the rings' capacity.
//
// The four tracers compared in Table 1 are modelled by the per-event
// CPU overhead they charge to the traced application:
//
//   - NoTrace: no recording, no overhead (the baseline row);
//   - QTrace: the paper's kernel patch — an in-kernel timestamp write
//     plus an amortised share of the batched downloads;
//   - QOSTrace: the authors' earlier ptrace-based tool — two context
//     switches per call, partially amortised;
//   - STrace: stock strace — two context switches plus user-space
//     decoding per call.
//
// The overhead is returned to the scheduler that issued the call on
// the job's behalf (sched.SyscallSink), which extends the running
// job's demand by that amount: the slowdown emerges from scheduling
// rather than being bolted onto the result.
package ktrace

import (
	"fmt"

	"repro/internal/simtime"
)

// Kind selects one of the tracers compared in Table 1.
type Kind int

// Tracer kinds.
const (
	NoTrace Kind = iota
	QTrace
	QOSTrace
	STrace
)

var kindNames = [...]string{
	NoTrace:  "NOTRACE",
	QTrace:   "QTRACE",
	QOSTrace: "QOSTRACE",
	STrace:   "STRACE",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// PerEventOverhead returns the CPU demand charged to the traced
// application for each recorded system call. The magnitudes are
// calibrated so that the Table 1 workload (~8400 calls over a 21s
// transcode) lands near the paper's relative overheads: 0.63%, 2.69%
// and 5.51%.
func (k Kind) PerEventOverhead() simtime.Duration {
	switch k {
	case QTrace:
		return 16 * simtime.Microsecond
	case QOSTrace:
		return 67 * simtime.Microsecond
	case STrace:
		return 138 * simtime.Microsecond
	default:
		return 0
	}
}

// Records reports whether this tracer records events at all.
func (k Kind) Records() bool { return k != NoTrace }

// Event is one recorded system call.
type Event struct {
	At  simtime.Time
	PID int
	Nr  int
}

// Buffer is the in-kernel circular event buffer. The zero value is not
// usable; use NewBuffer.
type Buffer struct {
	kind Kind

	ring     []Event // doubles on demand up to capacity; never shrinks
	capacity int
	head     int // next write position
	count    int // valid entries
	dropped  int

	pidFilter map[int]bool // nil = trace all PIDs
	nrFilter  map[int]bool // nil = trace all syscalls

	recorded  int
	discarded int // filtered out
}

// minRing is the first allocation of a ring, in events.
const minRing = 64

// NewBuffer returns a tracer of the given kind whose ring holds up to
// capacity events, the size of the paper's statically allocated
// buffer. The ring starts empty and doubles as events arrive; once it
// reaches capacity, a new event overwrites the oldest.
func NewBuffer(kind Kind, capacity int) *Buffer {
	if capacity <= 0 {
		panic("ktrace: buffer capacity must be positive")
	}
	return &Buffer{kind: kind, capacity: capacity}
}

// push appends one event to the ring: it grows a full ring that is
// still below capacity, and otherwise overwrites the oldest event of a
// full ring, counting it as dropped.
func (b *Buffer) push(e Event) {
	if b.count == len(b.ring) && len(b.ring) < b.capacity {
		// A full ring's oldest event sits at head: unwrap from there.
		ring := make([]Event, min(max(2*len(b.ring), minRing), b.capacity))
		n := copy(ring, b.ring[b.head:])
		copy(ring[n:], b.ring[:b.head])
		b.ring, b.head = ring, b.count
	}
	b.ring[b.head] = e
	if b.head++; b.head == len(b.ring) {
		b.head = 0
	}
	if b.count < len(b.ring) {
		b.count++
	} else {
		b.dropped++
	}
	b.recorded++
}

// Kind returns the tracer kind.
func (b *Buffer) Kind() Kind { return b.kind }

// FilterPIDs restricts recording to the given processes. Calling it
// with no arguments clears the filter (trace everything). This mirrors
// the paper's "selectively trace ... a specified subset of running
// processes" knob, which keeps buffer pressure and analyser noise low.
func (b *Buffer) FilterPIDs(pids ...int) {
	if len(pids) == 0 {
		b.pidFilter = nil
		return
	}
	b.pidFilter = make(map[int]bool, len(pids))
	for _, p := range pids {
		b.pidFilter[p] = true
	}
}

// FilterSyscalls restricts recording to the given syscall numbers.
// Calling it with no arguments clears the filter.
func (b *Buffer) FilterSyscalls(nrs ...int) {
	if len(nrs) == 0 {
		b.nrFilter = nil
		return
	}
	b.nrFilter = make(map[int]bool, len(nrs))
	for _, n := range nrs {
		b.nrFilter[n] = true
	}
}

// Syscall records one system call and returns the CPU overhead charged
// to the caller. It implements the workload package's SyscallSink.
// Filtered-out calls still pay a small fixed entry cost for ptrace-
// based tracers (the stop happens before the filter can be applied),
// but are free for the in-kernel tracer.
func (b *Buffer) Syscall(now simtime.Time, pid, nr int) simtime.Duration {
	if b.kind == NoTrace {
		return 0
	}
	if (b.pidFilter != nil && !b.pidFilter[pid]) || (b.nrFilter != nil && !b.nrFilter[nr]) {
		b.discarded++
		if b.kind == QOSTrace || b.kind == STrace {
			// ptrace() stops the tracee on *every* call regardless of
			// what the tracer then does with it.
			return b.kind.PerEventOverhead()
		}
		return 0
	}
	b.push(Event{At: now, PID: pid, Nr: nr})
	return b.kind.PerEventOverhead()
}

// Len returns the number of events currently buffered.
func (b *Buffer) Len() int { return b.count }

// Recorded returns the total number of events accepted since creation.
func (b *Buffer) Recorded() int { return b.recorded }

// Discarded returns the number of events rejected by the filters.
func (b *Buffer) Discarded() int { return b.discarded }

// Dropped returns the number of events overwritten before download.
func (b *Buffer) Dropped() int { return b.dropped }

// Drain downloads and removes all buffered events in chronological
// order. This is the character-device read performed by the lfs++
// daemon each sampling period.
func (b *Buffer) Drain() []Event {
	out := b.Snapshot()
	b.count = 0
	return out
}

// Snapshot returns the buffered events in chronological order without
// consuming them.
func (b *Buffer) Snapshot() []Event {
	out := make([]Event, 0, b.count)
	start := b.start()
	for i := 0; i < b.count; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out
}

// DrainPID downloads and removes only the events of one process,
// leaving other processes' events buffered in their order. It
// compacts them within the ring and returns one exactly-sized slice,
// nil when the process has nothing buffered.
func (b *Buffer) DrainPID(pid int) []Event {
	mine := 0
	for i, p := 0, b.start(); i < b.count; i++ {
		if b.ring[p].PID == pid {
			mine++
		}
		if p++; p == len(b.ring) {
			p = 0
		}
	}
	if mine == 0 {
		return nil
	}
	return b.AppendDrainPID(make([]Event, 0, mine), pid)
}

// AppendDrainPID is DrainPID appending the process's events to dst,
// for a caller that reuses its storage from one download to the next.
func (b *Buffer) AppendDrainPID(dst []Event, pid int) []Event {
	n := len(dst)
	w := b.start() // the next kept event's slot; never ahead of p
	for i, p := 0, w; i < b.count; i++ {
		if e := b.ring[p]; e.PID == pid {
			dst = append(dst, e)
		} else {
			b.ring[w] = e
			if w++; w == len(b.ring) {
				w = 0
			}
		}
		if p++; p == len(b.ring) {
			p = 0
		}
	}
	b.count -= len(dst) - n
	b.head = w
	return dst
}

// start returns the ring slot of the oldest buffered event.
func (b *Buffer) start() int {
	start := b.head - b.count
	if start < 0 {
		start += len(b.ring)
	}
	return start
}

// Inject appends already recorded events to the buffer, preserving
// their timestamps and charging no tracing overhead — the events were
// recorded (and paid for) elsewhere. It carries a migrating task's
// undownloaded evidence from its old core's tracer into the new one,
// so a per-core-tracer machine loses no analyser input across a
// migration. Filters do not apply: the events passed them at record
// time. Injected events still count in Recorded, so evidence carried
// across a move counts on both tracers.
func (b *Buffer) Inject(events []Event) {
	for _, e := range events {
		b.push(e)
	}
}

// Histogram returns the per-syscall event counts of the buffered
// events (Figure 4's statistic).
func (b *Buffer) Histogram() map[int]int {
	h := make(map[int]int)
	for _, e := range b.Snapshot() {
		h[e.Nr]++
	}
	return h
}

// Timestamps extracts just the instants from a batch of events, the
// form consumed by the period analyser.
func Timestamps(events []Event) []simtime.Time {
	return AppendTimestamps(make([]simtime.Time, 0, len(events)), events)
}

// AppendTimestamps is Timestamps appending the instants to dst.
func AppendTimestamps(dst []simtime.Time, events []Event) []simtime.Time {
	for _, e := range events {
		dst = append(dst, e.At)
	}
	return dst
}
