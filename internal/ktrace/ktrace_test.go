package ktrace

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func ev(ms int64, pid, nr int) (simtime.Time, int, int) {
	return simtime.Time(ms * int64(simtime.Millisecond)), pid, nr
}

func TestRecordAndDrain(t *testing.T) {
	b := NewBuffer(QTrace, 16)
	for i := int64(0); i < 5; i++ {
		b.Syscall(ev(i, 100, 1))
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	events := b.Drain()
	if len(events) != 5 {
		t.Fatalf("drained %d", len(events))
	}
	for i, e := range events {
		if e.At != simtime.Time(int64(i)*int64(simtime.Millisecond)) {
			t.Errorf("event %d at %v", i, e.At)
		}
	}
	if b.Len() != 0 {
		t.Error("Drain did not empty the buffer")
	}
}

func TestRingOverwrite(t *testing.T) {
	b := NewBuffer(QTrace, 4)
	for i := int64(0); i < 10; i++ {
		b.Syscall(ev(i, 1, 1))
	}
	if b.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", b.Dropped())
	}
	events := b.Drain()
	if len(events) != 4 {
		t.Fatalf("drained %d, want 4", len(events))
	}
	// The most recent 4 must survive, in order.
	for i, e := range events {
		want := simtime.Time(int64(6+i) * int64(simtime.Millisecond))
		if e.At != want {
			t.Errorf("event %d at %v, want %v", i, e.At, want)
		}
	}
}

func TestPIDFilter(t *testing.T) {
	b := NewBuffer(QTrace, 16)
	b.FilterPIDs(7)
	b.Syscall(ev(1, 7, 1))
	b.Syscall(ev(2, 8, 1))
	b.Syscall(ev(3, 7, 2))
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
	if b.Discarded() != 1 {
		t.Errorf("Discarded = %d, want 1", b.Discarded())
	}
	b.FilterPIDs() // clear
	b.Syscall(ev(4, 8, 1))
	if b.Len() != 3 {
		t.Error("cleared PID filter still filtering")
	}
}

func TestSyscallFilter(t *testing.T) {
	b := NewBuffer(QTrace, 16)
	b.FilterSyscalls(5)
	b.Syscall(ev(1, 1, 5))
	b.Syscall(ev(2, 1, 6))
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
}

func TestOverheadPerKind(t *testing.T) {
	var prev simtime.Duration = -1
	for _, k := range []Kind{NoTrace, QTrace, QOSTrace, STrace} {
		ov := k.PerEventOverhead()
		if ov <= prev {
			t.Errorf("overhead of %v (%v) not greater than previous (%v)", k, ov, prev)
		}
		prev = ov
		b := NewBuffer(k, 8)
		got := b.Syscall(ev(1, 1, 1))
		if got != ov {
			t.Errorf("%v Syscall overhead %v, want %v", k, got, ov)
		}
	}
	if NoTrace.Records() || !QTrace.Records() {
		t.Error("Records() wrong")
	}
}

func TestNoTraceRecordsNothing(t *testing.T) {
	b := NewBuffer(NoTrace, 8)
	if ov := b.Syscall(ev(1, 1, 1)); ov != 0 {
		t.Errorf("NoTrace charged %v", ov)
	}
	if b.Len() != 0 || b.Recorded() != 0 {
		t.Error("NoTrace recorded events")
	}
}

func TestPtraceChargesFilteredCalls(t *testing.T) {
	// ptrace-based tracers stop the tracee on every syscall, so even
	// filtered-out calls cost; the in-kernel tracer filters for free.
	for _, k := range []Kind{QOSTrace, STrace} {
		b := NewBuffer(k, 8)
		b.FilterPIDs(42)
		if ov := b.Syscall(ev(1, 1, 1)); ov != k.PerEventOverhead() {
			t.Errorf("%v filtered call charged %v", k, ov)
		}
	}
	b := NewBuffer(QTrace, 8)
	b.FilterPIDs(42)
	if ov := b.Syscall(ev(1, 1, 1)); ov != 0 {
		t.Errorf("QTrace filtered call charged %v", ov)
	}
}

func TestDrainPID(t *testing.T) {
	b := NewBuffer(QTrace, 16)
	b.Syscall(ev(1, 7, 1))
	b.Syscall(ev(2, 8, 1))
	b.Syscall(ev(3, 7, 1))
	b.Syscall(ev(4, 9, 1))
	mine := b.DrainPID(7)
	if len(mine) != 2 {
		t.Fatalf("DrainPID(7) returned %d", len(mine))
	}
	rest := b.Drain()
	if len(rest) != 2 {
		t.Fatalf("remaining %d, want 2", len(rest))
	}
	if rest[0].PID != 8 || rest[1].PID != 9 {
		t.Errorf("remaining PIDs %d,%d", rest[0].PID, rest[1].PID)
	}
}

// refDrainPID is DrainPID as it was before it compacted in place: drain
// the whole ring, split it into the process's events and the rest, and
// re-append the rest.
func refDrainPID(b *Buffer, pid int) []Event {
	all := b.Drain()
	var mine, rest []Event
	for _, e := range all {
		if e.PID == pid {
			mine = append(mine, e)
		} else {
			rest = append(rest, e)
		}
	}
	for _, e := range rest {
		b.ring[b.head] = e
		b.head = (b.head + 1) % len(b.ring)
		if b.count < len(b.ring) {
			b.count++
		} else {
			b.dropped++
		}
	}
	return mine
}

// TestDrainPIDMatchesReference drives DrainPID and the reference on
// twin buffers through random Syscall, DrainPID, AppendDrainPID, Drain
// and Inject sequences on rings small enough to wrap and drop, and compares the
// observable state after every step.
func TestDrainPIDMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 5))
	for seq := 0; seq < 300; seq++ {
		capacity := 4 + r.IntN(61)
		got, want := NewBuffer(QTrace, capacity), NewBuffer(QTrace, capacity)
		now := simtime.Time(0)
		for step := 0; step < 400; step++ {
			var op string
			var gotOut, wantOut []Event
			switch k := r.IntN(10); {
			case k < 6:
				op = "Syscall"
				now += simtime.Time(1 + r.IntN(1000))
				pid, nr := 1+r.IntN(4), r.IntN(3)
				got.Syscall(now, pid, nr)
				want.Syscall(now, pid, nr)
			case k < 7:
				pid := 1 + r.IntN(5) // 5 is never recorded
				op = fmt.Sprintf("DrainPID(%d)", pid)
				gotOut, wantOut = got.DrainPID(pid), refDrainPID(want, pid)
			case k < 8:
				pid := 1 + r.IntN(5)
				op = fmt.Sprintf("AppendDrainPID(%d)", pid)
				prefix := []Event{{At: -1, PID: 9}, {At: -2, PID: 9}}[:r.IntN(3)]
				out := got.AppendDrainPID(slices.Clone(prefix), pid)
				if !slices.Equal(out[:len(prefix)], prefix) {
					t.Fatalf("capacity %d, step %d, %s: dst prefix %v became %v", capacity, step, op, prefix, out[:len(prefix)])
				}
				gotOut, wantOut = out[len(prefix):], refDrainPID(want, pid)
			case k < 9:
				op = "Drain"
				gotOut, wantOut = got.Drain(), want.Drain()
			default:
				op = "Inject"
				batch := make([]Event, r.IntN(capacity+2))
				for i := range batch {
					now += simtime.Time(1 + r.IntN(1000))
					batch[i] = Event{At: now, PID: 1 + r.IntN(4), Nr: r.IntN(3)}
				}
				got.Inject(batch)
				want.Inject(batch)
			}
			if !slices.Equal(gotOut, wantOut) || !slices.Equal(got.Snapshot(), want.Snapshot()) ||
				got.Len() != want.Len() || got.Dropped() != want.Dropped() || got.Recorded() != want.Recorded() {
				t.Fatalf("capacity %d, step %d, %s: returned %v, buffered %v (len %d, dropped %d, recorded %d); "+
					"reference returned %v, buffered %v (len %d, dropped %d, recorded %d)",
					capacity, step, op, gotOut, got.Snapshot(), got.Len(), got.Dropped(), got.Recorded(),
					wantOut, want.Snapshot(), want.Len(), want.Dropped(), want.Recorded())
			}
		}
	}
}

func TestDrainPIDAllocatesOnlyItsResult(t *testing.T) {
	b := NewBuffer(QTrace, 64)
	for i := int64(0); i < 48; i++ {
		b.Syscall(ev(i, 1+int(i%3), 1))
	}
	if a := testing.AllocsPerRun(10, func() { b.DrainPID(9) }); a != 0 {
		t.Errorf("DrainPID of an absent PID allocates %v times, want 0", a)
	}
	now := int64(100)
	a := testing.AllocsPerRun(10, func() {
		for i := 0; i < 8; i++ {
			now++
			b.Syscall(ev(now, 4, 1))
		}
		if got := b.DrainPID(4); len(got) != 8 || cap(got) != 8 {
			t.Fatalf("DrainPID returned len %d cap %d, want 8 and 8", len(got), cap(got))
		}
	})
	if a != 1 {
		t.Errorf("DrainPID allocates %v times, want 1", a)
	}
}

// TestSyscallIntoFullRingAllocatesNothing pins BenchmarkSyscall's
// path: a record into a ring grown to its capacity overwrites the
// oldest event in place.
func TestSyscallIntoFullRingAllocatesNothing(t *testing.T) {
	b := NewBuffer(QTrace, 4*minRing)
	now := int64(0)
	record := func() {
		now++
		b.Syscall(ev(now, 1+int(now%3), 1))
	}
	for b.Len() < 4*minRing {
		record()
	}
	if a := testing.AllocsPerRun(100, record); a != 0 {
		t.Errorf("a record into a full ring allocates %v times, want 0", a)
	}
	if b.Dropped() != 101 {
		t.Errorf("%d events dropped, want 101", b.Dropped())
	}
}

func TestSnapshotDoesNotConsume(t *testing.T) {
	b := NewBuffer(QTrace, 8)
	b.Syscall(ev(1, 1, 1))
	if len(b.Snapshot()) != 1 || b.Len() != 1 {
		t.Error("Snapshot consumed events")
	}
}

func TestHistogram(t *testing.T) {
	b := NewBuffer(QTrace, 32)
	for i := 0; i < 10; i++ {
		b.Syscall(ev(int64(i), 1, 16)) // ioctl-ish
	}
	for i := 0; i < 3; i++ {
		b.Syscall(ev(int64(20+i), 1, 0))
	}
	h := b.Histogram()
	if h[16] != 10 || h[0] != 3 {
		t.Errorf("histogram = %v", h)
	}
}

func TestTimestamps(t *testing.T) {
	events := []Event{{At: 5}, {At: 9}}
	ts := Timestamps(events)
	if len(ts) != 2 || ts[0] != 5 || ts[1] != 9 {
		t.Errorf("Timestamps = %v", ts)
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBuffer(0) did not panic")
		}
	}()
	NewBuffer(QTrace, 0)
}

func TestQuickDrainPreservesChronology(t *testing.T) {
	check := func(capSeed, n uint8) bool {
		capacity := int(capSeed%63) + 1
		b := NewBuffer(QTrace, capacity)
		for i := 0; i < int(n); i++ {
			b.Syscall(simtime.Time(i), 1, 1)
		}
		events := b.Drain()
		for i := 1; i < len(events); i++ {
			if events[i].At <= events[i-1].At {
				return false
			}
		}
		wantLen := int(n)
		if wantLen > capacity {
			wantLen = capacity
		}
		return len(events) == wantLen
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// fixedRing is the tracer ring allocated whole up front: the reference
// a lazily grown Buffer must match event for event, drop for drop.
type fixedRing struct {
	ring                           []Event
	head, count, dropped, recorded int
}

func (r *fixedRing) push(e Event) {
	r.ring[r.head] = e
	r.head = (r.head + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	} else {
		r.dropped++
	}
	r.recorded++
}

func (r *fixedRing) snapshot() []Event {
	var out []Event
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(r.head-r.count+i+len(r.ring))%len(r.ring)])
	}
	return out
}

// drainPID removes and returns pid's events, or every event for a
// negative pid, keeping the rest in order.
func (r *fixedRing) drainPID(pid int) []Event {
	var mine, rest []Event
	for _, e := range r.snapshot() {
		if pid < 0 || e.PID == pid {
			mine = append(mine, e)
		} else {
			rest = append(rest, e)
		}
	}
	r.count = 0
	for _, e := range rest {
		r.ring[r.head] = e
		r.head = (r.head + 1) % len(r.ring)
		r.count++
	}
	return mine
}

// TestLazyRingMatchesFixedRing drives a Buffer and a fixedRing of the
// same capacity through random Syscall, recordOnly, Inject, Drain and
// DrainPID sequences, on capacities around the first allocation so the
// ring grows, reaches capacity, wraps and drops, and compares the
// observable state after every step. The Buffer's storage must double
// from minRing, stop at capacity and never shrink.
func TestLazyRingMatchesFixedRing(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 7))
	for seq := 0; seq < 100; seq++ {
		capacity := 1 + r.IntN(5*minRing)
		got, want := NewBuffer(QTrace, capacity), &fixedRing{ring: make([]Event, capacity)}
		got.FilterPIDs(1, 2, 3, 4)
		now := simtime.Time(0)
		size := 0 // the ring's length after the previous step
		for step := 0; step < 600; step++ {
			var op string
			var gotOut, wantOut []Event
			now += simtime.Time(1 + r.IntN(1000))
			pid, nr := 1+r.IntN(5), r.IntN(3) // PID 5 is filtered out
			switch k := r.IntN(20); {
			case k < 8:
				op = "Syscall"
				got.Syscall(now, pid, nr)
				if pid != 5 {
					want.push(Event{At: now, PID: pid, Nr: nr})
				}
			case k < 14:
				op = "recordOnly"
				got.recordOnly(now, pid, nr)
				if pid != 5 {
					want.push(Event{At: now, PID: pid, Nr: nr})
				}
			case k < 16:
				op = fmt.Sprintf("DrainPID(%d)", pid)
				gotOut, wantOut = got.DrainPID(pid), want.drainPID(pid)
			case k < 17:
				op = "Drain"
				gotOut, wantOut = got.Drain(), want.drainPID(-1)
			default:
				op = "Inject"
				batch := make([]Event, r.IntN(capacity/2+2))
				for i := range batch {
					now += simtime.Time(1 + r.IntN(1000))
					batch[i] = Event{At: now, PID: 1 + r.IntN(5), Nr: r.IntN(3)}
				}
				got.Inject(batch)
				for _, e := range batch {
					want.push(e)
				}
			}
			if !slices.Equal(gotOut, wantOut) || !slices.Equal(got.Snapshot(), want.snapshot()) ||
				got.Len() != want.count || got.Dropped() != want.dropped || got.Recorded() != want.recorded {
				t.Fatalf("capacity %d, step %d, %s: returned %v, buffered %v (len %d, dropped %d, recorded %d); "+
					"fixed ring returned %v, buffered %v (len %d, dropped %d, recorded %d)",
					capacity, step, op, gotOut, got.Snapshot(), got.Len(), got.Dropped(), got.Recorded(),
					wantOut, want.snapshot(), want.count, want.dropped, want.recorded)
			}
			n := len(got.ring)
			doubled := n >= minRing && n&(n-1) == 0 // minRing times a power of two
			if n < size || n > capacity || (n != 0 && n != capacity && !doubled) {
				t.Fatalf("capacity %d, step %d, %s: ring went from %d to %d events", capacity, step, op, size, n)
			}
			size = n
		}
	}
}

// TestRingGrowsOnDemand checks that a new tracer allocates no ring and
// that a ring holds at most twice its peak occupancy below capacity.
func TestRingGrowsOnDemand(t *testing.T) {
	b := NewBuffer(QTrace, 1<<16)
	if len(b.ring) != 0 {
		t.Fatalf("fresh buffer holds a ring of %d events, want 0", len(b.ring))
	}
	for i := int64(0); i < 100; i++ {
		b.Syscall(ev(i, 1, 1))
	}
	b.Drain()
	for i := int64(0); i < 100; i++ {
		b.Syscall(ev(100+i, 1, 1))
	}
	if len(b.ring) != 2*minRing {
		t.Errorf("ring of %d events after two rounds of 100, want %d", len(b.ring), 2*minRing)
	}
}
