package selftune

// Stage is a single-writer event log that defers delivery to a
// synchronisation barrier. Concurrent simulation gives every event
// source its own stage — each core lane of a laned System, each machine
// of a cluster — so staging needs no locks, and the barrier replays the
// stages in a fixed order, making delivery independent of how the
// sources were scheduled onto goroutines.
//
// A Stage is not safe for concurrent use: it belongs to one source at
// a time, and a drain must not race Observe. The zero value is ready.
type Stage struct {
	events []Event
	loads  []float64 // arena backing the staged events' Loads copies

	// DrainMerged bookkeeping: the cursor and end of this stage's
	// replay, and one entry of the merge heap (heap position i is
	// stored in stages[i].slot, so the merge allocates nothing).
	head, end int
	slot      mergeSlot
}

// mergeSlot is one merge-heap entry: a stage's index and the instant of
// its next event, side by side, so that comparing two entries visits
// neither stage.
type mergeSlot struct {
	at    Time
	stage int
}

// Observe appends an event. Loads is copied into the stage's arena:
// publishers reuse their sample buffers, and by drain time the original
// would be stale. Stage implements Observer.
func (s *Stage) Observe(e Event) {
	if len(e.Loads) > 0 {
		n := len(s.loads)
		s.loads = append(s.loads, e.Loads...)
		e.Loads = s.loads[n:len(s.loads):len(s.loads)]
	}
	s.events = append(s.events, e)
}

// Drain replays the staged events to fn in append order, then resets
// the stage, keeping its storage. fn receives each event in place: it
// must not modify the event or keep the pointer past its return.
// Events fn stages back into s are kept for the next drain.
func (s *Stage) Drain(fn func(*Event)) {
	n := len(s.events)
	for i := 0; i < n; i++ {
		fn(&s.events[i])
	}
	s.discard(n)
}

// discard drops the first n events, keeping any staged after them.
func (s *Stage) discard(n int) {
	rest := copy(s.events, s.events[n:])
	clear(s.events[rest:])
	s.events = s.events[:rest]
	if rest == 0 {
		s.loads = s.loads[:0]
	}
}

// DrainMerged replays the events of several stages to fn as one stream
// ordered by timestamp, ties broken by stage index and then by append
// order, and resets every stage. Each stage must hold its events in
// non-decreasing At order — true of a core lane, which executes in time
// order — so a k-way merge yields the order without sorting. fn
// receives each event in place, as from Drain. Events fn stages back
// into any of the stages are kept for the next drain.
func DrainMerged(stages []Stage, fn func(*Event)) {
	n := 0
	for i := range stages {
		st := &stages[i]
		st.head, st.end = 0, len(st.events)
		if st.end > 0 {
			stages[n].slot = mergeSlot{st.events[0].At, i}
			n++
		}
	}
	for p := n/2 - 1; p >= 0; p-- {
		siftDown(stages, p, n)
	}
	for n > 0 {
		top := &stages[0].slot
		st := &stages[top.stage]
		fn(&st.events[st.head])
		st.head++
		if st.head < st.end {
			top.at = st.events[st.head].At
		} else {
			n--
			*top = stages[n].slot
		}
		siftDown(stages, 0, n)
	}
	for i := range stages {
		stages[i].discard(stages[i].end)
	}
}

// mergeLess orders heap positions a and b by their stages' next
// events: timestamp, then stage index.
func mergeLess(stages []Stage, a, b int) bool {
	x, y := stages[a].slot, stages[b].slot
	return x.at < y.at || (x.at == y.at && x.stage < y.stage)
}

// siftDown restores the heap property below position p of an n-entry
// merge heap.
func siftDown(stages []Stage, p, n int) {
	for {
		c := 2*p + 1
		if c >= n {
			return
		}
		if c+1 < n && mergeLess(stages, c+1, c) {
			c++
		}
		if !mergeLess(stages, c, p) {
			return
		}
		stages[p].slot, stages[c].slot = stages[c].slot, stages[p].slot
		p = c
	}
}
