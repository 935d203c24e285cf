package sim

import (
	"sort"
	"testing"

	"repro/internal/simtime"
)

// FuzzQueueOrder drives the engine with an interleaved stream of
// schedule / cancel / step operations decoded from the fuzz input and
// checks every fired event against a reference model: events must
// fire in (when, scheduling-order) order, same-instant events FIFO,
// and a cancel — including a cancel through a stale handle whose
// storage the free list has since recycled — never disturbs the order
// of the survivors.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 0, 3, 2, 2, 0, 5, 1, 0, 2, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 2, 3})
	f.Add([]byte{0, 1, 1, 128, 0, 1, 0, 1, 2, 1, 0, 1, 1, 0, 2, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		type item struct {
			id   int
			when simtime.Time
			seq  uint64 // mirrors the engine's scheduling-order counter
		}
		e := New()
		var (
			model  []item // pending events, unordered
			timers = make(map[int]Timer)
			stale  []Timer // handles of fired/cancelled events
			fired  []int   // ids in fire order, appended by callbacks
			nextID int
			seq    uint64
		)
		liveIDs := func() []int {
			ids := make([]int, 0, len(timers))
			for id := range timers {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			return ids
		}
		// step fires the earliest pending event and checks it against
		// the model's minimum by (when, seq).
		step := func() {
			if len(model) == 0 {
				if e.Step() {
					t.Fatal("engine fired with empty model")
				}
				return
			}
			min := 0
			for i, it := range model {
				if it.when < model[min].when ||
					(it.when == model[min].when && it.seq < model[min].seq) {
					min = i
				}
			}
			want := model[min]
			if !e.Step() {
				t.Fatalf("engine empty but model holds %d events", len(model))
			}
			got := fired[len(fired)-1]
			if got != want.id {
				t.Fatalf("fired id %d, want %d (when=%v seq=%d)", got, want.id, want.when, want.seq)
			}
			if e.Now() != want.when {
				t.Fatalf("fired at %v, want %v", e.Now(), want.when)
			}
			stale = append(stale, timers[want.id])
			delete(timers, want.id)
			model = append(model[:min], model[min+1:]...)
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%3, data[i+1]
			switch op {
			case 0: // schedule at now + small delta (collisions are the point)
				id := nextID
				nextID++
				when := e.Now().Add(simtime.Duration(arg % 16))
				timers[id] = e.At(when, func() { fired = append(fired, id) })
				model = append(model, item{id: id, when: when, seq: seq})
				seq++
			case 1: // cancel a live timer, or (high bit) a stale one
				if arg >= 128 && len(stale) > 0 {
					e.Cancel(stale[int(arg)%len(stale)]) // must be a no-op
					break
				}
				ids := liveIDs()
				if len(ids) == 0 {
					break
				}
				id := ids[int(arg)%len(ids)]
				e.Cancel(timers[id])
				stale = append(stale, timers[id])
				delete(timers, id)
				for j, it := range model {
					if it.id == id {
						model = append(model[:j], model[j+1:]...)
						break
					}
				}
			case 2: // fire a few events (255 drains everything)
				n := int(arg % 4)
				if arg == 255 {
					n = len(model)
				}
				for ; n > 0; n-- {
					step()
				}
			}
		}
		for len(model) > 0 {
			step()
		}
		if e.Step() {
			t.Fatal("engine fired after model drained")
		}
		// Every stale handle must read as not pending, and cancelling
		// it again must leave the (now empty) queue empty.
		for _, tm := range stale {
			if tm.Pending() {
				t.Fatal("stale handle reports pending")
			}
			e.Cancel(tm)
		}
		if !e.Empty() {
			t.Fatal("queue not empty after drain")
		}
	})
}
