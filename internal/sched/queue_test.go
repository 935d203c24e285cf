package sched

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestFIFOMatchesSlice drives a fifo and a plain slice through random
// push, pop and remove sequences and compares their contents after
// every step, with a popped or removed slot always cleared.
func TestFIFOMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 9))
	for seq := 0; seq < 100; seq++ {
		var q fifo[*int]
		var want []*int
		for step := 0; step < 500; step++ {
			switch k := r.IntN(10); {
			case k < 5 || len(want) == 0:
				x := new(int)
				*x = step
				q.push(x)
				want = append(want, x)
			case k < 9:
				if got := q.pop(); got != want[0] {
					t.Fatalf("step %d: pop returned %d, want %d", step, *got, *want[0])
				}
				want = want[1:]
			default:
				i := r.IntN(len(want))
				q.remove(i)
				want = slices.Delete(want, i, i+1)
			}
			if !slices.Equal(q.items(), want) || q.len() != len(want) {
				t.Fatalf("step %d: queue holds %v, want %v", step, q.items(), want)
			}
			for i, x := range q.buf[:cap(q.buf)] {
				if x != nil && (i < q.head || i >= len(q.buf)) {
					t.Fatalf("step %d: slot %d outside the queue still holds %d", step, i, *x)
				}
			}
		}
	}
}

// TestFIFORotationStaysBounded rotates a queue that never empties — a
// pop and a push per step, like two best-effort tasks taking turns —
// and checks that the array stops growing and the rotation allocates
// nothing once warm.
func TestFIFORotationStaysBounded(t *testing.T) {
	var q fifo[*int]
	for i := 0; i < 3; i++ {
		q.push(new(int))
	}
	rotate := func() { q.push(q.pop()) }
	for i := 0; i < 100; i++ {
		rotate()
	}
	if n := testing.AllocsPerRun(1000, rotate); n != 0 {
		t.Errorf("a warm rotation allocates %v times, want 0", n)
	}
	if c := cap(q.buf); c > 8 {
		t.Errorf("a rotating queue of 3 holds an array of %d, want at most 8", c)
	}
}
