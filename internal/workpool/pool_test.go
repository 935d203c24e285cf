package workpool

import (
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryIndex checks each index runs exactly once, for
// pool sizes and batch sizes around the inline/pooled boundary.
func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 3, 64, 1000} {
			hits := make([]atomic.Int64, n)
			p.Run(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
	}
}

// TestNilAndZeroPool pins the inline fallbacks: the nil pool and the
// zero value both run batches on the caller, in index order.
func TestNilAndZeroPool(t *testing.T) {
	var order []int
	var nilPool *Pool
	nilPool.Run(3, func(i int) { order = append(order, i) })
	var zero Pool
	zero.Run(3, func(i int) { order = append(order, i) })
	want := []int{0, 1, 2, 0, 1, 2}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("inline order = %v, want %v", order, want)
		}
	}
	if nilPool.Workers() != 1 || zero.Workers() != 1 {
		t.Errorf("inline Workers() = %d/%d, want 1/1", nilPool.Workers(), zero.Workers())
	}
	nilPool.Close()
	zero.Close()
}

// TestCloseIsIdempotentAndRunSurvives checks Close can be called
// repeatedly and that Run after Close falls back to inline execution.
func TestCloseIsIdempotentAndRunSurvives(t *testing.T) {
	p := New(4)
	if p.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", p.Workers())
	}
	p.Close()
	p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers() after Close = %d, want 1", p.Workers())
	}
	var count atomic.Int64
	p.Run(8, func(int) { count.Add(1) })
	if count.Load() != 8 {
		t.Fatalf("Run after Close executed %d of 8 indices", count.Load())
	}
}

// TestUnevenWork checks a batch whose early indices, all in worker
// 0's block, are much more expensive than the rest: the other workers
// steal the rest of that block and every index still runs once.
func TestUnevenWork(t *testing.T) {
	p := New(4)
	defer p.Close()
	var sum atomic.Int64
	p.Run(100, func(i int) {
		if i < 4 {
			for k := 0; k < 1000; k++ {
				sum.Add(1)
			}
			return
		}
		sum.Add(1)
	})
	if got := sum.Load(); got != 4*1000+96 {
		t.Fatalf("sum = %d, want %d", got, 4*1000+96)
	}
}

// TestStealsRunEveryIndexOnce runs batches of uneven per-index cost
// through pools whose workers steal from each other, reusing each pool
// across batch sizes so stale block words of a larger batch must not
// leak into a smaller one. Run it under -race -count=10.
func TestStealsRunEveryIndexOnce(t *testing.T) {
	var sink atomic.Int64
	for _, workers := range []int{2, 4, 16} {
		p := New(workers)
		for round := 0; round < 3; round++ {
			for _, n := range []int{1, 2, 3, 7, 64, 1000} {
				hits := make([]atomic.Int64, n)
				p.Run(n, func(i int) {
					// One contiguous third of the batch, a different
					// third each round, costs ~100x the rest, so the
					// workers owning it fall behind and get robbed.
					spin := 20
					if (i+round*n/3)%n < (n+2)/3 {
						spin = 2000
					}
					for k := 0; k < spin; k++ {
						sink.Add(1)
					}
					hits[i].Add(1)
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("workers=%d round=%d n=%d: index %d ran %d times", workers, round, n, i, got)
					}
				}
			}
		}
		p.Close()
	}
}

// TestBlocksAndHalfSteal checks the block arithmetic on one goroutine:
// the initial blocks tile [0, n) in order, and a steal from a block
// with r indices left takes its back ⌈r/2⌉, so a last index is never
// stranded on a worker that has not woken.
func TestBlocksAndHalfSteal(t *testing.T) {
	for _, w := range []int{2, 3, 4, 16} {
		for _, n := range []int{w, w + 1, 7, 64, 1000} {
			if n < w {
				continue
			}
			next := uint32(0)
			for k := 0; k < w; k++ {
				lo, hi := span(n, w, k)
				if lo != next || hi <= lo {
					t.Fatalf("n=%d w=%d: block %d = [%d, %d), want a non-empty block from %d", n, w, k, lo, hi, next)
				}
				next = hi
			}
			if next != uint32(n) {
				t.Fatalf("n=%d w=%d: blocks end at %d", n, w, next)
			}
		}
	}

	blockOf := func(p *Pool, k int) [2]uint32 {
		lo, hi := unpack(p.blocks[k].word.Load())
		return [2]uint32{lo, hi}
	}
	for r := uint32(1); r <= 9; r++ {
		p := &Pool{blocks: make([]block, 2), w: 2}
		p.blocks[0].word.Store(pack(5, 5)) // the thief, emptied
		p.blocks[1].word.Store(pack(10, 10+r))
		if !p.steal(0) {
			t.Fatalf("r=%d: steal found nothing", r)
		}
		take := (r + 1) / 2
		if got, want := blockOf(p, 0), [2]uint32{10 + r - take, 10 + r}; got != want {
			t.Errorf("r=%d: thief holds %v, want %v", r, got, want)
		}
		if got, want := blockOf(p, 1), [2]uint32{10, 10 + r - take}; got != want {
			t.Errorf("r=%d: victim keeps %v, want %v", r, got, want)
		}
	}

	// The thief robs the fullest block: n = 7 over 3 workers deals
	// [0,2) [2,4) [4,7); worker 0, once empty, splits [4,7).
	p := &Pool{blocks: make([]block, 3), w: 3}
	for k := 0; k < 3; k++ {
		p.blocks[k].word.Store(pack(span(7, 3, k)))
	}
	for want := 0; want < 2; want++ {
		if i, ok := p.blocks[0].take(); !ok || i != want {
			t.Fatalf("take = %d, %v; want %d, true", i, ok, want)
		}
	}
	if _, ok := p.blocks[0].take(); ok {
		t.Fatal("take from an emptied block succeeded")
	}
	p.steal(0)
	if got := [3][2]uint32{blockOf(p, 0), blockOf(p, 1), blockOf(p, 2)}; got != [3][2]uint32{{5, 7}, {2, 4}, {4, 5}} {
		t.Fatalf("after the steal the blocks are %v, want [[5 7] [2 4] [4 5]]", got)
	}
	for k := 0; k < 3; k++ {
		for {
			if _, ok := p.blocks[k].take(); !ok {
				break
			}
		}
	}
	if p.steal(0) {
		t.Fatal("steal succeeded with every block empty")
	}
}
