// Package workpool provides a persistent bounded worker pool for
// data-parallel fan-out with a barrier: Run(n, fn) executes fn(0..n-1)
// across the pool's workers and returns when every index is done.
//
// The pool exists because spawning goroutines per batch is measurable
// on hot paths that fan out thousands of times per run (the cluster
// tick advance, the per-core lane advance between causality fences):
// workers are started once and park on a channel of their own between
// batches, so the steady-state cost of a batch is one channel send per
// helper and one atomic compare-and-swap per index.
//
// Indices are dealt in blocks, not one at a time. Worker k of W owns
// the contiguous block [k·n/W, (k+1)·n/W) and takes indices from its
// front; a worker whose block is empty splits off the back half of the
// fullest remaining block and carries on with that. The point is
// affinity: a caller that runs the same n every batch — a machine's
// lanes at every fence — sees index i on the same goroutine batch
// after batch, so the state fn(i) touches (a lane's engine heap,
// scheduler, and the jobs its tasks recycle) stays in one core's
// caches. A shared
// claim counter handed each lane to whichever worker was free, and on
// a 2-vCPU VM the benchmark's 64-lane dense workload ran slower with
// two Ps than with one (medians 173 against 305 sim_s/s, 5 runs
// each); with blocks, two Ps run it 2.1x faster than the counter did
// (medians of 12 alternating pairs at each of two seeds). The
// half-steal keeps what the counter was for: an uneven index, or a
// helper that wakes late (tens of microseconds), holds the barrier
// only until that helper checks in, not for its whole block.
package workpool

import (
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size worker pool. The zero value and the nil pool
// both run batches inline on the caller; use New for real workers.
//
// The current batch lives in the Pool — its function, worker count
// and one block word per worker — so a pooled Run allocates nothing.
type Pool struct {
	bg     int             // background helpers (workers - 1; the caller participates)
	wake   []chan struct{} // helper k-1's hand-off, buffered so waking never waits on the helper
	blocks []block         // worker k's remaining indices in the current batch
	fn     func(int)       // the current batch's function
	w      int             // workers taking part in the current batch
	wg     sync.WaitGroup  // helpers still in the current batch
	once   sync.Once
}

// cacheLine pads each block word to its own cache line, so a worker
// taking from its block does not invalidate its neighbours' words.
const cacheLine = 64

// block is one worker's remaining indices [lo, hi), packed into one
// word so that a take from the front and a steal from the back are
// each a single compare-and-swap.
type block struct {
	word atomic.Uint64
	_    [cacheLine - 8]byte
}

func pack(lo, hi uint32) uint64 { return uint64(lo)<<32 | uint64(hi) }

func unpack(w uint64) (lo, hi uint32) { return uint32(w >> 32), uint32(w) }

// span returns worker k's initial block of an n-index batch shared by
// w workers: [k·n/w, (k+1)·n/w). The blocks tile [0, n) in order.
func span(n, w, k int) (lo, hi uint32) {
	at := func(k int) uint32 { return uint32(uint64(k) * uint64(n) / uint64(w)) }
	return at(k), at(k + 1)
}

// take claims the front index of b, or reports that b is empty.
func (b *block) take() (int, bool) {
	for {
		w := b.word.Load()
		lo, hi := unpack(w)
		if lo >= hi {
			return 0, false
		}
		if b.word.CompareAndSwap(w, pack(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// New returns a pool of the given total worker count (including the
// calling goroutine, which always participates in Run). workers <= 1
// starts no goroutines: every batch runs inline on the caller.
func New(workers int) *Pool {
	p := &Pool{}
	if workers > 1 {
		p.bg = workers - 1
		p.blocks = make([]block, workers)
		p.wake = make([]chan struct{}, p.bg)
		for i := range p.wake {
			p.wake[i] = make(chan struct{}, 1)
			go p.helper(i + 1)
		}
	}
	return p
}

// helper is worker k (k >= 1): it joins every batch it is woken for
// until Close.
func (p *Pool) helper(k int) {
	for range p.wake[k-1] {
		p.work(k)
		p.wg.Done()
	}
}

// work runs worker k's share of the current batch: its own block from
// the front, then each half it steals, until every block is empty.
func (p *Pool) work(k int) {
	own := &p.blocks[k]
	for {
		for {
			i, ok := own.take()
			if !ok {
				break
			}
			p.fn(i)
		}
		if !p.steal(k) {
			return
		}
	}
}

// steal moves the back half of the fullest other block into worker
// k's block, which is empty, and reports false once every block is.
// Only its owner refills an empty block, and a block's range only
// shrinks until then, so no other worker writes block k meanwhile.
func (p *Pool) steal(k int) bool {
	for {
		victim, most, seen := -1, uint32(0), uint64(0)
		for j := 0; j < p.w; j++ {
			if j == k {
				continue
			}
			w := p.blocks[j].word.Load()
			if lo, hi := unpack(w); hi > lo && hi-lo > most {
				victim, most, seen = j, hi-lo, w
			}
		}
		if victim < 0 {
			return false
		}
		// The victim keeps [lo, mid); the thief takes the back ⌈r/2⌉ of
		// the r left, so a last index never waits for a sleeping owner.
		lo, hi := unpack(seen)
		mid := lo + (hi-lo)/2
		if p.blocks[victim].word.CompareAndSwap(seen, pack(lo, mid)) {
			p.blocks[k].word.Store(pack(mid, hi))
			return true
		}
	}
}

// Workers returns the total worker count, caller included (1 for the
// nil or inline pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.bg + 1
}

// Run executes fn(i) for every i in [0, n) and returns once all calls
// completed (a barrier). The caller is worker 0; worker k owns the
// block [k·n/W, (k+1)·n/W) of the W = min(workers, n) taking part,
// and an emptied worker steals half of the fullest remaining block, so
// uneven per-index cost still balances. With no helpers — a nil pool,
// workers <= 1, or n == 1 — the batch runs inline in index order on
// the caller. Run must not be called concurrently with itself on the
// same pool, and fn must not call Run on the same pool (nested batches
// would deadlock on the barrier).
func (p *Pool) Run(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.bg == 0 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if uint64(n) >= 1<<32 {
		panic("workpool: a batch of 2^32 or more indices does not fit a block word")
	}
	helpers := min(p.bg, n-1)
	p.fn, p.w = fn, helpers+1
	for k := 0; k < p.w; k++ {
		p.blocks[k].word.Store(pack(span(n, p.w, k)))
	}
	p.wg.Add(helpers)
	for k := 1; k <= helpers; k++ {
		p.wake[k-1] <- struct{}{}
	}
	p.work(0)
	p.wg.Wait()
	p.fn = nil
}

// Close retires the background workers. Idempotent; Run keeps working
// after Close (inline on the caller).
func (p *Pool) Close() {
	if p == nil || p.bg == 0 {
		return
	}
	p.once.Do(func() {
		for _, c := range p.wake {
			close(c)
		}
		p.bg = 0
	})
}
