package spectrum

import (
	"math"
	"runtime"
	"sync"
)

// splitWork is the batch work, in complex exponentials (events × bins),
// from which the kernel splits the bins across runtime.GOMAXPROCS(0)
// goroutines. On a 2-vCPU Xeon at 2.1 GHz the tune benchmark workload
// (seed 1, 8 alternating runs per setting) ran at a median 22.2 sim_s/s
// with this bound, 21.7 to 23.0 with bounds of 8k to 32k exponentials,
// 20.8 at 64k and 96k, and 16.8 with the split off; every run with a
// split beat every run without. One Observe timed alone is too noisy to
// place the bound: at -cpu 2 a two-way split of 88 added and 88 expired
// events took 245 to 357 µs against 334 to 464 µs inline over two
// batches of runs, and from 32 to 80 events neither side won
// consistently.
const splitWork = 48 << 10

// block is the number of bins one exact math.Sincos anchors: the kernel
// evaluates e^{-jω_b t} with math.Sincos at the first bin b of every
// block and reaches the block's other bins by rotating it with
// e^{-jδω t}. Blocks start at bin 0, and a split cuts only between
// them. Each rotation replaces a Sincos by four multiplies and adds two
// roundings of δω·t to the phase, so the size trades speed against
// accuracy. At 16, 32, 64, 128, 256 and 1024 bins one tune-shaped
// Observe took 0.46, 0.38, 0.37, 0.33, 0.34 and 0.29 ms on a 2-vCPU
// Xeon at 2.1 GHz (medians of 5, -cpu 1). At 64 the rotations' share
// of the error bound is under 1/60 of the argument rounding a per-bin
// Sincos already carries, and the default band keeps 16 blocks to
// split; larger blocks gain little speed for a growing error term.
const block = 64

// instant is one event as the kernel reads it: its time t in seconds
// and the cosine and sine of δω·t, the rotation from one bin to the
// next (δω = 2π·DeltaF).
type instant struct {
	t, cos, sin float64
}

// kernel adds e^{-jωt} for every instant in add, in order, to each
// bin's accumulators, then subtracts it for every instant in sub. A
// bin's term for an instant depends only on the instant and on the
// bin's place in its block, and each bin receives its terms in event
// order, so the result does not depend on how events are batched or
// how the blocks are split: parts ranges of whole blocks run
// concurrently, and parts ≤ 0 chooses 1 below splitWork and GOMAXPROCS
// at or above it.
func kernel(re, im []float64, band Band, add, sub []instant, parts int) {
	n := len(re)
	blocks := (n + block - 1) / block
	if parts <= 0 {
		parts = 1
		if (len(add)+len(sub))*n >= splitWork {
			parts = runtime.GOMAXPROCS(0)
		}
	}
	parts = min(parts, blocks)
	if parts <= 1 {
		kernelRange(re, im, band, 0, n, add, sub)
		return
	}
	bin := func(p int) int { return min(p*blocks/parts*block, n) }
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		go func(lo, hi int) {
			defer wg.Done()
			kernelRange(re, im, band, lo, hi, add, sub)
		}(bin(p), bin(p+1))
	}
	kernelRange(re, im, band, 0, bin(1), add, sub)
	wg.Wait()
}

// kernelRange runs the kernel over bins [lo, hi), lo at a block start.
func kernelRange(re, im []float64, band Band, lo, hi int, add, sub []instant) {
	for b := lo; b < hi; b += block {
		end := min(b+block, hi)
		w := 2 * math.Pi * band.Freq(b)
		rotate(re[b:end], im[b:end], w, add, 1)
		rotate(re[b:end], im[b:end], w, sub, -1)
	}
}

// rotate accumulates sign·e^{-jω_i t} for each instant of ts, in order,
// onto one block's accumulators, where ω_0 = w and ω_{i+1} = ω_i + δω:
// the first bin's term is math.Sincos(w·t), and each later one is the
// previous term times e^{-jδω t}. It runs two events per pass, whose
// rotation chains are independent. The sign goes into the first term:
// rounding is symmetric, so rotating −z gives exactly −(z rotated), and
// every term is exactly sign times the unsigned one.
func rotate(re, im []float64, w float64, ts []instant, sign float64) {
	im = im[:len(re)]
	k := 0
	for ; k+1 < len(ts); k += 2 {
		a, b := ts[k], ts[k+1]
		s0, c0 := math.Sincos(w * a.t)
		s1, c1 := math.Sincos(w * b.t)
		c0, s0, c1, s1 = sign*c0, sign*s0, sign*c1, sign*s1
		re[0] += c0
		im[0] -= s0
		re[0] += c1
		im[0] -= s1
		for i := 1; i < len(re); i++ {
			c0, s0 = c0*a.cos-s0*a.sin, s0*a.cos+c0*a.sin
			c1, s1 = c1*b.cos-s1*b.sin, s1*b.cos+c1*b.sin
			re[i] += c0
			im[i] -= s0
			re[i] += c1
			im[i] -= s1
		}
	}
	if k < len(ts) {
		a := ts[k]
		s, c := math.Sincos(w * a.t)
		c, s = sign*c, sign*s
		re[0] += c
		im[0] -= s
		for i := 1; i < len(re); i++ {
			c, s = c*a.cos-s*a.sin, s*a.cos+c*a.sin
			re[i] += c
			im[i] -= s
		}
	}
}
