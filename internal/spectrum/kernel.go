package spectrum

import (
	"math"
	"runtime"
	"sync"
)

// splitWork is the batch work, in complex exponentials (events × bins),
// from which the kernel splits the bins across runtime.GOMAXPROCS(0)
// goroutines. On a 2-vCPU Xeon at 2.1 GHz a two-way split of the
// default band broke even at ~34 events (~34k exponentials, ~0.5 ms
// inline) and won 1.7× at 48; the bound keeps that margin, so a split
// does not lose to starting and joining the goroutine.
const splitWork = 48 << 10

// kernel adds e^{-jωt} for every instant t in add (seconds, in
// order) to each bin's accumulators, then subtracts it for every
// instant in sub. Per bin that is exactly the floating-point sequence
// of an event-by-event loop, one Sincos and one add or subtract per
// event in event order, so the result does not depend on how the bins
// are split: parts ranges of contiguous bins run concurrently, and
// parts ≤ 0 chooses 1 below splitWork and GOMAXPROCS at or above it.
func kernel(re, im []float64, band Band, add, sub []float64, parts int) {
	n := len(re)
	if parts <= 0 {
		parts = 1
		if (len(add)+len(sub))*n >= splitWork {
			parts = runtime.GOMAXPROCS(0)
		}
	}
	parts = min(parts, n)
	if parts <= 1 {
		kernelRange(re, im, band, 0, n, add, sub)
		return
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		go func(lo, hi int) {
			defer wg.Done()
			kernelRange(re, im, band, lo, hi, add, sub)
		}(p*n/parts, (p+1)*n/parts)
	}
	kernelRange(re, im, band, 0, n/parts, add, sub)
	wg.Wait()
}

// kernelRange runs the kernel's per-bin sequence over bins [lo, hi).
func kernelRange(re, im []float64, band Band, lo, hi int, add, sub []float64) {
	for i := lo; i < hi; i++ {
		w := 2 * math.Pi * band.Freq(i)
		r, m := sweep(re[i], im[i], w, add, 1)
		re[i], im[i] = sweep(r, m, w, sub, -1)
	}
}

// sweep accumulates sign·e^{-jωt} for each instant t of ts, in order,
// onto one bin's accumulators, two events per iteration.
func sweep(re, im, w float64, ts []float64, sign float64) (float64, float64) {
	k := 0
	for ; k+1 < len(ts); k += 2 {
		s0, c0, s1, c1 := sincos2(w*ts[k], w*ts[k+1])
		re += sign * c0
		im -= sign * s0
		re += sign * c1
		im -= sign * s1
	}
	if k < len(ts) {
		s, c := math.Sincos(w * ts[k])
		re += sign * c
		im -= sign * s
	}
	return re, im
}

// The constants of math.Sincos: π/4 split into three parts for the
// Cody-Waite reduction, and the minimax polynomial coefficients.
const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

	reduceThreshold = 1 << 29 // math.Sincos's bound for the three-part reduction

	sin0 = 1.58962301576546568060e-10  // 0x3de5d8fd1fd19ccd
	sin1 = -2.50507477628578072866e-8  // 0xbe5ae5e5a9291f5d
	sin2 = 2.75573136213857245213e-6   // 0x3ec71de3567d48a1
	sin3 = -1.98412698295895385996e-4  // 0xbf2a01a019bfdf03
	sin4 = 8.33333333332211858878e-3   // 0x3f8111111110f7d0
	sin5 = -1.66666666666666307295e-1  // 0xbfc5555555555548
	cos0 = -1.13585365213876817300e-11 // 0xbda8fa49a0861a9b
	cos1 = 2.08757008419747316778e-9   // 0x3e21ee9d7b4e3f05
	cos2 = -2.75573141792967388112e-7  // 0xbe927e4f7eac4bc6
	cos3 = 2.48015872888517045348e-5   // 0x3efa01a019c844f5
	cos4 = -1.38888888888730564116e-3  // 0xbf56c16c16c14f91
	cos5 = 4.16666666666665929218e-2   // 0x3fa555555555554b
)

// sincos2 returns math.Sincos(x0) and math.Sincos(x1), bit for bit.
// When both arguments lie in (0, 2^29) it runs math.Sincos's own
// reduction and polynomials inline, the two evaluations interleaved,
// every operation and its order kept, and picks the octant with bit
// masks instead of branches. Any other argument (0, negative, ≥ 2^29,
// NaN, ±Inf) goes to math.Sincos.
func sincos2(x0, x1 float64) (s0, c0, s1, c1 float64) {
	if !(x0 > 0 && x0 < reduceThreshold && x1 > 0 && x1 < reduceThreshold) {
		s0, c0 = math.Sincos(x0)
		s1, c1 = math.Sincos(x1)
		return
	}
	// The integer part of x/(π/4), below 2^30 here, so the signed
	// conversions give math.Sincos's values without its unsigned ones'
	// branches.
	j0 := int64(x0 * (4 / math.Pi))
	j1 := int64(x1 * (4 / math.Pi))
	j0 += j0 & 1 // map zeros to origin
	j1 += j1 & 1
	y0, y1 := float64(j0), float64(j1)
	z0 := ((x0 - y0*pi4A) - y0*pi4B) - y0*pi4C
	z1 := ((x1 - y1*pi4A) - y1*pi4B) - y1*pi4C
	zz0, zz1 := z0*z0, z1*z1
	c0 = 1.0 - 0.5*zz0 + zz0*zz0*((((((cos0*zz0)+cos1)*zz0+cos2)*zz0+cos3)*zz0+cos4)*zz0+cos5)
	c1 = 1.0 - 0.5*zz1 + zz1*zz1*((((((cos0*zz1)+cos1)*zz1+cos2)*zz1+cos3)*zz1+cos4)*zz1+cos5)
	s0 = z0 + z0*zz0*((((((sin0*zz0)+sin1)*zz0+sin2)*zz0+sin3)*zz0+sin4)*zz0+sin5)
	s1 = z1 + z1*zz1*((((((sin0*zz1)+sin1)*zz1+sin2)*zz1+sin3)*zz1+sin4)*zz1+sin5)
	s0, c0 = octant(uint64(j0), s0, c0)
	s1, c1 = octant(uint64(j1), s1, c1)
	return
}

// octant maps the polynomials' sin and cos of the reduced argument to
// those of x, given x's even octant j (mod 8): octants 2 and 6 swap the
// pair, 4 and 6 negate sin, 2 and 4 negate cos.
func octant(j uint64, s, c float64) (float64, float64) {
	swap := -(j >> 1 & 1)
	sb, cb := math.Float64bits(s), math.Float64bits(c)
	d := (sb ^ cb) & swap
	sb ^= d ^ (j>>2&1)<<63
	cb ^= d ^ (j>>1^j>>2)&1<<63
	return math.Float64frombits(sb), math.Float64frombits(cb)
}
