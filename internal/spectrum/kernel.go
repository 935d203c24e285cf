package spectrum

// block is the number of bins one exact math.Sincos anchors: the kernel
// evaluates e^{-jω_b t} with math.Sincos at the first bin b of every
// block and reaches the block's other bins by rotating it with
// e^{-jδω t}. Each rotation replaces a Sincos by four multiplies and
// adds two roundings of δω·t to the phase, so the size trades speed
// against accuracy. At 16, 32, 64, 128, 256 and 1024 bins one
// tune-shaped Observe of the scalar kernel took 0.46, 0.38, 0.37, 0.33,
// 0.34 and 0.29 ms on a 2-vCPU Xeon at 2.1 GHz (medians of 5, -cpu 1).
// At 64 the rotations' share of the error bound is under 1/60 of the
// argument rounding a per-bin Sincos already carries, and the default
// band keeps 16 blocks: one sixteen-lane pass of rowsAVX2, and with the
// step five four-lane passes of anchorsAVX2. Larger blocks gain little
// speed for a growing error term.
const block = 64

// reduceThreshold is math.Sincos's bound on its short argument
// reduction (math/trig_reduce.go): from 1<<29 on it reduces by
// Payne-Hanek, which anchorsAVX2 does not repeat.
const reduceThreshold = 1 << 29

// rows runs one event's rotation over accumulators laid out row by
// row: row k holds bin k of every block, so bin j·block+k of re and im
// sits at k·stride+j, and lane j of c and s holds the event's signed
// term at the first bin of block j. For each row k < n it adds lane j
// of c to re and subtracts lane j of s from im, then rotates every lane
// by (dc, ds), the cosine and sine of δω·t:
//
//	c, s = c·dc − s·ds, s·dc + c·ds
//
// with each product, sum and difference rounded on its own (no fused
// multiply-add), so every lane follows the scalar recurrence bit for
// bit, and c and s are left rotated n times. avx2 runs the lanes it can
// in groups of four with rowsAVX2; the rest, and every lane when avx2
// is false, go through rowsGo.
func rows(re, im, c, s []float64, dc, ds float64, n, stride int, avx2 bool) {
	s = s[:len(c)]
	_ = re[(n-1)*stride+len(c)-1] // rowsAVX2 checks no bounds
	_ = im[(n-1)*stride+len(c)-1]
	v := 0
	if avx2 {
		v = len(c) &^ 3
		rowsAVX2(re, im, c[:v], s[:v], dc, ds, n, stride)
	}
	if v < len(c) {
		rowsGo(re[v:], im[v:], c[v:], s[v:], dc, ds, n, stride)
	}
}

// rowsGo is rows in Go: the path on CPUs without AVX2 and on other
// architectures, and the reference the tests hold rowsAVX2 to. The
// explicit float64 conversions forbid the compiler to fuse a product
// into the following sum, which it does on arm64 and other targets.
func rowsGo(re, im, c, s []float64, dc, ds float64, n, stride int) {
	s = s[:len(c)]
	for k := 0; k < n; k++ {
		r, m := re[k*stride:][:len(c)], im[k*stride:][:len(c)]
		for j, cj := range c {
			sj := s[j]
			r[j] += cj
			m[j] -= sj
			c[j] = float64(cj*dc) - float64(sj*ds)
			s[j] = float64(sj*dc) + float64(cj*ds)
		}
	}
}
