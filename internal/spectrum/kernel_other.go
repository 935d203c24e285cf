//go:build !amd64

package spectrum

// haveAVX2 is false off amd64: every lane runs through rowsGo.
const haveAVX2 = false

func rowsAVX2(re, im, c, s []float64, dc, ds float64, n, stride int) {
	panic("spectrum: AVX2 rows on a non-amd64 build")
}
