//go:build !amd64

package spectrum

// haveAVX2 is false off amd64: every anchor runs through math.Sincos
// and every lane through rowsGo.
const haveAVX2 = false

func anchorsAVX2(w, c, s []float64, t, sign float64) {
	panic("spectrum: AVX2 anchors on a non-amd64 build")
}

func rowsAVX2(re, im, c, s []float64, dc, ds float64, n, stride int) {
	panic("spectrum: AVX2 rows on a non-amd64 build")
}
