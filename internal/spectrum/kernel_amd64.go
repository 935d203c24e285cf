package spectrum

import "math"

// haveAVX2 reports whether rowsAVX2 and anchorsAVX2 can run: the CPU
// has AVX and AVX2 and the operating system saves the YMM registers
// (OSXSAVE set and XCR0 enabling the SSE and AVX state).
var haveAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}()

// sincosConst holds math.Sincos's constants, each in the four lanes of
// a YMM register, in the order anchorsAVX2 reads them: 4/π, the three
// parts of π/4 (math/sincos.go), 1 and 0.5, then the cosine's and the
// sine's polynomial coefficients (_cos and _sin in math/sin.go).
var sincosConst = func() (k [18][4]float64) {
	for i, v := range [...]float64{
		4 / math.Pi,
		7.85398125648498535156e-1,
		3.77489470793079817668e-8,
		2.69515142907905952645e-15,
		1,
		0.5,
		-1.13585365213876817300e-11,
		2.08757008419747316778e-9,
		-2.75573141792967388112e-7,
		2.48015872888517045348e-5,
		-1.38888888888730564116e-3,
		4.16666666666665929218e-2,
		1.58962301576546568060e-10,
		-2.50507477628578072866e-8,
		2.75573136213857245213e-6,
		-1.98412698295895385996e-4,
		8.33333333332211858878e-3,
		-1.66666666666666307295e-1,
	} {
		k[i] = [4]float64{v, v, v, v}
	}
	return k
}()

// anchorsAVX2 sets lane j of c and s to sign·cos(w[j]·t) and
// sign·sin(w[j]·t), bit-equal to math.Sincos, for len(w) lanes, a
// multiple of four. Every |w[j]·t| must be below reduceThreshold:
// above it math.Sincos switches to Payne-Hanek reduction, which this
// routine does not repeat. It clears the upper YMM state before it
// returns. The caller checks the bounds.
//
//go:noescape
func anchorsAVX2(w, c, s []float64, t, sign float64)

// rowsAVX2 is rows for len(c) lanes, a multiple of four, in AVX2
// registers: sixteen lanes per pass while sixteen remain, then four. It
// uses VMULPD, VADDPD and VSUBPD only, in the operand order of rowsGo,
// and clears the upper YMM state before it returns. The caller checks
// the bounds.
//
//go:noescape
func rowsAVX2(re, im, c, s []float64, dc, ds float64, n, stride int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
