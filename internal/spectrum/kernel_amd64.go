package spectrum

// haveAVX2 reports whether rowsAVX2 can run: the CPU has AVX and AVX2
// and the operating system saves the YMM registers (OSXSAVE set and
// XCR0 enabling the SSE and AVX state).
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

// rowsAVX2 is rows for len(c) lanes, a multiple of four, in AVX2
// registers: eight lanes per pass while eight remain, then four. It
// uses VMULPD, VADDPD and VSUBPD only, in the operand order of rowsGo,
// and clears the upper YMM state before it returns. The caller checks
// the bounds.
//
//go:noescape
func rowsAVX2(re, im, c, s []float64, dc, ds float64, n, stride int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
