#include "textflag.h"

// func anchorsAVX2(w, c, s []float64, t, sign float64)
//
// Four lanes per pass, each the IEEE operations of math.Sincos's short
// reduction in Go's order (no FMA): j = trunc(|x|·4/π) made even,
// z = ((|x| − y·PI4A) − y·PI4B) − y·PI4C for y = float64(j), the cosine
// (1 − 0.5·zz) + (zz·zz)·p and the sine z + (z·zz)·q with p and q the
// Horner sums. AX points at sincosConst, whose rows are 32 bytes: 4/π at
// 0, PI4A, PI4B and PI4C at 32, 64 and 96, 1 and 0.5 at 128 and 160,
// the cosine's coefficients from 192 and the sine's from 384.
// Registers: DI, R8, R9 the pass's lanes in w, c and s; CX the passes
// left; Y15 the broadcast t, Y14 the broadcast sign, Y13 the sign bit
// of every lane, X12 a 1 in every int32.
TEXT ·anchorsAVX2(SB), NOSPLIT, $0-88
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         c_base+24(FP), R8
	MOVQ         s_base+48(FP), R9
	VBROADCASTSD t+72(FP), Y15
	VBROADCASTSD sign+80(FP), Y14
	VPCMPEQQ     Y13, Y13, Y13
	VPSLLQ       $63, Y13, Y13
	VPCMPEQD     X12, X12, X12
	VPSRLD       $31, X12, X12
	LEAQ         ·sincosConst(SB), AX
	SHRQ         $2, CX
	JZ           anchorsDone

anchor4:
	// x = w·t: its sign bit in Y1, |x| in Y0
	VMOVUPD (DI), Y0
	VMULPD  Y15, Y0, Y0
	VANDPD  Y13, Y0, Y1
	VANDNPD Y0, Y13, Y0

	// j = trunc(|x|·4/π), j += j&1 (X2), y = float64(j) (Y3)
	VMULPD      0(AX), Y0, Y2
	VCVTTPD2DQY Y2, X2
	VPAND       X12, X2, X3
	VPADDD      X3, X2, X2
	VCVTDQ2PD   X2, Y3

	// z = ((|x| − y·PI4A) − y·PI4B) − y·PI4C (Y0), zz = z·z (Y3)
	VMULPD 32(AX), Y3, Y4
	VSUBPD Y4, Y0, Y0
	VMULPD 64(AX), Y3, Y4
	VSUBPD Y4, Y0, Y0
	VMULPD 96(AX), Y3, Y4
	VSUBPD Y4, Y0, Y0
	VMULPD Y0, Y0, Y3

	// p = ((((c0·zz + c1)·zz + c2)·zz + c3)·zz + c4)·zz + c5 (Y4), and q
	// the same over the sine's coefficients (Y5)
	VMULPD 192(AX), Y3, Y4
	VMULPD 384(AX), Y3, Y5
	VADDPD 224(AX), Y4, Y4
	VADDPD 416(AX), Y5, Y5
	VMULPD Y3, Y4, Y4
	VMULPD Y3, Y5, Y5
	VADDPD 256(AX), Y4, Y4
	VADDPD 448(AX), Y5, Y5
	VMULPD Y3, Y4, Y4
	VMULPD Y3, Y5, Y5
	VADDPD 288(AX), Y4, Y4
	VADDPD 480(AX), Y5, Y5
	VMULPD Y3, Y4, Y4
	VMULPD Y3, Y5, Y5
	VADDPD 320(AX), Y4, Y4
	VADDPD 512(AX), Y5, Y5
	VMULPD Y3, Y4, Y4
	VMULPD Y3, Y5, Y5
	VADDPD 352(AX), Y4, Y4
	VADDPD 544(AX), Y5, Y5

	// cos = (1 − 0.5·zz) + (zz·zz)·p (Y6), sin = z + (z·zz)·q (Y7)
	VMULPD  160(AX), Y3, Y6
	VMOVUPD 128(AX), Y7
	VSUBPD  Y6, Y7, Y6
	VMULPD  Y3, Y3, Y7
	VMULPD  Y4, Y7, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  Y3, Y0, Y7
	VMULPD  Y5, Y7, Y7
	VADDPD  Y7, Y0, Y7

	// j is even: bit 1 swaps sine and cosine (Y9), bit 2 flips the sine
	// (Y8), bit 1 ⊕ bit 2 flips the cosine, and x's sign flips the sine.
	VPMOVZXDQ X2, Y8
	VPSLLQ    $62, Y8, Y9
	VPSLLQ    $61, Y8, Y8
	VBLENDVPD Y9, Y6, Y7, Y10
	VBLENDVPD Y9, Y7, Y6, Y11
	VXORPD    Y8, Y9, Y9
	VANDPD    Y13, Y9, Y9
	VANDPD    Y13, Y8, Y8
	VXORPD    Y1, Y8, Y8
	VXORPD    Y8, Y10, Y10
	VXORPD    Y9, Y11, Y11

	// c = sign·cos, s = sign·sin
	VMULPD  Y14, Y11, Y11
	VMULPD  Y14, Y10, Y10
	VMOVUPD Y11, (R8)
	VMOVUPD Y10, (R9)
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     anchor4

anchorsDone:
	VZEROUPPER
	RET

// func rowsAVX2(re, im, c, s []float64, dc, ds float64, n, stride int)
//
// Registers: DI, SI the pass's first lane in row 0 of re and im; R8, R9
// its lanes in c and s; CX the lanes left; BX the rows; DX the row
// stride in bytes; R10, R11 the current row; R12 the rows left. Y0-Y3
// hold the pass's c and Y4-Y7 its s, Y14 and Y15 the broadcast dc and
// ds.
TEXT ·rowsAVX2(SB), NOSPLIT, $0-128
	MOVQ         re_base+0(FP), DI
	MOVQ         im_base+24(FP), SI
	MOVQ         c_base+48(FP), R8
	MOVQ         c_len+56(FP), CX
	MOVQ         s_base+72(FP), R9
	VBROADCASTSD dc+96(FP), Y14
	VBROADCASTSD ds+104(FP), Y15
	MOVQ         n+112(FP), BX
	MOVQ         stride+120(FP), DX
	SHLQ         $3, DX
	TESTQ        BX, BX
	JLE          done

pass16:
	CMPQ    CX, $16
	JLT     pass4
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD 96(R8), Y3
	VMOVUPD (R9), Y4
	VMOVUPD 32(R9), Y5
	VMOVUPD 64(R9), Y6
	VMOVUPD 96(R9), Y7
	MOVQ    DI, R10
	MOVQ    SI, R11
	MOVQ    BX, R12

row16:
	// re += c, im -= s
	VMOVUPD (R10), Y8
	VMOVUPD 32(R10), Y9
	VMOVUPD 64(R10), Y10
	VMOVUPD 96(R10), Y11
	VADDPD  Y0, Y8, Y8
	VADDPD  Y1, Y9, Y9
	VADDPD  Y2, Y10, Y10
	VADDPD  Y3, Y11, Y11
	VMOVUPD Y8, (R10)
	VMOVUPD Y9, 32(R10)
	VMOVUPD Y10, 64(R10)
	VMOVUPD Y11, 96(R10)
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VMOVUPD 64(R11), Y10
	VMOVUPD 96(R11), Y11
	VSUBPD  Y4, Y8, Y8
	VSUBPD  Y5, Y9, Y9
	VSUBPD  Y6, Y10, Y10
	VSUBPD  Y7, Y11, Y11
	VMOVUPD Y8, (R11)
	VMOVUPD Y9, 32(R11)
	VMOVUPD Y10, 64(R11)
	VMOVUPD Y11, 96(R11)

	// c, s = c·dc − s·ds, s·dc + c·ds: four independent chains, two
	// registers of lanes at a time
	VMULPD Y14, Y0, Y8
	VMULPD Y15, Y4, Y9
	VMULPD Y14, Y4, Y10
	VMULPD Y15, Y0, Y4
	VMULPD Y14, Y1, Y11
	VMULPD Y15, Y5, Y12
	VMULPD Y14, Y5, Y13
	VMULPD Y15, Y1, Y5
	VSUBPD Y9, Y8, Y0
	VADDPD Y4, Y10, Y4
	VSUBPD Y12, Y11, Y1
	VADDPD Y5, Y13, Y5
	VMULPD Y14, Y2, Y8
	VMULPD Y15, Y6, Y9
	VMULPD Y14, Y6, Y10
	VMULPD Y15, Y2, Y6
	VMULPD Y14, Y3, Y11
	VMULPD Y15, Y7, Y12
	VMULPD Y14, Y7, Y13
	VMULPD Y15, Y3, Y7
	VSUBPD Y9, Y8, Y2
	VADDPD Y6, Y10, Y6
	VSUBPD Y12, Y11, Y3
	VADDPD Y7, Y13, Y7

	ADDQ DX, R10
	ADDQ DX, R11
	DECQ R12
	JNZ  row16

	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VMOVUPD Y4, (R9)
	VMOVUPD Y5, 32(R9)
	VMOVUPD Y6, 64(R9)
	VMOVUPD Y7, 96(R9)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, R8
	ADDQ    $128, R9
	SUBQ    $16, CX
	JMP     pass16

pass4:
	CMPQ    CX, $4
	JLT     done
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y4
	MOVQ    DI, R10
	MOVQ    SI, R11
	MOVQ    BX, R12

row4:
	VMOVUPD (R10), Y8
	VMOVUPD (R11), Y9
	VADDPD  Y0, Y8, Y8
	VSUBPD  Y4, Y9, Y9
	VMOVUPD Y8, (R10)
	VMOVUPD Y9, (R11)
	VMULPD  Y14, Y0, Y8
	VMULPD  Y15, Y4, Y9
	VMULPD  Y14, Y4, Y10
	VMULPD  Y15, Y0, Y4
	VSUBPD  Y9, Y8, Y0
	VADDPD  Y4, Y10, Y4
	ADDQ    DX, R10
	ADDQ    DX, R11
	DECQ    R12
	JNZ     row4

	VMOVUPD Y0, (R8)
	VMOVUPD Y4, (R9)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, CX
	JMP     pass4

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
