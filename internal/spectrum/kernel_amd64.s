#include "textflag.h"

// func rowsAVX2(re, im, c, s []float64, dc, ds float64, n, stride int)
//
// Registers: DI, SI the group's first lane in row 0 of re and im; R8, R9
// its lanes in c and s; CX the lanes left; BX the rows; DX the row
// stride in bytes; R10, R11 the current row; R12 the rows left. Y0-Y3
// hold the group's c and s, Y12 and Y13 the broadcast dc and ds.
TEXT ·rowsAVX2(SB), NOSPLIT, $0-128
	MOVQ         re_base+0(FP), DI
	MOVQ         im_base+24(FP), SI
	MOVQ         c_base+48(FP), R8
	MOVQ         c_len+56(FP), CX
	MOVQ         s_base+72(FP), R9
	VBROADCASTSD dc+96(FP), Y12
	VBROADCASTSD ds+104(FP), Y13
	MOVQ         n+112(FP), BX
	MOVQ         stride+120(FP), DX
	SHLQ         $3, DX
	TESTQ        BX, BX
	JLE          done

group8:
	CMPQ    CX, $8
	JLT     group4
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	MOVQ    DI, R10
	MOVQ    SI, R11
	MOVQ    BX, R12

row8:
	// re += c, im -= s
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7
	VADDPD  Y0, Y4, Y4
	VADDPD  Y1, Y5, Y5
	VSUBPD  Y2, Y6, Y6
	VSUBPD  Y3, Y7, Y7
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)

	// c, s = c·dc − s·ds, s·dc + c·ds
	VMULPD Y12, Y0, Y4
	VMULPD Y13, Y2, Y5
	VMULPD Y12, Y2, Y6
	VMULPD Y13, Y0, Y7
	VMULPD Y12, Y1, Y8
	VMULPD Y13, Y3, Y9
	VMULPD Y12, Y3, Y10
	VMULPD Y13, Y1, Y11
	VSUBPD Y5, Y4, Y0
	VADDPD Y7, Y6, Y2
	VSUBPD Y9, Y8, Y1
	VADDPD Y11, Y10, Y3

	ADDQ DX, R10
	ADDQ DX, R11
	DECQ R12
	JNZ  row8

	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, R8
	ADDQ    $64, R9
	SUBQ    $8, CX
	JMP     group8

group4:
	CMPQ    CX, $4
	JLT     done
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y2
	MOVQ    DI, R10
	MOVQ    SI, R11
	MOVQ    BX, R12

row4:
	VMOVUPD (R10), Y4
	VMOVUPD (R11), Y6
	VADDPD  Y0, Y4, Y4
	VSUBPD  Y2, Y6, Y6
	VMOVUPD Y4, (R10)
	VMOVUPD Y6, (R11)
	VMULPD  Y12, Y0, Y4
	VMULPD  Y13, Y2, Y5
	VMULPD  Y12, Y2, Y6
	VMULPD  Y13, Y0, Y7
	VSUBPD  Y5, Y4, Y0
	VADDPD  Y7, Y6, Y2
	ADDQ    DX, R10
	ADDQ    DX, R11
	DECQ    R12
	JNZ     row4

	VMOVUPD Y0, (R8)
	VMOVUPD Y2, (R9)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, CX
	JMP     group4

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
