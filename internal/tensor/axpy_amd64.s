#include "textflag.h"

// func axpy4AVX2(d, b *float32, n int, a0, a1, a2, a3 float32)
//
// d[j] = (((d[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j] with
// br = b + r*n, each product rounded by its own multiply before the add.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-40
	MOVQ         d+0(FP), DI
	MOVQ         b+8(FP), R8
	MOVQ         n+16(FP), CX
	LEAQ         (R8)(CX*4), R9
	LEAQ         (R9)(CX*4), R10
	LEAQ         (R10)(CX*4), R11
	VBROADCASTSS a0+24(FP), Y0
	VBROADCASTSS a1+28(FP), Y1
	VBROADCASTSS a2+32(FP), Y2
	VBROADCASTSS a3+36(FP), Y3
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           tail

loop8:
	VMOVUPS (DI)(AX*4), Y4
	VMULPS  (R8)(AX*4), Y0, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R9)(AX*4), Y1, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R10)(AX*4), Y2, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R11)(AX*4), Y3, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     loop8

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSS (DI)(AX*4), X4
	VMULSS (R8)(AX*4), X0, X5
	VADDSS X5, X4, X4
	VMULSS (R9)(AX*4), X1, X5
	VADDSS X5, X4, X4
	VMULSS (R10)(AX*4), X2, X5
	VADDSS X5, X4, X4
	VMULSS (R11)(AX*4), X3, X5
	VADDSS X5, X4, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX
	JMP    tail

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
