#include "textflag.h"

// Four-lane float64 transcriptions of geluGeneric, geluGradGeneric and
// expShiftGeneric (vexp.go). Every lane executes the scalar code's
// operations in the scalar code's order: math.Exp's amd64 FMA path
// instruction for instruction (math/exp_amd64.s, label avxfma), then
// math.tanh's three regimes chosen by blend masks, then the GELU
// formula. Only the exp reduction and polynomial fuse, as math.Exp
// does; everything else is a separately rounded VMULPD/VADDPD/VDIVPD.

// Offsets of the splat constants in ·vexpTab (vexp_amd64.go).
#define LOG2E 0
#define LN2U 32
#define LN2L 64
#define SIXTEENTH 96
#define T8 128
#define T7 160
#define T6 192
#define T5 224
#define T4 256
#define T3 288
#define HALF 320
#define ONE 352
#define TWO 384
#define OVERFLOW 416
#define GELUC0 448
#define GELUC1 480
#define GELUC1X3 512
#define TANHSPLIT 544
#define TANHBIG 576
#define TANHP0 608
#define TANHP1 640
#define TANHP2 672
#define TANHQ0 704
#define TANHQ1 736
#define TANHQ2 768

// VCMPPD predicates.
#define EQ_OQ $0x00
#define NLE_UQ $0x16
#define GE_OQ $0x1d
#define GT_OQ $0x1e

DATA vexpabs<>+0(SB)/8, $0x7fffffffffffffff
DATA vexpabs<>+8(SB)/8, $0x7fffffffffffffff
DATA vexpabs<>+16(SB)/8, $0x7fffffffffffffff
DATA vexpabs<>+24(SB)/8, $0x7fffffffffffffff
GLOBL vexpabs<>(SB), RODATA, $32

DATA vexpsign<>+0(SB)/8, $0x8000000000000000
DATA vexpsign<>+8(SB)/8, $0x8000000000000000
DATA vexpsign<>+16(SB)/8, $0x8000000000000000
DATA vexpsign<>+24(SB)/8, $0x8000000000000000
GLOBL vexpsign<>(SB), RODATA, $32

// int32 lanes: the exponent bias 1023, and the biased exponents below
// which math.Exp underflows to 0 (-52) and from which it overflows to
// +Inf (2047).
DATA vexpbias<>+0(SB)/8, $0x000003ff000003ff
DATA vexpbias<>+8(SB)/8, $0x000003ff000003ff
GLOBL vexpbias<>(SB), RODATA, $16

DATA vexpunder<>+0(SB)/8, $0xffffffccffffffcc
DATA vexpunder<>+8(SB)/8, $0xffffffccffffffcc
GLOBL vexpunder<>(SB), RODATA, $16

DATA vexpover<>+0(SB)/8, $0x000007ff000007ff
DATA vexpover<>+8(SB)/8, $0x000007ff000007ff
GLOBL vexpover<>(SB), RODATA, $16

// EXP_POLY(x, t, k) runs math.Exp's avxfma block on the four lanes of
// x: k (int32 lanes) = round(x·LOG2E), and x becomes the reduced
// argument's Taylor evaluation, still to be scaled by 2**k. Clobbers t.
// SI holds ·vexpTab.
#define EXP_POLY(x, t, k) \
	VMULPD       LOG2E(SI), x, t; \
	VCVTPD2DQY   t, k; \
	VCVTDQ2PD    k, t; \
	VFNMADD231PD LN2U(SI), t, x; \
	VFNMADD231PD LN2L(SI), t, x; \
	VMULPD       SIXTEENTH(SI), x, x; \
	VMOVUPD      T8(SI), t; \
	VFMADD213PD  T7(SI), x, t; \
	VFMADD213PD  T6(SI), x, t; \
	VFMADD213PD  T5(SI), x, t; \
	VFMADD213PD  T4(SI), x, t; \
	VFMADD213PD  T3(SI), x, t; \
	VFMADD213PD  HALF(SI), x, t; \
	VFMADD213PD  ONE(SI), x, t; \
	VMULPD       t, x, x; \
	VADDPD       TWO(SI), x, t; \
	VMULPD       t, x, x; \
	VADDPD       TWO(SI), x, t; \
	VMULPD       t, x, x; \
	VADDPD       TWO(SI), x, t; \
	VMULPD       t, x, x; \
	VADDPD       TWO(SI), x, t; \
	VFMADD213PD  ONE(SI), t, x

// EXP_SCALE(x, t, k) is math.Exp's ldexp step for lanes whose biased
// exponent k+1023 lies in [1, 2046]: x *= 2**k. k becomes k+1023.
// Clobbers t.
#define EXP_SCALE(x, t, k) \
	VPADDD    vexpbias<>(SB), k, k; \
	VPMOVSXDQ k, t; \
	VPSLLQ    $52, t, t; \
	VMULPD    t, x, x

// GELU_TANH computes, from x in Y15, inner = geluC0·(x + geluC1·x·x·x)
// into Y14 and t = math.Tanh(inner) into Y0. Clobbers Y1-Y7 and Y13.
//
// The exp regime runs on every lane; lanes outside 0.625 <= |inner| <=
// 0.5·tanhMaxLog discard its result in the blends, so no lane there
// needs exp's range handling.
#define GELU_TANH \
	VMULPD    GELUC1(SI), Y15, Y14; \
	VMULPD    Y15, Y14, Y14; \
	VMULPD    Y15, Y14, Y14; \
	VADDPD    Y14, Y15, Y14; \
	VMULPD    GELUC0(SI), Y14, Y14; \
	VANDPD    vexpabs<>(SB), Y14, Y13; \
	VADDPD    Y13, Y13, Y0; \
	EXP_POLY(Y0, Y1, X3); \
	EXP_SCALE(Y0, Y1, X3); \
	VADDPD    ONE(SI), Y0, Y0; \
	VMOVUPD   TWO(SI), Y1; \
	VDIVPD    Y0, Y1, Y0; \
	VMOVUPD   ONE(SI), Y1; \
	VSUBPD    Y0, Y1, Y0; \
	VANDPD    vexpsign<>(SB), Y14, Y2; \
	VXORPD    Y2, Y0, Y0; \
	VMULPD    Y14, Y14, Y4; \
	VMULPD    TANHP0(SI), Y4, Y5; \
	VADDPD    TANHP1(SI), Y5, Y5; \
	VMULPD    Y4, Y5, Y5; \
	VADDPD    TANHP2(SI), Y5, Y5; \
	VADDPD    TANHQ0(SI), Y4, Y6; \
	VMULPD    Y4, Y6, Y6; \
	VADDPD    TANHQ1(SI), Y6, Y6; \
	VMULPD    Y4, Y6, Y6; \
	VADDPD    TANHQ2(SI), Y6, Y6; \
	VMULPD    Y4, Y14, Y7; \
	VMULPD    Y5, Y7, Y7; \
	VDIVPD    Y6, Y7, Y7; \
	VADDPD    Y7, Y14, Y7; \
	VXORPD    Y1, Y1, Y1; \
	VCMPPD    EQ_OQ, Y1, Y14, Y5; \
	VBLENDVPD Y5, Y14, Y7, Y7; \
	VCMPPD    GE_OQ, TANHSPLIT(SI), Y13, Y5; \
	VBLENDVPD Y5, Y0, Y7, Y7; \
	VCMPPD    GT_OQ, TANHBIG(SI), Y13, Y5; \
	VORPD     ONE(SI), Y2, Y1; \
	VBLENDVPD Y5, Y1, Y7, Y0

// func geluAVX2(dst, x *float32, n int)
//
// dst[i] = float32((0.5·x)·(1 + tanh(inner))) with x = float64(x[i]).
TEXT ·geluAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), R8
	MOVQ n+16(FP), CX
	LEAQ ·vexpTab(SB), SI
	XORQ AX, AX

geluLoop:
	CMPQ       AX, CX
	JGE        geluDone
	VCVTPS2PD  (R8)(AX*4), Y15
	GELU_TANH
	VADDPD     ONE(SI), Y0, Y0
	VMULPD     HALF(SI), Y15, Y1
	VMULPD     Y0, Y1, Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    X1, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        geluLoop

geluDone:
	VZEROUPPER
	RET

// func geluGradAVX2(dx, x, dy *float32, n int)
//
// dx[i] = dy[i]·float32(0.5·(1+t) + ((0.5·x)·(1-t·t))·dInner) with
// t = tanh(inner) and dInner = geluC0·(1 + ((3·geluC1)·x)·x).
TEXT ·geluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ dx+0(FP), DI
	MOVQ x+8(FP), R8
	MOVQ dy+16(FP), R9
	MOVQ n+24(FP), CX
	LEAQ ·vexpTab(SB), SI
	XORQ AX, AX

gradLoop:
	CMPQ       AX, CX
	JGE        gradDone
	VCVTPS2PD  (R8)(AX*4), Y15
	GELU_TANH
	VMULPD     GELUC1X3(SI), Y15, Y1
	VMULPD     Y15, Y1, Y1
	VADDPD     ONE(SI), Y1, Y1
	VMULPD     GELUC0(SI), Y1, Y1
	VMULPD     Y0, Y0, Y2
	VMOVUPD    ONE(SI), Y3
	VSUBPD     Y2, Y3, Y2
	VMULPD     HALF(SI), Y15, Y3
	VMULPD     Y2, Y3, Y3
	VMULPD     Y1, Y3, Y3
	VADDPD     ONE(SI), Y0, Y0
	VMULPD     HALF(SI), Y0, Y0
	VADDPD     Y3, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMULPS     (R9)(AX*4), X0, X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        gradLoop

gradDone:
	VZEROUPPER
	RET

// func expShiftAVX2(dst, a *float32, n int, m float32) (done int)
//
// dst[i] = float32(exp(float64(a[i] - m))), four at a time. A lane
// whose biased exponent is below -52 is +0, as in math.Exp. A group
// holding a NaN, an argument past the overflow limit or a biased
// exponent outside [1, 2046] otherwise is left unwritten and ends the
// loop: math.Exp handles those out of line.
TEXT ·expShiftAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), R8
	MOVQ         n+16(FP), CX
	VBROADCASTSS m+24(FP), X15
	LEAQ         ·vexpTab(SB), SI
	VPXOR        X13, X13, X13
	VMOVDQU      vexpunder<>(SB), X12
	VMOVDQU      vexpover<>(SB), X11
	XORQ         AX, AX

expLoop:
	CMPQ       AX, CX
	JGE        expDone
	VMOVUPS    (R8)(AX*4), X0
	VSUBPS     X15, X0, X0
	VCVTPS2PD  X0, Y0
	VCMPPD     NLE_UQ, OVERFLOW(SI), Y0, Y2
	EXP_POLY(Y0, Y1, X3)
	EXP_SCALE(Y0, Y1, X3)
	VPCMPGTD   X13, X3, X4
	VPCMPGTD   X3, X11, X5
	VPAND      X5, X4, X4
	VPCMPGTD   X3, X12, X5
	VPOR       X4, X5, X5
	VPMOVSXDQ  X5, Y5
	VANDNPD    Y5, Y2, Y2
	VMOVMSKPD  Y2, BX
	CMPL       BX, $15
	JNE        expDone
	VPMOVSXDQ  X4, Y4
	VANDPD     Y4, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        expLoop

expDone:
	VZEROUPPER
	MOVQ AX, done+32(FP)
	RET
