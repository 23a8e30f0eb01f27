// FitLogisticFlat's three passes, four float64 lanes per AVX2 instruction.
// Every lane performs the scalar loop's operations in the scalar loop's
// order, so each result is bit-identical to the Go loops in logistic.go:
// products and sums are separate VMULPD/VADDPD (the Go compiler does not fuse
// them at GOAMD64=v1), and Exp is the FMA branch of math/exp_amd64.s, lane for
// lane. The one thing not pinned is which payload survives when two different
// NaNs meet in one operation: x86 keeps the first operand's, and which operand
// is first in the Go loops is the compiler's register choice (go1.24 puts Z
// first in pass A's four-row blocks and w first in its remainder rows).
// kernel_amd64.go selects this kernel and holds the contracts.

#include "textflag.h"

// Each constant four times over, a full 256-bit memory operand.
#define QUAD(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

QUAD(absmask, $0x7fffffffffffffff)
QUAD(signbit, $0x8000000000000000)
QUAD(minx, $-700.0)
QUAD(one, $1.0)
QUAD(two, $2.0)
QUAD(sixteenth, $0.0625)

// math/exp_amd64.s's constants, the same literals.
QUAD(log2e, $1.4426950408889634073599246810018920)
QUAD(ln2u, $0.69314718055966295651160180568695068359375)
QUAD(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
QUAD(half, $0.5)
QUAD(c3, $1.6666666666666666667e-1)
QUAD(c4, $4.1666666666666666667e-2)
QUAD(c5, $8.3333333333333333333e-3)
QUAD(c6, $1.3888888888888888889e-3)
QUAD(c7, $1.9841269841269841270e-4)
QUAD(c8, $2.4801587301587301587e-5)

// The exponent bias, four int32s.
DATA bias<>+0(SB)/4, $0x3ff
DATA bias<>+4(SB)/4, $0x3ff
DATA bias<>+8(SB)/4, $0x3ff
DATA bias<>+12(SB)/4, $0x3ff
GLOBL bias<>(SB), RODATA|NOPTR, $16

// func logitsAVX2(e, zc, w []float64, b float64)
TEXT ·logitsAVX2(SB), NOSPLIT, $0-80
	MOVQ         e_base+0(FP), DI
	MOVQ         e_len+8(FP), CX
	MOVQ         zc_base+24(FP), SI
	MOVQ         w_base+48(FP), DX
	MOVQ         w_len+56(FP), BX
	VBROADCASTSD b+72(FP), Y15
	MOVQ         CX, R8
	SHLQ         $3, R8               // zc's column stride in bytes
	XORQ         AX, AX               // first row of the block

logitBlock:
	CMPQ   AX, CX
	JGE    logitDone
	// Sixteen rows, four independent chains: s = +0, then s += w[j]*Z[i][j]
	// for j ascending.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(AX*8), R9
	XORQ   R10, R10

logitCol:
	VBROADCASTSD (DX)(R10*8), Y4
	VMULPD       (R9), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R9), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R9), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R9), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R8, R9
	INCQ         R10
	CMPQ         R10, BX
	JLT          logitCol

	// z = s + b
	VADDPD  Y15, Y0, Y0
	VADDPD  Y15, Y1, Y1
	VADDPD  Y15, Y2, Y2
	VADDPD  Y15, Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     logitBlock

logitDone:
	VZEROUPPER
	RET

// func residualsAVX2(e, y, sw []float64, gb, mag float64) (rows int, gbSum, magSum float64)
TEXT ·residualsAVX2(SB), NOSPLIT, $0-112
	MOVQ   e_base+0(FP), DI
	MOVQ   e_len+8(FP), CX
	MOVQ   y_base+24(FP), SI
	MOVQ   sw_base+48(FP), DX
	VMOVSD gb+72(FP), X14
	VMOVSD mag+80(FP), X15
	VXORPD Y13, Y13, Y13
	XORQ   AX, AX                     // rows done

resBlock:
	LEAQ      4(AX), BX
	CMPQ      BX, CX
	JGT       resDone
	VMOVUPD   (DI)(AX*8), Y0          // z
	VANDPD    absmask<>(SB), Y0, Y1   // |z|
	VXORPD    signbit<>(SB), Y1, Y2   // x = -|z|, Exp's argument on either branch
	VCMPPD    $0x1d, minx<>(SB), Y2, Y3 // x >= -700 (GE_OQ: false for NaN)
	VMOVMSKPD Y3, BX
	CMPQ      BX, $15
	JNE       resDone

	// Exp(x), x in [-700, 0]: no overflow, no subnormal result, k in
	// [-1010, 0]. The avxfma branch of math/exp_amd64.s, its operands in
	// its order.
	VMULPD       log2e<>(SB), Y2, Y3
	VCVTPD2DQY   Y3, X4               // k = round(x*LOG2E), MXCSR rounding like CVTSD2SL
	VCVTDQ2PD    X4, Y3
	VFNMADD231PD ln2u<>(SB), Y3, Y2   // x -= k*LN2U, one rounding
	VFNMADD231PD ln2l<>(SB), Y3, Y2   // x -= k*LN2L
	VMULPD       sixteenth<>(SB), Y2, Y2
	VMOVUPD      c8<>(SB), Y5
	VFMADD213PD  c7<>(SB), Y2, Y5
	VFMADD213PD  c6<>(SB), Y2, Y5
	VFMADD213PD  c5<>(SB), Y2, Y5
	VFMADD213PD  c4<>(SB), Y2, Y5
	VFMADD213PD  c3<>(SB), Y2, Y5
	VFMADD213PD  half<>(SB), Y2, Y5
	VFMADD213PD  one<>(SB), Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       two<>(SB), Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       two<>(SB), Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       two<>(SB), Y2, Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       two<>(SB), Y2, Y5
	VFMADD213PD  one<>(SB), Y5, Y2
	// times 2^k: the biased exponent shifted into place
	VPADDD       bias<>(SB), X4, X4
	VPMOVZXDQ    X4, Y6
	VPSLLQ       $52, Y6, Y6
	VMULPD       Y6, Y2, Y2           // ex

	// p = (z >= 0 ? 1 : ex) / (1 + ex); r = (p - y)*sw
	VADDPD    one<>(SB), Y2, Y7
	VCMPPD    $0x1d, Y13, Y0, Y8      // z >= 0
	VBLENDVPD Y8, one<>(SB), Y2, Y8
	VDIVPD    Y7, Y8, Y8
	VSUBPD    (SI)(AX*8), Y8, Y8
	VMULPD    (DX)(AX*8), Y8, Y8
	VMOVUPD   Y8, (DI)(AX*8)

	// t = sw*(1 + 2|z|)
	VMULPD two<>(SB), Y1, Y9
	VADDPD one<>(SB), Y9, Y9
	VMULPD (DX)(AX*8), Y9, Y9

	// gb += r, mag += t: one lane at a time, rows ascending
	VADDSD       X8, X14, X14
	VADDSD       X9, X15, X15
	VPERMILPD    $1, X8, X10
	VPERMILPD    $1, X9, X11
	VADDSD       X10, X14, X14
	VADDSD       X11, X15, X15
	VEXTRACTF128 $1, Y8, X8
	VEXTRACTF128 $1, Y9, X9
	VADDSD       X8, X14, X14
	VADDSD       X9, X15, X15
	VPERMILPD    $1, X8, X10
	VPERMILPD    $1, X9, X11
	VADDSD       X10, X14, X14
	VADDSD       X11, X15, X15

	ADDQ $4, AX
	JMP  resBlock

resDone:
	MOVQ   AX, rows+88(FP)
	VMOVSD X14, gbSum+96(FP)
	VMOVSD X15, magSum+104(FP)
	VZEROUPPER
	RET

// func gradientAVX2(gw, zp, e []float64)
TEXT ·gradientAVX2(SB), NOSPLIT, $0-72
	MOVQ gw_base+0(FP), DI
	MOVQ gw_len+8(FP), CX
	MOVQ zp_base+24(FP), SI
	MOVQ e_base+48(FP), DX
	MOVQ e_len+56(FP), BX
	MOVQ CX, R8
	SHLQ $3, R8                       // zp's row stride in bytes
	XORQ AX, AX                       // first column of the group

gradGroup:
	CMPQ   AX, CX
	JGE    gradDone
	// Sixteen columns, four independent chains: g = +0, then g += e[i]*Z[i][j]
	// for i ascending.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (SI)(AX*8), R9
	XORQ   R10, R10

gradRow:
	VBROADCASTSD (DX)(R10*8), Y4
	VMULPD       (R9), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R9), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R9), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R9), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R8, R9
	INCQ         R10
	CMPQ         R10, BX
	JLT          gradRow

	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     gradGroup

gradDone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
