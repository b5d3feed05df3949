#include "textflag.h"

// AVX2 GEMM row kernels. Both compute, for rows i in [lo, hi) and every
// column j of an [n,m] output r,
//
//	r[i,j] = Σ_p a(i,p) · b[p,j]   (p ascending, starting from +0)
//
// where a(i,p) = a[i*sai + p*sap] and b is [k,m] row-major. A YMM lane
// is one output element: lanes never mix, so each r[i,j] sees exactly the
// scalar kernel's multiply-then-add sequence, rounded after every step.
// There is deliberately no VFMADD: a fused multiply-add rounds once and
// would break bit-identity with the Go kernels (Go's amd64 backend never
// fuses). Columns go in blocks of 16, then at most one block of 8, one of
// 4, and 1–3 scalar columns; each column block keeps its accumulators in
// registers across the whole p loop and walks every row of the range
// before moving on, so the block's slice of b stays in cache.
//
// The two entry points differ only where the Go kernels they replace
// differ: gemmAxpyAVX2 (matMulRows, tMatMulRows) skips p where a(i,p) is
// ±0 and computes b·v then prod+acc; gemmDotAVX2 (matMulTRows over a
// packed bᵀ) skips nothing and computes v·b then acc+prod. Operand order
// is invisible except when two NaNs with different payloads meet, where
// x86 returns the first source's; matching it keeps even NaN bits equal.
//
// Registers: DI r, SI a, DX b, CX column byte offset j*8, R8 row i,
// R11 m*8, R12 sai*8, R13 sap*8, AX &a(i,p), BX &b[p,j], R10 p countdown,
// R9 scratch; Y0–Y3 accumulators, Y4 broadcast a(i,p), Y5 product.

// ROWS runs the column block of `width` columns at CX over every row in
// [lo, hi): zero the accumulators, run the p loop, store. Then it
// advances CX past the block. The label arguments keep each expansion's
// labels distinct.
#define ROWS(width, ZERO, STEP, STORE, rowl, pl, skipl, storel, donel) \
	MOVQ lo+72(FP), R8; \
rowl: \
	CMPQ R8, hi+80(FP); \
	JGE  donel; \
	MOVQ R8, AX; \
	IMULQ R12, AX; \
	ADDQ SI, AX; \
	LEAQ (DX)(CX*1), BX; \
	MOVQ k+88(FP), R10; \
	ZERO; \
	TESTQ R10, R10; \
	JZ   storel; \
pl: \
	SKIPZERO(skipl); \
	VBROADCASTSD (AX), Y4; \
	STEP; \
skipl: \
	ADDQ R13, AX; \
	ADDQ R11, BX; \
	DECQ R10; \
	JNZ  pl; \
storel: \
	MOVQ R8, R9; \
	IMULQ R11, R9; \
	ADDQ DI, R9; \
	STORE; \
	INCQ R8; \
	JMP  rowl; \
donel: \
	ADDQ $(width*8), CX

#define ZERO4 VXORPD Y0, Y0, Y0; VXORPD Y1, Y1, Y1; VXORPD Y2, Y2, Y2; VXORPD Y3, Y3, Y3
#define ZERO2 VXORPD Y0, Y0, Y0; VXORPD Y1, Y1, Y1
#define ZERO1 VXORPD Y0, Y0, Y0
#define STEP4 MULADD(0, Y0); MULADD(32, Y1); MULADD(64, Y2); MULADD(96, Y3)
#define STEP2 MULADD(0, Y0); MULADD(32, Y1)
#define STEP1 MULADD(0, Y0)
#define STORE4 VMOVUPD Y0, (R9)(CX*1); VMOVUPD Y1, 32(R9)(CX*1); VMOVUPD Y2, 64(R9)(CX*1); VMOVUPD Y3, 96(R9)(CX*1)
#define STORE2 VMOVUPD Y0, (R9)(CX*1); VMOVUPD Y1, 32(R9)(CX*1)
#define STORE1 VMOVUPD Y0, (R9)(CX*1)
#define ZERO0 VXORPD X0, X0, X0
#define STORE0 VMOVSD X0, (R9)(CX*1)

// GEMM is the whole kernel body; SKIPZERO, MULADD and MULADD1 select the
// variant. R9 holds the remaining column bytes at each width test.
#define GEMM \
	MOVQ r_base+0(FP), DI; \
	MOVQ a_base+24(FP), SI; \
	MOVQ b_base+48(FP), DX; \
	MOVQ m+96(FP), R11; \
	SHLQ $3, R11; \
	MOVQ sai+104(FP), R12; \
	SHLQ $3, R12; \
	MOVQ sap+112(FP), R13; \
	SHLQ $3, R13; \
	XORQ CX, CX; \
w16: \
	MOVQ R11, R9; \
	SUBQ CX, R9; \
	CMPQ R9, $128; \
	JLT  w8; \
	ROWS(16, ZERO4, STEP4, STORE4, row16, p16, skip16, store16, done16); \
	JMP  w16; \
w8: \
	CMPQ R9, $64; \
	JLT  w4; \
	ROWS(8, ZERO2, STEP2, STORE2, row8, p8, skip8, store8, done8); \
	MOVQ R11, R9; \
	SUBQ CX, R9; \
w4: \
	CMPQ R9, $32; \
	JLT  w1; \
	ROWS(4, ZERO1, STEP1, STORE1, row4, p4, skip4, store4, done4); \
w1: \
	CMPQ CX, R11; \
	JGE  done; \
	ROWS(1, ZERO0, MULADD1, STORE0, row1, p1, skip1, store1, done1); \
	JMP  w1; \
done: \
	VZEROUPPER; \
	RET

// func gemmAxpyAVX2(r, a, b []float64, lo, hi, k, m, sai, sap int)
#define SKIPZERO(l) MOVQ (AX), R9; SHLQ $1, R9; JZ l
#define MULADD(off, acc) VMOVUPD off(BX), Y5; VMULPD Y4, Y5, Y5; VADDPD acc, Y5, acc
#define MULADD1 VMOVSD (BX), X5; VMULSD X4, X5, X5; VADDSD X0, X5, X0
TEXT ·gemmAxpyAVX2(SB), NOSPLIT, $0-120
	GEMM
#undef SKIPZERO
#undef MULADD
#undef MULADD1

// func gemmDotAVX2(r, a, b []float64, lo, hi, k, m, sai, sap int)
#define SKIPZERO(l)
#define MULADD(off, acc) VMULPD off(BX), Y4, Y5; VADDPD Y5, acc, acc
#define MULADD1 VMULSD (BX), X4, X5; VADDSD X5, X0, X0
TEXT ·gemmDotAVX2(SB), NOSPLIT, $0-120
	GEMM

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
