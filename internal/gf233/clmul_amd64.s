//go:build amd64

// CLMUL backend: F_2^233 multiplication and squaring on PCLMULQDQ.
//
// PCLMULQDQ computes a full 64x64 -> 128-bit carry-less product in one
// instruction — exactly the primitive the paper's M0+ has to emulate
// with dozens of shift/XOR steps (and that the Go backends emulate with
// the windowed LD loop). The routines here are therefore structured
// around 128-bit XMM halves instead of 64-bit words:
//
//	multiplication — one outer Karatsuba split at 128 bits, each
//	    128x128 half-product computed with the classic 3-PCLMULQDQ
//	    inner Karatsuba, for 9 carry-less multiplies total (vs 16
//	    schoolbook);
//	squaring — in F_2 squaring is bit interleaving, and
//	    PCLMULQDQ(w, w) IS the bit-spread of w: four self-products
//	    expand the element to double width with no table or
//	    mask-cascade at all;
//	reduction — the same word-serial fold as reduce64Regs
//	    (x^233 = x^74 + 1), rephrased on 2x64-bit lanes: PSLLQ/PSRLQ
//	    produce the per-word shifted images and PSLLDQ/PSRLDQ move the
//	    cross-word carries between lanes, so the whole double-width
//	    value is folded without ever leaving the XMM file.
//
// The n-fold squaring loop (sqrNClmulAsm) keeps the accumulator lazily
// reduced: inside the loop only the high 256 bits are folded (the value
// stays < 2^256, which the next squaring accepts), and the exact
// 233-bit fold of bits 233..255 runs once at exit. That removes the
// longest dependency chain from the loop body, which is what the
// Itoh–Tsujii inversion's 232 back-to-back squarings are bottlenecked
// on.
//
// sqrN3ClmulAsm runs the same lazily reduced loop on three independent
// elements at once — the X, Y and Z coordinates of a López–Dahab point,
// for τ^n. One chain is latency-bound (each squaring waits for the
// previous fold); interleaving three keeps the multiplier and the shift
// units busy with work from the other two while one chain waits.

#include "textflag.h"

// topMask64x2 = [^0, TopMask64]: lane 0 passes word 2 untouched, lane 1
// masks word 3 to the 41 significant bits of the field.
DATA topMask64x2<>+0(SB)/8, $0xffffffffffffffff
DATA topMask64x2<>+8(SB)/8, $0x000001ffffffffff
GLOBL topMask64x2<>(SB), RODATA, $16

// FOLD folds the high pair H = [c_i, c_i+1] (i = 4 or 6) of a
// double-width value into the two pairs 4 words below, per the
// trinomial identity x^(233+j) = x^(74+j) + x^j rederived for 64-bit
// words (reduce64.go):
//
//	CA = [c_i-4, c_i-3]: lane shifts <<23 land the x^0 images of both
//	     words; the cross-word image (c_i>>41 ^ c_i<<33) enters lane 1
//	     via PSLLDQ;
//	CB = [c_i-2, c_i-1]: receives the x^74 spill of the pair
//	     (c_i+1>>41 ^ c_i+1<<33 via PSRLDQ into lane 0, and the >>31
//	     tails in both lanes).
//
// Clobbers T0, T1; preserves H.
#define FOLD(H, CA, CB, T0, T1) \
	MOVOU H, T0;              \
	PSLLQ $23, T0;            \
	PXOR  T0, CA;             \
	MOVOU H, T0;              \
	PSRLQ $41, T0;            \
	MOVOU H, T1;              \
	PSLLQ $33, T1;            \
	PXOR  T1, T0;             \
	MOVOU T0, T1;             \
	PSLLDQ $8, T1;            \
	PXOR  T1, CA;             \
	PSRLDQ $8, T0;            \
	PXOR  T0, CB;             \
	MOVOU H, T0;              \
	PSRLQ $31, T0;            \
	PXOR  T0, CB

// TOPFOLD clears bits 233..255 of the partially reduced value
// [C0 = c0,c1 | C1 = c2,c3]: t = c3>>41 folds to c0 (x^0) and
// c1<<10 (x^74; 74 = 64+10, and t has at most 23 bits so the image
// stays inside lane 1). Clobbers T0, T1.
#define TOPFOLD(C0, C1, T0, T1) \
	MOVOU C1, T0;             \
	PSRLDQ $8, T0;            \
	PSRLQ $41, T0;            \
	MOVOU T0, T1;             \
	PSLLQ $10, T1;            \
	PSLLDQ $8, T1;            \
	PXOR  T1, T0;             \
	PXOR  T0, C0;             \
	PAND  topMask64x2<>(SB), C1

// KARA128 computes the 256-bit carry-less product of the 128-bit
// operands X and Y into [LO | HI] with the 3-multiply Karatsuba:
// lo = x0*y0, hi = x1*y1, mid = (x0^x1)*(y0^y1) ^ lo ^ hi, then
// mid is stitched across the half boundary with byte shifts.
// Clobbers T0, T1; preserves X and Y.
#define KARA128(X, Y, LO, HI, T0, T1) \
	MOVOU X, LO;                   \
	PCLMULQDQ $0x00, Y, LO;        \
	MOVOU X, HI;                   \
	PCLMULQDQ $0x11, Y, HI;        \
	PSHUFD $0x4E, X, T0;           \
	PXOR  X, T0;                   \
	PSHUFD $0x4E, Y, T1;           \
	PXOR  Y, T1;                   \
	PCLMULQDQ $0x00, T1, T0;       \
	PXOR  LO, T0;                  \
	PXOR  HI, T0;                  \
	MOVOU T0, T1;                  \
	PSLLDQ $8, T1;                 \
	PXOR  T1, LO;                  \
	PSRLDQ $8, T0;                 \
	PXOR  T0, HI

// func mulClmulAsm(z, a, b *Elem64)
TEXT ·mulClmulAsm(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX

	MOVOU (SI), X0              // A0 = [a0, a1]
	MOVOU 16(SI), X1            // A1 = [a2, a3]
	MOVOU (BX), X2              // B0 = [b0, b1]
	MOVOU 16(BX), X3            // B1 = [b2, b3]

	// Outer Karatsuba at the 128-bit split: A*B =
	// P2*z^256 + (P0 ^ P2 ^ (A0^A1)(B0^B1))*z^128 + P0.
	KARA128(X0, X2, X4, X5, X12, X13)   // P0 = A0*B0 -> [X4 | X5]
	KARA128(X1, X3, X6, X7, X12, X13)   // P2 = A1*B1 -> [X6 | X7]
	MOVOU X0, X10
	PXOR  X1, X10               // A0 ^ A1
	MOVOU X2, X11
	PXOR  X3, X11               // B0 ^ B1
	KARA128(X10, X11, X8, X9, X12, X13) // M = (A0^A1)(B0^B1) -> [X8 | X9]

	// Middle term M ^ P0 ^ P2, XORed into words 2..5.
	PXOR X4, X8
	PXOR X6, X8                 // mid.lo
	PXOR X5, X9
	PXOR X7, X9                 // mid.hi
	PXOR X8, X5                 // C1 = [c2, c3]
	PXOR X9, X6                 // C2 = [c4, c5]

	// Fold the 466-bit product back into the field:
	// C0..C3 = [c0,c1 | c2,c3 | c4,c5 | c6,c7].
	FOLD(X7, X5, X6, X12, X13)
	FOLD(X6, X4, X5, X12, X13)
	TOPFOLD(X4, X5, X12, X13)

	MOVOU X4, (DI)
	MOVOU X5, 16(DI)
	RET

// func sqrClmulAsm(z, a *Elem64)
TEXT ·sqrClmulAsm(SB), NOSPLIT, $0-16
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI

	MOVOU (SI), X0              // [a0, a1]
	MOVOU 16(SI), X1            // [a2, a3]

	// PCLMULQDQ(w, w) spreads the bits of w: four self-products are
	// the whole double-width expansion.
	MOVOU X0, X4
	PCLMULQDQ $0x00, X0, X4     // [c0, c1]
	MOVOU X0, X5
	PCLMULQDQ $0x11, X0, X5     // [c2, c3]
	MOVOU X1, X6
	PCLMULQDQ $0x00, X1, X6     // [c4, c5]
	MOVOU X1, X7
	PCLMULQDQ $0x11, X1, X7     // [c6, c7]

	FOLD(X7, X5, X6, X12, X13)
	FOLD(X6, X4, X5, X12, X13)
	TOPFOLD(X4, X5, X12, X13)

	MOVOU X4, (DI)
	MOVOU X5, 16(DI)
	RET

// func sqrNClmulAsm(z, a *Elem64, n int)
TEXT ·sqrNClmulAsm(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX

	MOVOU (SI), X0
	MOVOU 16(SI), X1
	CMPQ CX, $0
	JLE  store

loop:
	MOVOU X0, X4
	PCLMULQDQ $0x00, X0, X4
	MOVOU X0, X5
	PCLMULQDQ $0x11, X0, X5
	MOVOU X1, X6
	PCLMULQDQ $0x00, X1, X6
	MOVOU X1, X7
	PCLMULQDQ $0x11, X1, X7

	// Lazy reduction: fold only the high 256 bits. Bits 233..255 may
	// stay set; the next squaring accepts any 256-bit input and
	// TOPFOLD clears them once after the loop.
	FOLD(X7, X5, X6, X12, X13)
	FOLD(X6, X4, X5, X12, X13)

	MOVOU X4, X0
	MOVOU X5, X1
	DECQ CX
	JNZ  loop

	TOPFOLD(X0, X1, X12, X13)

store:
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	RET

// SQR2X squares the lazily reduced value [L | H] in place, leaving the
// high 256 bits folded but bits 233..255 possibly set (the loop body of
// sqrNClmulAsm with the products computed into the chain's own
// registers): L and H take the outer self-products [c0,c1] and
// [c6,c7], Q1 and Q2 the inner ones [c2,c3] and [c4,c5]. Clobbers Q1,
// Q2, T0, T1.
#define SQR2X(L, H, Q1, Q2, T0, T1) \
	MOVOU H, Q2;                 \
	PCLMULQDQ $0x00, H, Q2;      \
	PCLMULQDQ $0x11, H, H;       \
	MOVOU L, Q1;                 \
	PCLMULQDQ $0x11, L, Q1;      \
	PCLMULQDQ $0x00, L, L;       \
	FOLD(H, Q1, Q2, T0, T1);     \
	FOLD(Q2, L, Q1, T0, T1);     \
	MOVOU Q1, H

// func sqrN3ClmulAsm(x, y, z *Elem64, n int)
//
// Squares x, y and z in place n times each. The three chains share
// only the fold temporaries X12/X13, whose reuse register renaming
// turns into independent physical registers.
TEXT ·sqrN3ClmulAsm(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ z+16(FP), DX
	MOVQ n+24(FP), CX

	MOVOU (DI), X0
	MOVOU 16(DI), X1
	MOVOU (SI), X4
	MOVOU 16(SI), X5
	MOVOU (DX), X8
	MOVOU 16(DX), X9
	CMPQ CX, $0
	JLE  store

loop:
	SQR2X(X0, X1, X2, X3, X12, X13)
	SQR2X(X4, X5, X6, X7, X12, X13)
	SQR2X(X8, X9, X10, X11, X12, X13)
	DECQ CX
	JNZ  loop

	TOPFOLD(X0, X1, X12, X13)
	TOPFOLD(X4, X5, X12, X13)
	TOPFOLD(X8, X9, X12, X13)

store:
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	MOVOU X4, (SI)
	MOVOU X5, 16(SI)
	MOVOU X8, (DX)
	MOVOU X9, 16(DX)
	RET

// func cpuidECX1() uint32
TEXT ·cpuidECX1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET
