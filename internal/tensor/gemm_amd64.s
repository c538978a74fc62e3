#include "textflag.h"

// lanemask<> is eight all-ones quadwords then eight zero ones: the 64 bytes
// at offset 8·(8−w) select the first w of a tile's eight columns.
DATA lanemask<>+0x00(SB)/8, $-1
DATA lanemask<>+0x08(SB)/8, $-1
DATA lanemask<>+0x10(SB)/8, $-1
DATA lanemask<>+0x18(SB)/8, $-1
DATA lanemask<>+0x20(SB)/8, $-1
DATA lanemask<>+0x28(SB)/8, $-1
DATA lanemask<>+0x30(SB)/8, $-1
DATA lanemask<>+0x38(SB)/8, $-1
DATA lanemask<>+0x40(SB)/8, $0
DATA lanemask<>+0x48(SB)/8, $0
DATA lanemask<>+0x50(SB)/8, $0
DATA lanemask<>+0x58(SB)/8, $0
DATA lanemask<>+0x60(SB)/8, $0
DATA lanemask<>+0x68(SB)/8, $0
DATA lanemask<>+0x70(SB)/8, $0
DATA lanemask<>+0x78(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $128

// Register use in gemmAVX:
//   Y0–Y7   accumulators, row r in Y(2r) (columns 0–3) and Y(2r+1) (4–7)
//   Y8, Y9  B(p, 0–7);  Y10 A(r,p) broadcast
//   Y11, Y12  products, the skip mask and the panel check's scratch
//   Y13     +0: the skip's comparand, and the panel check's result
//   Y14, Y15  column mask of a tail tile
//   SI, DX, R12, R13  A rows;  AX  byte offset p·ap into them
//   BX      B panel row p;  CX  terms left;  DI  C row;  R14  B panel
//   R8, R9, R10, R11  byte strides ldc, ai, ap and the panel's row stride

// SKIPTERM adds A(r,p)·B(p,·) to one row unless A(r,p) is ±0, when the
// product is masked to +0 (predicate 4, NEQ_UQ, keeps NaN terms).
#define SKIPTERM(ar, acc0, acc1) \
	VBROADCASTSD (ar)(AX*1), Y10; \
	VCMPPD       $4, Y13, Y10, Y11; \
	VMULPD       Y8, Y10, Y12; \
	VANDPD       Y11, Y12, Y12; \
	VADDPD       Y12, acc0, acc0; \
	VMULPD       Y9, Y10, Y12; \
	VANDPD       Y11, Y12, Y12; \
	VADDPD       Y12, acc1, acc1

// TERM adds A(r,p)·B(p,·) to one row.
#define TERM(ar, acc0, acc1) \
	VBROADCASTSD (ar)(AX*1), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, acc0, acc0; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, acc1, acc1

#define LOADB \
	VMOVUPD (BX), Y8; \
	VMOVUPD 32(BX), Y9

// CHECKB ors B(p,·) − B(p,·) into Y13: it stays +0 while the panel is
// finite.
#define CHECKB \
	VSUBPD Y8, Y8, Y11; \
	VORPD  Y11, Y13, Y13; \
	VSUBPD Y9, Y9, Y11; \
	VORPD  Y11, Y13, Y13

#define NEXTP \
	ADDQ R10, AX; \
	ADDQ R11, BX; \
	DECQ CX

#define ZERO2(acc0, acc1) \
	VXORPD acc0, acc0, acc0; \
	VXORPD acc1, acc1, acc1

#define LOAD2(ptr, acc0, acc1) \
	VMOVUPD (ptr), acc0; \
	VMOVUPD 32(ptr), acc1

#define LOAD2TAIL(ptr, acc0, acc1) \
	VMASKMOVPD (ptr), Y14, acc0; \
	VMASKMOVPD 32(ptr), Y15, acc1

#define STORE2(ptr, acc0, acc1) \
	VMOVUPD acc0, (ptr); \
	VMOVUPD acc1, 32(ptr)

#define STORE2TAIL(ptr, acc0, acc1) \
	VMASKMOVPD acc0, Y14, (ptr); \
	VMASKMOVPD acc1, Y15, 32(ptr)

// func gemmAVX(c, a []float64, ai, ap int, b []float64, bp, bj, rows, k, n int, skip bool)
//
// B is either row-major (bj = 1) or column-major (bp = 1), which is all
// gemmRows passes. The columns go by in strips of eight (the last may be
// narrower); each strip's terms go by in even passes of at most 64, each
// pass over every row, the first starting the accumulators at +0 and the
// others at what the last one stored. The frame holds the pass's B panel
// (64 rows of 64 bytes) and, from 4096(SP): the rows left, the mode (set
// at packed: below), the strip's C and B, the columns left, the strip's
// width w, the pass's first term p0, the terms per pass and the pass's
// terms.
TEXT ·gemmAVX(SB), 0, $4168-129
	VXORPD  Y13, Y13, Y13
	MOVQ    c_base+0(FP), AX
	MOVQ    AX, 4112(SP)
	MOVQ    b_base+64(FP), AX
	MOVQ    AX, 4120(SP)
	MOVQ    n+120(FP), AX
	MOVQ    AX, 4128(SP)
	// Terms per pass: ⌈k / ⌈k/64⌉⌉, so 72 terms run as 36 + 36.
	MOVQ    k+112(FP), AX
	LEAQ    63(AX), CX
	SHRQ    $6, CX
	LEAQ    -1(AX)(CX*1), AX
	XORQ    DX, DX
	DIVQ    CX
	MOVQ    AX, 4152(SP)

strip:
	MOVQ    4128(SP), DX
	CMPQ    DX, $8
	JLE     width
	MOVQ    $8, DX

width:
	MOVQ    DX, 4136(SP)
	MOVQ    $0, 4144(SP)

pass:
	MOVQ    4136(SP), DX
	MOVQ    rows+104(FP), AX
	MOVQ    AX, 4096(SP)
	MOVQ    bp+88(FP), R11
	SHLQ    $3, R11
	MOVQ    4144(SP), AX
	IMULQ   R11, AX
	MOVQ    4120(SP), R14
	ADDQ    AX, R14
	MOVQ    k+112(FP), CX
	SUBQ    4144(SP), CX
	CMPQ    CX, 4152(SP)
	JLE     terms
	MOVQ    4152(SP), CX

terms:
	MOVQ    CX, 4160(SP)
	MOVQ    DX, AX
	NEGQ    AX
	ADDQ    $8, AX
	LEAQ    lanemask<>(SB), BX
	VMOVUPD (BX)(AX*8), Y14
	VMOVUPD 32(BX)(AX*8), Y15
	LEAQ    0(SP), DI
	MOVQ    bj+96(FP), R9
	CMPQ    R9, $1
	JNE     packt
	CMPQ    DX, $8
	JEQ     packed

	// A tail of row-major B: each row's first w columns through the
	// column mask, whose cleared lanes load as +0.
	MOVQ    R14, SI

copyrow:
	VMASKMOVPD (SI), Y14, Y8
	VMASKMOVPD 32(SI), Y15, Y9
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	ADDQ    R11, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     copyrow
	JMP     panel

	// Column-major B: transpose 4×4 blocks into the panel. A tail's
	// unused lanes are zeroed first, so they never hold a denormal or a
	// NaN for the arithmetic to trip over.
packt:
	SHLQ    $3, R9
	MOVQ    R14, SI
	CMPQ    DX, $8
	JEQ     tgroup
	MOVQ    CX, BX
	MOVQ    DI, R13

zerorow:
	VMOVUPD Y13, (R13)
	VMOVUPD Y13, 32(R13)
	ADDQ    $64, R13
	DECQ    BX
	JNZ     zerorow

tgroup:
	CMPQ    DX, $4
	JLT     tcols
	LEAQ    (SI)(R9*1), R8
	LEAQ    (SI)(R9*2), R10
	LEAQ    (R10)(R9*1), R12
	MOVQ    DI, R13
	XORQ    AX, AX
	MOVQ    CX, BX
	SHRQ    $2, BX
	JZ      trest

tblock:
	VMOVUPD    (SI)(AX*1), Y0
	VMOVUPD    (R8)(AX*1), Y1
	VMOVUPD    (R10)(AX*1), Y2
	VMOVUPD    (R12)(AX*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (R13)
	VMOVUPD    Y1, 64(R13)
	VMOVUPD    Y2, 128(R13)
	VMOVUPD    Y3, 192(R13)
	ADDQ       $32, AX
	ADDQ       $256, R13
	DECQ       BX
	JNZ        tblock

trest:
	MOVQ    CX, BX
	ANDQ    $3, BX
	JZ      tnext

trestrow:
	MOVQ    (SI)(AX*1), R11
	MOVQ    R11, (R13)
	MOVQ    (R8)(AX*1), R11
	MOVQ    R11, 8(R13)
	MOVQ    (R10)(AX*1), R11
	MOVQ    R11, 16(R13)
	MOVQ    (R12)(AX*1), R11
	MOVQ    R11, 24(R13)
	ADDQ    $8, AX
	ADDQ    $64, R13
	DECQ    BX
	JNZ     trestrow

tnext:
	LEAQ    (SI)(R9*4), SI
	ADDQ    $32, DI
	SUBQ    $4, DX
	JMP     tgroup

	// The last w % 4 columns, one element at a time.
tcols:
	TESTQ   DX, DX
	JZ      panel

tcol:
	MOVQ    DI, R13
	XORQ    AX, AX

tcolrow:
	MOVQ    (SI)(AX*8), R11
	MOVQ    R11, (R13)
	ADDQ    $64, R13
	INCQ    AX
	CMPQ    AX, CX
	JLT     tcolrow
	ADDQ    R9, SI
	ADDQ    $8, DI
	DECQ    DX
	JNZ     tcol

panel:
	LEAQ    0(SP), R14
	MOVQ    $64, R11

packed:
	// Mode at 4104(SP): 0 adds every term, 1 masks the products of zero
	// A(r,p) to +0, and 2 (the skip was asked for) runs the first block
	// unmasked while it checks the panel. A skipped term is a zero A(r,p);
	// times a finite B(p,j) it is ±0, and adding ±0 leaves an accumulator
	// that is never −0 alone, so the mask is needed only when the panel
	// holds an Inf or a NaN: x − x is +0 for every finite x, NaN otherwise.
	MOVBLZX skip+128(FP), AX
	ADDQ    AX, AX
	MOVB    AX, 4104(SP)
	MOVQ    4112(SP), DI
	MOVQ    n+120(FP), R8
	SHLQ    $3, R8
	MOVQ    ap+56(FP), R10
	SHLQ    $3, R10
	MOVQ    4144(SP), SI
	IMULQ   R10, SI
	ADDQ    a_base+24(FP), SI
	MOVQ    ai+48(FP), R9
	SHLQ    $3, R9

rows4:
	MOVQ    4096(SP), AX
	CMPQ    AX, $4
	JLT     rows1
	SUBQ    $4, AX
	MOVQ    AX, 4096(SP)
	LEAQ    (SI)(R9*1), DX
	LEAQ    (SI)(R9*2), R12
	LEAQ    (R12)(R9*1), R13

block4:
	CMPQ    4144(SP), $0
	JEQ     zero4
	MOVQ    DI, AX
	CMPQ    4136(SP), $8
	JNE     loadtail4
	LOAD2(AX, Y0, Y1)
	ADDQ    R8, AX
	LOAD2(AX, Y2, Y3)
	ADDQ    R8, AX
	LOAD2(AX, Y4, Y5)
	ADDQ    R8, AX
	LOAD2(AX, Y6, Y7)
	JMP     run4

loadtail4:
	LOAD2TAIL(AX, Y0, Y1)
	ADDQ    R8, AX
	LOAD2TAIL(AX, Y2, Y3)
	ADDQ    R8, AX
	LOAD2TAIL(AX, Y4, Y5)
	ADDQ    R8, AX
	LOAD2TAIL(AX, Y6, Y7)
	JMP     run4

zero4:
	ZERO2(Y0, Y1)
	ZERO2(Y2, Y3)
	ZERO2(Y4, Y5)
	ZERO2(Y6, Y7)

run4:
	MOVQ    R14, BX
	XORQ    AX, AX
	MOVQ    4160(SP), CX
	CMPB    4104(SP), $1
	JLT     dense4
	JGT     check4

skip4:
	LOADB
	SKIPTERM(SI, Y0, Y1)
	SKIPTERM(DX, Y2, Y3)
	SKIPTERM(R12, Y4, Y5)
	SKIPTERM(R13, Y6, Y7)
	NEXTP
	JNZ     skip4
	JMP     store4

check4:
	LOADB
	CHECKB
	TERM(SI, Y0, Y1)
	TERM(DX, Y2, Y3)
	TERM(R12, Y4, Y5)
	TERM(R13, Y6, Y7)
	NEXTP
	JNZ     check4
	MOVB    $0, 4104(SP)
	VPTEST  Y13, Y13
	JZ      store4
	VXORPD  Y13, Y13, Y13
	MOVB    $1, 4104(SP)
	JMP     block4

dense4:
	LOADB
	TERM(SI, Y0, Y1)
	TERM(DX, Y2, Y3)
	TERM(R12, Y4, Y5)
	TERM(R13, Y6, Y7)
	NEXTP
	JNZ     dense4

store4:
	MOVQ    DI, AX
	CMPQ    4136(SP), $8
	JNE     storetail4
	STORE2(AX, Y0, Y1)
	ADDQ    R8, AX
	STORE2(AX, Y2, Y3)
	ADDQ    R8, AX
	STORE2(AX, Y4, Y5)
	ADDQ    R8, AX
	STORE2(AX, Y6, Y7)
	JMP     next4

storetail4:
	STORE2TAIL(AX, Y0, Y1)
	ADDQ    R8, AX
	STORE2TAIL(AX, Y2, Y3)
	ADDQ    R8, AX
	STORE2TAIL(AX, Y4, Y5)
	ADDQ    R8, AX
	STORE2TAIL(AX, Y6, Y7)

next4:
	LEAQ    (SI)(R9*4), SI
	LEAQ    (DI)(R8*4), DI
	JMP     rows4

	// The last rows % 4 rows, one at a time.
rows1:
	MOVQ    4096(SP), AX
	TESTQ   AX, AX
	JEQ     done
	DECQ    AX
	MOVQ    AX, 4096(SP)

block1:
	CMPQ    4144(SP), $0
	JEQ     zero1
	CMPQ    4136(SP), $8
	JNE     loadtail1
	LOAD2(DI, Y0, Y1)
	JMP     run1

loadtail1:
	LOAD2TAIL(DI, Y0, Y1)
	JMP     run1

zero1:
	ZERO2(Y0, Y1)

run1:
	MOVQ    R14, BX
	XORQ    AX, AX
	MOVQ    4160(SP), CX
	CMPB    4104(SP), $1
	JLT     dense1
	JGT     check1

skip1:
	LOADB
	SKIPTERM(SI, Y0, Y1)
	NEXTP
	JNZ     skip1
	JMP     store1

check1:
	LOADB
	CHECKB
	TERM(SI, Y0, Y1)
	NEXTP
	JNZ     check1
	MOVB    $0, 4104(SP)
	VPTEST  Y13, Y13
	JZ      store1
	VXORPD  Y13, Y13, Y13
	MOVB    $1, 4104(SP)
	JMP     block1

dense1:
	LOADB
	TERM(SI, Y0, Y1)
	NEXTP
	JNZ     dense1

store1:
	CMPQ    4136(SP), $8
	JNE     storetail1
	STORE2(DI, Y0, Y1)
	JMP     next1

storetail1:
	STORE2TAIL(DI, Y0, Y1)

next1:
	ADDQ    R9, SI
	ADDQ    R8, DI
	JMP     rows1

	// The pass is done: on to the strip's next terms, or to the next eight
	// columns.
done:
	MOVQ    4144(SP), AX
	ADDQ    4152(SP), AX
	MOVQ    AX, 4144(SP)
	CMPQ    AX, k+112(FP)
	JLT     pass
	ADDQ    $64, 4112(SP)
	MOVQ    bj+96(FP), AX
	SHLQ    $6, AX
	ADDQ    AX, 4120(SP)
	MOVQ    4128(SP), AX
	SUBQ    $8, AX
	JLE     return
	MOVQ    AX, 4128(SP)
	JMP     strip

return:
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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
