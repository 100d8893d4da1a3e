//go:build amd64

#include "textflag.h"

// Pack-free skinny micro-kernels (see skinny.go for the dispatch tier
// and skinny_amd64.go for the Go declarations). Both kernels share
// one addressing scheme: A element (r, p) lives at a + r*aOff + p*aStep
// (offsets in elements, scaled to bytes on entry), so the same code
// serves plain and transposed A. B rows are read with a width mask —
// opmask registers on AVX-512, a mask vector from the table below on
// AVX2 — so tiles narrower than one vector never read or write past
// their w columns and nothing is padded or staged.
//
// Per-element accumulation is a pure ascending-p FMA chain, the same
// chain the packed kernels produce, so results are bit-identical with
// the packed route (the numeric contract atop skinny.go).

// 64 bytes: four all-ones qwords then four zero qwords. An AVX2 mask of
// width w is the 4 qwords at offset (4-w)*8.
DATA skinnymask<>+0(SB)/8, $0xffffffffffffffff
DATA skinnymask<>+8(SB)/8, $0xffffffffffffffff
DATA skinnymask<>+16(SB)/8, $0xffffffffffffffff
DATA skinnymask<>+24(SB)/8, $0xffffffffffffffff
DATA skinnymask<>+32(SB)/8, $0
DATA skinnymask<>+40(SB)/8, $0
DATA skinnymask<>+48(SB)/8, $0
DATA skinnymask<>+56(SB)/8, $0
GLOBL skinnymask<>(SB), RODATA, $64

// func skinnyKern8dAVX512(c []float64, ldc int, a []float64, aOff, aStep int, b []float64, ldb, w, kc, mode int)
//
// 8 rows × w ≤ 8 float64 columns in Z0..Z7. Each k step masked-loads
// one B row vector and broadcasts the eight A values through the
// three-base scheme (SI, SI+3*aOff, SI+6*aOff with *1/*2 scaled-index
// offsets), issuing eight VFMADD231PD. All bases advance aStep bytes
// per step, so plain (aStep = one element) and transposed (aStep = lda)
// A run the same loop.
TEXT ·skinnyKern8dAVX512(SB), NOSPLIT, $0-128
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), DX
	MOVQ a_base+32(FP), SI
	MOVQ aOff+56(FP), R9
	SHLQ $3, R9
	MOVQ aStep+64(FP), R10
	SHLQ $3, R10
	MOVQ b_base+72(FP), BX
	MOVQ ldb+96(FP), R11
	SHLQ $3, R11
	MOVQ mode+120(FP), R8

	MOVQ  w+104(FP), CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVB AX, K1
	MOVQ  kc+112(FP), CX

	LEAQ (SI)(R9*2), R12
	ADDQ R9, R12        // R12 = a + 3*aOff (rows 3..5)
	LEAQ (R12)(R9*2), R13
	ADDQ R9, R13        // R13 = a + 6*aOff (rows 6..7)

	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7

loop8d:
	VMOVUPD.Z    (BX), K1, Z8
	VBROADCASTSD (SI), Z9
	VFMADD231PD  Z8, Z9, Z0
	VBROADCASTSD (SI)(R9*1), Z10
	VFMADD231PD  Z8, Z10, Z1
	VBROADCASTSD (SI)(R9*2), Z9
	VFMADD231PD  Z8, Z9, Z2
	VBROADCASTSD (R12), Z10
	VFMADD231PD  Z8, Z10, Z3
	VBROADCASTSD (R12)(R9*1), Z9
	VFMADD231PD  Z8, Z9, Z4
	VBROADCASTSD (R12)(R9*2), Z10
	VFMADD231PD  Z8, Z10, Z5
	VBROADCASTSD (R13), Z9
	VFMADD231PD  Z8, Z9, Z6
	VBROADCASTSD (R13)(R9*1), Z10
	VFMADD231PD  Z8, Z10, Z7
	ADDQ         R10, SI
	ADDQ         R10, R12
	ADDQ         R10, R13
	ADDQ         R11, BX
	DECQ         CX
	JNZ          loop8d

	SHLQ $3, DX         // ldc in bytes
	CMPQ R8, $1
	JEQ  add8d
	CMPQ R8, $2
	JEQ  sub8d

	// mode 0: overwrite
	VMOVUPD Z0, K1, (DI)
	ADDQ    DX, DI
	VMOVUPD Z1, K1, (DI)
	ADDQ    DX, DI
	VMOVUPD Z2, K1, (DI)
	ADDQ    DX, DI
	VMOVUPD Z3, K1, (DI)
	ADDQ    DX, DI
	VMOVUPD Z4, K1, (DI)
	ADDQ    DX, DI
	VMOVUPD Z5, K1, (DI)
	ADDQ    DX, DI
	VMOVUPD Z6, K1, (DI)
	ADDQ    DX, DI
	VMOVUPD Z7, K1, (DI)
	VZEROUPPER
	RET

add8d:
	VMOVUPD.Z (DI), K1, Z8
	VADDPD    Z8, Z0, Z0
	VMOVUPD   Z0, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VADDPD    Z8, Z1, Z1
	VMOVUPD   Z1, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VADDPD    Z8, Z2, Z2
	VMOVUPD   Z2, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VADDPD    Z8, Z3, Z3
	VMOVUPD   Z3, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VADDPD    Z8, Z4, Z4
	VMOVUPD   Z4, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VADDPD    Z8, Z5, Z5
	VMOVUPD   Z5, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VADDPD    Z8, Z6, Z6
	VMOVUPD   Z6, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VADDPD    Z8, Z7, Z7
	VMOVUPD   Z7, K1, (DI)
	VZEROUPPER
	RET

sub8d:
	VMOVUPD.Z (DI), K1, Z8
	VSUBPD    Z0, Z8, Z8
	VMOVUPD   Z8, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VSUBPD    Z1, Z8, Z8
	VMOVUPD   Z8, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VSUBPD    Z2, Z8, Z8
	VMOVUPD   Z8, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VSUBPD    Z3, Z8, Z8
	VMOVUPD   Z8, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VSUBPD    Z4, Z8, Z8
	VMOVUPD   Z8, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VSUBPD    Z5, Z8, Z8
	VMOVUPD   Z8, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VSUBPD    Z6, Z8, Z8
	VMOVUPD   Z8, K1, (DI)
	ADDQ      DX, DI
	VMOVUPD.Z (DI), K1, Z8
	VSUBPD    Z7, Z8, Z8
	VMOVUPD   Z8, K1, (DI)
	VZEROUPPER
	RET

// func skinnyKern4dFMA(c []float64, ldc int, a []float64, aOff, aStep int, b []float64, ldb, w, kc, mode int)
//
// AVX2 twin: 4 rows × w ≤ 4 float64 columns in Y0..Y3, B loads and C
// stores masked through Y12 (built from the table above). Rows 0..2
// come off the base with *1/*2 scaled offsets, row 3 off a second base
// at a + 3*aOff.
TEXT ·skinnyKern4dFMA(SB), NOSPLIT, $0-128
	MOVQ c_base+0(FP), DI
	MOVQ ldc+24(FP), DX
	MOVQ a_base+32(FP), SI
	MOVQ aOff+56(FP), R9
	SHLQ $3, R9
	MOVQ aStep+64(FP), R10
	SHLQ $3, R10
	MOVQ b_base+72(FP), BX
	MOVQ ldb+96(FP), R11
	SHLQ $3, R11
	MOVQ kc+112(FP), CX
	MOVQ mode+120(FP), R8

	MOVQ    $4, R14
	SUBQ    w+104(FP), R14
	SHLQ    $3, R14
	LEAQ    skinnymask<>(SB), AX
	VMOVDQU (AX)(R14*1), Y12

	LEAQ (SI)(R9*2), R12
	ADDQ R9, R12        // R12 = a + 3*aOff (row 3)

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

loop4d:
	VMASKMOVPD   (BX), Y12, Y4
	VBROADCASTSD (SI), Y5
	VFMADD231PD  Y4, Y5, Y0
	VBROADCASTSD (SI)(R9*1), Y6
	VFMADD231PD  Y4, Y6, Y1
	VBROADCASTSD (SI)(R9*2), Y5
	VFMADD231PD  Y4, Y5, Y2
	VBROADCASTSD (R12), Y6
	VFMADD231PD  Y4, Y6, Y3
	ADDQ         R10, SI
	ADDQ         R10, R12
	ADDQ         R11, BX
	DECQ         CX
	JNZ          loop4d

	SHLQ $3, DX
	CMPQ R8, $1
	JEQ  add4d
	CMPQ R8, $2
	JEQ  sub4d

	VMASKMOVPD Y0, Y12, (DI)
	ADDQ       DX, DI
	VMASKMOVPD Y1, Y12, (DI)
	ADDQ       DX, DI
	VMASKMOVPD Y2, Y12, (DI)
	ADDQ       DX, DI
	VMASKMOVPD Y3, Y12, (DI)
	VZEROUPPER
	RET

add4d:
	VMASKMOVPD (DI), Y12, Y4
	VADDPD     Y4, Y0, Y0
	VMASKMOVPD Y0, Y12, (DI)
	ADDQ       DX, DI
	VMASKMOVPD (DI), Y12, Y4
	VADDPD     Y4, Y1, Y1
	VMASKMOVPD Y1, Y12, (DI)
	ADDQ       DX, DI
	VMASKMOVPD (DI), Y12, Y4
	VADDPD     Y4, Y2, Y2
	VMASKMOVPD Y2, Y12, (DI)
	ADDQ       DX, DI
	VMASKMOVPD (DI), Y12, Y4
	VADDPD     Y4, Y3, Y3
	VMASKMOVPD Y3, Y12, (DI)
	VZEROUPPER
	RET

sub4d:
	VMASKMOVPD (DI), Y12, Y4
	VSUBPD     Y0, Y4, Y4
	VMASKMOVPD Y4, Y12, (DI)
	ADDQ       DX, DI
	VMASKMOVPD (DI), Y12, Y4
	VSUBPD     Y1, Y4, Y4
	VMASKMOVPD Y4, Y12, (DI)
	ADDQ       DX, DI
	VMASKMOVPD (DI), Y12, Y4
	VSUBPD     Y2, Y4, Y4
	VMASKMOVPD Y4, Y12, (DI)
	ADDQ       DX, DI
	VMASKMOVPD (DI), Y12, Y4
	VSUBPD     Y3, Y4, Y4
	VMASKMOVPD Y4, Y12, (DI)
	VZEROUPPER
	RET
