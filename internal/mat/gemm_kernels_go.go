package mat

// Portable micro-kernels, one per tile shape. They are the only kernels on
// non-amd64 builds and under the forced-generic tier, and the references
// the assembly kernels are pinned against (gemm_test.go, dispatch_test.go).
// Each accumulates its full register tile across the k loop and touches
// the dst tile exactly once at the end, in the same per-element p-order as
// the corresponding asm kernel.

// gemmKernel4x4Go is the portable float64 4×4 kernel: a 4×4 tile of dst
// (row stride ldc) gets the product of a packed 4-row A strip and a packed
// 4-column B strip over kc steps. Sixteen scalar accumulators live in
// registers across the k loop.
func gemmKernel4x4Go(c []float64, ldc int, ap, bp []float64, kc, mode int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	i := 0
	for p := 0; p < kc; p++ {
		a0, a1, a2, a3 := ap[i], ap[i+1], ap[i+2], ap[i+3]
		b0, b1, b2, b3 := bp[i], bp[i+1], bp[i+2], bp[i+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		i += 4
	}
	r0 := c[0:4:4]
	r1 := c[ldc : ldc+4 : ldc+4]
	r2 := c[2*ldc : 2*ldc+4 : 2*ldc+4]
	r3 := c[3*ldc : 3*ldc+4 : 3*ldc+4]
	switch mode {
	case gemmAdd:
		r0[0] += c00
		r0[1] += c01
		r0[2] += c02
		r0[3] += c03
		r1[0] += c10
		r1[1] += c11
		r1[2] += c12
		r1[3] += c13
		r2[0] += c20
		r2[1] += c21
		r2[2] += c22
		r2[3] += c23
		r3[0] += c30
		r3[1] += c31
		r3[2] += c32
		r3[3] += c33
	case gemmSub:
		r0[0] -= c00
		r0[1] -= c01
		r0[2] -= c02
		r0[3] -= c03
		r1[0] -= c10
		r1[1] -= c11
		r1[2] -= c12
		r1[3] -= c13
		r2[0] -= c20
		r2[1] -= c21
		r2[2] -= c22
		r2[3] -= c23
		r3[0] -= c30
		r3[1] -= c31
		r3[2] -= c32
		r3[3] -= c33
	default:
		r0[0] = c00
		r0[1] = c01
		r0[2] = c02
		r0[3] = c03
		r1[0] = c10
		r1[1] = c11
		r1[2] = c12
		r1[3] = c13
		r2[0] = c20
		r2[1] = c21
		r2[2] = c22
		r2[3] = c23
		r3[0] = c30
		r3[1] = c31
		r3[2] = c32
		r3[3] = c33
	}
}

// gemmKernel8x16dGo is the portable float64 8×16 kernel matching the
// AVX-512 tile shape: eight rows by two 512-bit vectors of doubles. It
// exists so the AVX-512 tier has a reference with identical tile geometry
// (the asm kernel is tolerance-pinned against it) and so dispatch still
// links on builds without the asm.
func gemmKernel8x16dGo(c []float64, ldc int, ap, bp []float64, kc, mode int) {
	var acc [8][16]float64
	ia, ib := 0, 0
	for p := 0; p < kc; p++ {
		b := bp[ib : ib+16 : ib+16]
		a := ap[ia : ia+8 : ia+8]
		for r := 0; r < 8; r++ {
			ar := a[r]
			cr := &acc[r]
			for t := 0; t < 16; t++ {
				cr[t] += ar * b[t]
			}
		}
		ia += 8
		ib += 16
	}
	for r := 0; r < 8; r++ {
		drow := c[r*ldc : r*ldc+16 : r*ldc+16]
		cr := &acc[r]
		switch mode {
		case gemmAdd:
			for t := 0; t < 16; t++ {
				drow[t] += cr[t]
			}
		case gemmSub:
			for t := 0; t < 16; t++ {
				drow[t] -= cr[t]
			}
		default:
			for t := 0; t < 16; t++ {
				drow[t] = cr[t]
			}
		}
	}
}
