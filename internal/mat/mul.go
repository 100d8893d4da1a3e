package mat

import (
	"math"
	"unsafe"

	"imrdmd/internal/compute"
)

// parallelThreshold is the flop count above which the multiply kernels fan
// work out to the engine's worker pool. At or below it the handoff
// overhead dominates, so a problem of exactly this size stays serial
// (threshold_test.go pins the boundary).
const parallelThreshold = 1 << 18

// fanOut reports whether a kernel with the given flop count should split
// across engine e. The comparison is strict: work fans out only strictly
// above parallelThreshold.
func fanOut(e *compute.Engine, flops int) bool {
	return flops > parallelThreshold && e.Workers() > 1
}

// usePacked reports whether an m×k by k×n multiply should route through
// the packed GEMM rather than the naive loops. The boundary is inclusive
// (threshold_test.go pins it from both sides).
func usePacked(m, k, n int) bool {
	return m*k*n >= gemmMinFlops
}

// PackedCols returns the narrowest n for which an m×k by k×n multiply
// (Mul, MulIntoWith and the accumulate variants) takes the packed route;
// narrower products run the naive loops, which agree with the packed
// kernels only to roundoff. Within one route every output element
// accumulates the same chain whatever n is, so a caller evaluating some
// columns of a wider product reproduces its bits by multiplying at least
// this many. Empty operands (m·k = 0) never route packed.
func PackedCols(m, k int) int {
	if m <= 0 || k <= 0 {
		return math.MaxInt
	}
	return (gemmMinFlops + m*k - 1) / (m * k)
}

// Mul returns a*b. Problems of at least gemmMinFlops run through the
// packed register-blocked GEMM (see gemm.go), fanned out over row panels
// on the shared compute engine when large enough; smaller ones use a
// serial i-k-j loop.
func Mul(a, b *Dense) *Dense {
	return MulWith(compute.Default(), nil, a, b)
}

// MulWith computes a*b on engine e, borrowing the result from ws (pass
// nil ws to allocate). The caller owns the result; if it came from a
// workspace, return it with PutDense when done.
func MulWith(e *compute.Engine, ws *compute.Workspace, a, b *Dense) *Dense {
	if a.C != b.R {
		panic("mat: Mul inner dimension mismatch")
	}
	out := GetDenseRaw(ws, a.R, b.C)
	mulIntoWith(e, out, a, b)
	return out
}

// MulInto computes dst = a*b, reusing dst's storage. dst must be a.R×b.C
// and must not alias a or b (aliasing panics).
func MulInto(dst, a, b *Dense) {
	MulIntoWith(compute.Default(), dst, a, b)
}

// MulIntoWith computes dst = a*b on engine e. dst's prior contents are
// overwritten band-by-band inside the kernel — there is no separate
// zeroing pass — so dst may come straight from a workspace. dst must not
// alias a or b.
func MulIntoWith(e *compute.Engine, dst, a, b *Dense) {
	if a.C != b.R {
		panic("mat: MulInto inner dimension mismatch")
	}
	if dst.R != a.R || dst.C != b.C {
		panic("mat: MulInto output shape mismatch")
	}
	if overlaps(dst.Data, a.Data) || overlaps(dst.Data, b.Data) {
		panic("mat: MulInto destination aliases an operand")
	}
	mulIntoWith(e, dst, a, b)
}

// MulAddIntoWith computes dst += a*b through the same kernel routing as
// MulIntoWith: existing dst contents are kept and the product accumulates
// on top, so residual flips need no intermediate product matrix.
func MulAddIntoWith(e *compute.Engine, dst, a, b *Dense) {
	mulAccIntoWith(e, dst, a, b, gemmAdd)
}

// MulSubIntoWith computes dst -= a*b; see MulAddIntoWith.
func MulSubIntoWith(e *compute.Engine, dst, a, b *Dense) {
	mulAccIntoWith(e, dst, a, b, gemmSub)
}

func mulAccIntoWith(e *compute.Engine, dst, a, b *Dense, md int) {
	if a.C != b.R {
		panic("mat: MulInto inner dimension mismatch")
	}
	if dst.R != a.R || dst.C != b.C {
		panic("mat: MulInto output shape mismatch")
	}
	if overlaps(dst.Data, a.Data) || overlaps(dst.Data, b.Data) {
		panic("mat: MulInto destination aliases an operand")
	}
	if usePacked(a.R, a.C, b.C) {
		if skinnyShape(a.R, a.C, b.C) {
			skinnyGemm(e, denseView(dst), denseView(a), false, denseView(b), md)
			return
		}
		gemmView(e, denseView(dst), denseView(a), false, denseView(b), false, md)
		return
	}
	mulRangeAcc(dst, a, b, 0, a.R, md)
}

// mulRangeAcc is mulRange without the zeroing pass: rows of a*b accumulate
// into (gemmAdd) or subtract from (gemmSub) the existing out rows.
func mulRangeAcc(out, a, b *Dense, lo, hi, md int) {
	n := b.C
	bs := b.RowStride()
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Data[k*bs : k*bs+n]
			if md == gemmSub {
				for j, bkj := range brow {
					orow[j] -= aik * bkj
				}
			} else {
				for j, bkj := range brow {
					orow[j] += aik * bkj
				}
			}
		}
	}
}

// overlaps reports whether the backing arrays of x and y share memory.
func overlaps(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	x0 := uintptr(unsafe.Pointer(&x[0]))
	x1 := x0 + uintptr(len(x))*unsafe.Sizeof(x[0])
	y0 := uintptr(unsafe.Pointer(&y[0]))
	y1 := y0 + uintptr(len(y))*unsafe.Sizeof(y[0])
	return x0 < y1 && y0 < x1
}

func mulIntoWith(e *compute.Engine, out, a, b *Dense) {
	if usePacked(a.R, a.C, b.C) {
		if skinnyShape(a.R, a.C, b.C) {
			skinnyGemm(e, denseView(out), denseView(a), false, denseView(b), gemmSet)
			return
		}
		gemmView(e, denseView(out), denseView(a), false, denseView(b), false, gemmSet)
		return
	}
	// Below gemmMinFlops the problem is far under parallelThreshold too,
	// so the naive kernel always runs serially on the caller.
	mulRange(out, a, b, 0, a.R)
}

// mulRange computes rows [lo,hi) of out = a*b with an ikj loop order so
// the inner loop streams through contiguous rows of b and out. Each output
// row is zeroed just before accumulation, so out need not be pre-zeroed.
func mulRange(out, a, b *Dense, lo, hi int) {
	n := b.C
	bs := b.RowStride()
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Data[k*bs : k*bs+n]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
}

// MulT returns aᵀ*b without materializing the transpose.
func MulT(a, b *Dense) *Dense {
	return MulTWith(compute.Default(), nil, a, b)
}

// MulTWith computes aᵀ*b on engine e, borrowing the result from ws (nil
// ws allocates).
func MulTWith(e *compute.Engine, ws *compute.Workspace, a, b *Dense) *Dense {
	if a.R != b.R {
		panic("mat: MulT dimension mismatch")
	}
	out := GetDenseRaw(ws, a.C, b.C)
	mulTIntoWith(e, out, a, b)
	return out
}

// MulTIntoWith computes dst = aᵀ*b on engine e, reusing dst's storage
// (prior contents are overwritten; dst may come straight from a
// workspace or alias a caller-owned payload buffer). dst must be
// a.C×b.C and must not alias a or b.
func MulTIntoWith(e *compute.Engine, dst, a, b *Dense) {
	if a.R != b.R {
		panic("mat: MulTInto dimension mismatch")
	}
	if dst.R != a.C || dst.C != b.C {
		panic("mat: MulTInto output shape mismatch")
	}
	if overlaps(dst.Data, a.Data) || overlaps(dst.Data, b.Data) {
		panic("mat: MulTInto destination aliases an operand")
	}
	mulTIntoWith(e, dst, a, b)
}

func mulTIntoWith(e *compute.Engine, out, a, b *Dense) {
	if usePacked(a.C, a.R, b.C) {
		if skinnyShape(a.C, a.R, b.C) {
			skinnyGemm(e, denseView(out), denseView(a), true, denseView(b), gemmSet)
			return
		}
		gemmView(e, denseView(out), denseView(a), true, denseView(b), false, gemmSet)
		return
	}
	mulTRange(out, a, b, 0, a.C)
}

// mulTRange computes rows [lo,hi) of out = aᵀb. Row i of the output is
// Σ_k a[k][i] * b[k][:], streaming both a and b row-wise. The band's
// output rows are zeroed up front, so out need not be pre-zeroed.
func mulTRange(out, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	for k := 0; k < a.R; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			aki := arow[i]
			if aki == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bkj := range brow {
				orow[j] += aki * bkj
			}
		}
	}
}

// MulVec returns a*x for a vector x of length a.C.
func MulVec(a *Dense, x []float64) []float64 {
	if len(x) != a.C {
		panic("mat: MulVec dimension mismatch")
	}
	out := make([]float64, a.R)
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Gram returns mᵀm (C×C) if byCols, else m mᵀ (R×R). The result is
// symmetric positive semidefinite, with exact symmetry pinned by
// mirroring the upper triangle (the small-input paths compute only that
// triangle; the packed-GEMM path computes both and re-mirrors).
func Gram(m *Dense, byCols bool) *Dense {
	return GramWith(compute.Default(), nil, m, byCols)
}

// GramWith computes the Gram matrix on engine e, borrowing the result
// from ws (nil ws allocates).
func GramWith(e *compute.Engine, ws *compute.Workspace, m *Dense, byCols bool) *Dense {
	n := m.C
	if !byCols {
		n = m.R
	}
	out := GetDenseRaw(ws, n, n)
	GramIntoWith(e, out, m, byCols)
	return out
}

// GramIntoWith computes dst = mᵀm (byCols) or m mᵀ into dst, reusing
// dst's storage — for callers accumulating into a collective payload
// without an intermediate copy. dst must be square of the appropriate
// dimension and must not alias m.
func GramIntoWith(e *compute.Engine, dst *Dense, m *Dense, byCols bool) {
	n := m.C
	if !byCols {
		n = m.R
	}
	if dst.R != n || dst.C != n {
		panic("mat: GramInto output shape mismatch")
	}
	if overlaps(dst.Data, m.Data) {
		panic("mat: GramInto destination aliases the operand")
	}
	if byCols {
		gramColsInto(e, dst, m)
	} else {
		gramRowsInto(e, dst, m)
	}
}

func gramRowsInto(e *compute.Engine, out *Dense, m *Dense) {
	n := m.R
	if usePacked(n, m.C, n) {
		// m·mᵀ through the packed kernel; the transpose is absorbed by
		// the B-packing read. The product is symmetric by construction
		// (identical per-element accumulation order for (i,j) and (j,i)),
		// but the upper triangle is mirrored anyway to pin the exact
		// symmetry the eigensolver relies on.
		gemmView(e, denseView(out), denseView(m), false, denseView(m), true, gemmSet)
	} else {
		gramRowsRange(out, m, 0, n)
	}
	mirrorUpperToLower(out)
}

func gramRowsRange(out, m *Dense, lo, hi int) {
	n := m.R
	for i := lo; i < hi; i++ {
		ri := m.Row(i)
		for j := i; j < n; j++ {
			rj := m.Row(j)
			var s float64
			for k, v := range ri {
				s += v * rj[k]
			}
			out.Data[i*n+j] = s
		}
	}
}

func gramColsInto(e *compute.Engine, out *Dense, m *Dense) {
	// mᵀm through the skinny or packed kernel when large; the rank-1
	// accumulation below handles small inputs without packing overhead.
	n := m.C
	if usePacked(n, m.R, n) {
		if skinnyShape(n, m.R, n) {
			skinnyGemm(e, denseView(out), denseView(m), true, denseView(m), gemmSet)
		} else {
			gemmView(e, denseView(out), denseView(m), true, denseView(m), false, gemmSet)
		}
		mirrorUpperToLower(out)
		return
	}
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
	for k := 0; k < m.R; k++ {
		row := m.Row(k)
		for i := 0; i < n; i++ {
			ri := row[i]
			if ri == 0 {
				continue
			}
			orow := out.Row(i)
			for j := i; j < n; j++ {
				orow[j] += ri * row[j]
			}
		}
	}
	mirrorUpperToLower(out)
}

// mirrorUpperToLower copies the strict upper triangle of the square
// matrix out onto its lower triangle, pinning exact symmetry.
func mirrorUpperToLower(out *Dense) {
	n := out.C
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			out.Data[i*n+j] = out.Data[j*n+i]
		}
	}
}
