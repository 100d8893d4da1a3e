package mat

import (
	"math"

	"imrdmd/internal/compute"
)

// QR holds a thin (economy) QR factorization A = Q R with Q m×n
// column-orthonormal and R n×n upper triangular, for m ≥ n.
type QR struct {
	Q *Dense
	R *Dense
}

// qrPanel is the blocked-QR panel width: columns are factored panel by
// panel, and each panel is orthogonalized against all previous columns
// with two GEMM passes (the trailing-matrix update) before the
// column-by-column MGS runs inside the panel. 32 keeps the panel (32
// contiguous rows of the transposed working copy) L1-resident for typical
// row counts while giving the trailing update tall-enough GEMM operands.
const qrPanel = 32

// QRFactor computes the thin QR factorization of a (m×n, m ≥ n) by
// blocked modified Gram–Schmidt with re-orthogonalization. Panels of
// qrPanel columns are first orthogonalized against the already-factored
// columns via the packed GEMM (two passes — block CGS2, numerically
// comparable to Householder for the well- to moderately-conditioned
// matrices this package sees), then factored internally by two-pass MGS.
// Q stays explicit, which the incremental-SVD layer needs.
func QRFactor(a *Dense) *QR {
	return QRFactorOn(compute.Default(), nil, a)
}

// QRFactorWith is QRFactor with Q and R borrowed from ws (nil ws
// allocates). Return both factors with PutDense (or qr.Release) when the
// factorization is no longer needed.
func QRFactorWith(ws *compute.Workspace, a *Dense) *QR {
	return QRFactorOn(compute.Default(), ws, a)
}

// QRFactorOn is QRFactorWith with the trailing-matrix GEMM updates routed
// through engine e (nil e runs them serially).
//
// The factorization works on the transpose of a: columns become
// contiguous rows, so every dot product, axpy and norm in the panel
// streams unit-stride, and the trailing update is a pair of view-GEMMs
// over row blocks. The result is transposed back into Q at the end.
func QRFactorOn(e *compute.Engine, ws *compute.Workspace, a *Dense) *QR {
	m, n := a.R, a.C
	if m < n {
		panic("mat: QRFactor requires rows >= cols")
	}
	if n <= qrSmallMax {
		return qrSmall(ws, a)
	}
	return qrBlocked(e, ws, a)
}

// qrBlocked is the general transposed blocked-CGS2/MGS2 path.
func qrBlocked(e *compute.Engine, ws *compute.Workspace, a *Dense) *QR {
	n := a.C
	qt := TWith(ws, a) // n×m: row j is column j of a
	r := GetDense(ws, n, n)
	for j0 := 0; j0 < n; j0 += qrPanel {
		j1 := min(j0+qrPanel, n)
		if j0 > 0 {
			// Orthogonalize the panel against all previous columns: two
			// block passes (CGS2). S = Qprevᵀ·P is qtLeft·qtPanelᵀ in the
			// transposed layout; the corrections accumulate into R and the
			// panel update P −= Qprev·S is a GEMM in sub mode.
			for pass := 0; pass < 2; pass++ {
				s := GetDenseRaw(ws, j0, j1-j0)
				gemmView(e, denseView(s), rowsView(qt, 0, j0), false, rowsView(qt, j0, j1), true, gemmSet)
				for i := 0; i < j0; i++ {
					srow := s.Row(i)
					rrow := r.Row(i)
					for jj, v := range srow {
						rrow[j0+jj] += v
					}
				}
				gemmView(e, rowsView(qt, j0, j1), denseView(s), true, rowsView(qt, 0, j0), false, gemmSub)
				PutDense(ws, s)
			}
		}
		// Two MGS passes inside the panel; the second pass
		// re-orthogonalizes and its corrections accumulate into R.
		for j := j0; j < j1; j++ {
			for pass := 0; pass < 2; pass++ {
				for i := j0; i < j; i++ {
					dot := rowDot(qt, i, j)
					r.Data[i*n+j] += dot
					rowAxpy(qt, -dot, i, j)
				}
			}
			nrm := rowNorm(qt, j)
			r.Data[j*n+j] = nrm
			if nrm > 0 {
				rowScale(qt, j, 1/nrm)
			}
		}
	}
	q := TWith(ws, qt)
	PutDense(ws, qt)
	return &QR{Q: q, R: r}
}

// QRRWith returns the R factor of a Householder QR of a (m×n, any shape)
// in a min(m,n)×n matrix borrowed from ws: upper triangular for m ≥ n,
// upper trapezoidal for m < n, with RᵀR = AᵀA. Q is never formed. The
// window DMD needs only R — every quantity it derives lies in a's column
// space — so this costs about 2mn² flops against QRFactorOn's 4mn² plus
// its Q transpose. Return R with PutDense.
//
// The reflectors run on a transposed copy of a, so each column is a
// contiguous row and every dot and axpy streams unit-stride. Diagonal
// entries of R may be negative; |R[j,j]| equals QRFactor's R[j,j] up to
// roundoff for full-rank a.
func QRRWith(ws *compute.Workspace, a *Dense) *Dense {
	m, n := a.R, a.C
	k := min(m, n)
	at := TWith(ws, a) // n×m: row j is column j of a
	for c := 0; c < k; c++ {
		// Reflector H = I − τ·v·vᵀ with v = [1; x[1:]] mapping x to
		// [β; 0] (LAPACK dlarfg); x[1:] is overwritten by v's tail.
		x := at.Row(c)[c:]
		tail := x[1:]
		xn := math.Sqrt(dot4(tail, tail))
		if xn == 0 {
			continue // column already upper triangular: H = I
		}
		alpha := x[0]
		beta := -math.Copysign(math.Hypot(alpha, xn), alpha)
		tau := (beta - alpha) / beta
		sc := 1 / (alpha - beta)
		for i := range tail {
			tail[i] *= sc
		}
		x[0] = beta
		// Trailing columns go through in pairs: one pass over v serves
		// both dots, one more both updates, halving v's loads.
		j := c + 1
		for ; j+2 <= n; j += 2 {
			y0, y1 := at.Row(j)[c:], at.Row(j + 1)[c:]
			y0t, y1t := y0[1:len(x)], y1[1:len(x)]
			var d0, d1 float64
			for i, v := range tail {
				d0 += v * y0t[i]
				d1 += v * y1t[i]
			}
			w0, w1 := tau*(y0[0]+d0), tau*(y1[0]+d1)
			y0[0] -= w0
			y1[0] -= w1
			for i, v := range tail {
				y0t[i] -= w0 * v
				y1t[i] -= w1 * v
			}
		}
		if j < n {
			y := at.Row(j)[c:]
			yt := y[1:len(x)]
			w := tau * (y[0] + dot4(tail, yt))
			y[0] -= w
			for i, v := range tail {
				yt[i] -= w * v
			}
		}
	}
	r := GetDense(ws, k, n)
	for j := 0; j < n; j++ {
		col := at.Row(j)
		for i := 0; i <= j && i < k; i++ {
			r.Data[i*n+j] = col[i]
		}
	}
	PutDense(ws, at)
	return r
}

// Release returns both factors' storage to ws.
func (qr *QR) Release(ws *compute.Workspace) {
	PutDense(ws, qr.Q)
	PutDense(ws, qr.R)
}

// qrSmallMax is the column bound under which QRFactorOn takes the fused
// small-panel path: the whole matrix is at most qrSmallMax columns wide
// (the streaming update's residual blocks are m×w with w ≤ 8), so it is
// cache-resident and the general path's transpose round trip costs more
// than the factorization itself.
const qrSmallMax = 16

// qrSmall factors a ≤ qrSmallMax-column matrix by two-pass MGS directly
// on the columns of one working copy — no transposes, no panel logic.
// The dot/axpy/norm loops visit elements in exactly the same index order
// as the transposed general path, so for n ≤ qrPanel the two paths
// produce bit-identical factors (qr_test.go pins this).
func qrSmall(ws *compute.Workspace, a *Dense) *QR {
	n := a.C
	q := CloneWith(ws, a)
	r := GetDense(ws, n, n)
	for j := 0; j < n; j++ {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < j; i++ {
				dot := colDot(q, i, j)
				r.Data[i*n+j] += dot
				colAxpy(q, -dot, i, j)
			}
		}
		nrm := colNorm(q, j)
		r.Data[j*n+j] = nrm
		if nrm > 0 {
			colScale(q, j, 1/nrm)
		}
	}
	return &QR{Q: q, R: r}
}

// colDot returns column i · column j of m. The 4-lane accumulator
// round-robin breaks the loop-carried dependency chain; rowDot uses the
// identical lane assignment and reduction so the small and blocked QR
// paths keep producing bit-identical factors.
func colDot(m *Dense, i, j int) float64 {
	s := m.RowStride()
	var a0, a1, a2, a3 float64
	r := 0
	for ; r+4 <= m.R; r += 4 {
		a0 += m.Data[r*s+i] * m.Data[r*s+j]
		a1 += m.Data[(r+1)*s+i] * m.Data[(r+1)*s+j]
		a2 += m.Data[(r+2)*s+i] * m.Data[(r+2)*s+j]
		a3 += m.Data[(r+3)*s+i] * m.Data[(r+3)*s+j]
	}
	switch m.R - r {
	case 3:
		a2 += m.Data[(r+2)*s+i] * m.Data[(r+2)*s+j]
		fallthrough
	case 2:
		a1 += m.Data[(r+1)*s+i] * m.Data[(r+1)*s+j]
		fallthrough
	case 1:
		a0 += m.Data[r*s+i] * m.Data[r*s+j]
	}
	return (a0 + a1) + (a2 + a3)
}

// colAxpy does column j += alpha * column i.
func colAxpy(m *Dense, alpha float64, i, j int) {
	s := m.RowStride()
	for r := 0; r < m.R; r++ {
		m.Data[r*s+j] += alpha * m.Data[r*s+i]
	}
}

func colNorm(m *Dense, j int) float64 {
	s := m.RowStride()
	var d float64
	for r := 0; r < m.R; r++ {
		v := m.Data[r*s+j]
		d += v * v
	}
	return math.Sqrt(d)
}

func colScale(m *Dense, j int, sc float64) {
	s := m.RowStride()
	for r := 0; r < m.R; r++ {
		m.Data[r*s+j] *= sc
	}
}

// rowDot returns row i · row j of m (contiguous). Lane structure matches
// colDot exactly — see the note there.
func rowDot(m *Dense, i, j int) float64 {
	return dot4(m.Row(i), m.Row(j))
}

// dot4 returns ri · rj (len(rj) ≥ len(ri)) with colDot's four-lane
// accumulator assignment and reduction.
func dot4(ri, rj []float64) float64 {
	rj = rj[:len(ri)]
	var a0, a1, a2, a3 float64
	k := 0
	for ; k+4 <= len(ri); k += 4 {
		a0 += ri[k] * rj[k]
		a1 += ri[k+1] * rj[k+1]
		a2 += ri[k+2] * rj[k+2]
		a3 += ri[k+3] * rj[k+3]
	}
	switch len(ri) - k {
	case 3:
		a2 += ri[k+2] * rj[k+2]
		fallthrough
	case 2:
		a1 += ri[k+1] * rj[k+1]
		fallthrough
	case 1:
		a0 += ri[k] * rj[k]
	}
	return (a0 + a1) + (a2 + a3)
}

// rowAxpy does row j += alpha * row i.
func rowAxpy(m *Dense, alpha float64, i, j int) {
	ri := m.Row(i)
	rj := m.Row(j)
	for k, v := range ri {
		rj[k] += alpha * v
	}
}

func rowNorm(m *Dense, j int) float64 {
	var s float64
	for _, v := range m.Row(j) {
		s += v * v
	}
	return math.Sqrt(s)
}

func rowScale(m *Dense, j int, s float64) {
	rj := m.Row(j)
	for k := range rj {
		rj[k] *= s
	}
}

// SolveUpper solves R x = b for upper-triangular R (n×n). Zero (or tiny)
// pivots are treated as rank deficiencies: the corresponding solution
// component is set to zero, giving a basic least-norm-flavored solution
// rather than NaNs.
func SolveUpper(r *Dense, b []float64) []float64 {
	n := r.R
	x := make([]float64, n)
	tol := 1e-13 * r.MaxAbs()
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := r.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if math.Abs(row[i]) <= tol {
			x[i] = 0
			continue
		}
		x[i] = s / row[i]
	}
	return x
}

// LstSq solves min ‖Ax − b‖₂ via thin QR: x = R⁻¹ Qᵀ b. A must have
// rows ≥ cols.
func LstSq(a *Dense, b []float64) []float64 {
	if len(b) != a.R {
		panic("mat: LstSq dimension mismatch")
	}
	qr := QRFactor(a)
	// qtb = Qᵀ b
	qtb := make([]float64, a.C)
	for j := 0; j < a.C; j++ {
		var s float64
		for i := 0; i < a.R; i++ {
			s += qr.Q.Data[i*a.C+j] * b[i]
		}
		qtb[j] = s
	}
	return SolveUpper(qr.R, qtb)
}
