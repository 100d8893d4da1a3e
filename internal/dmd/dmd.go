// Package dmd implements exact Dynamic Mode Decomposition (Tu et al.,
// "On dynamic mode decomposition: theory and applications") plus the
// spectrum quantities (Eq. 9 and Eq. 10 of the paper) that the mrDMD
// layer and its frequency-isolation step are built on.
package dmd

import (
	"errors"
	"math"
	"math/cmplx"

	"imrdmd/internal/compute"
	"imrdmd/internal/eig"
	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
)

// Mode is one DMD eigentriple with its derived spectrum quantities.
type Mode struct {
	Phi    []complex128 // spatial mode, length P, column of Φ = YVΣ⁻¹W
	Lambda complex128   // discrete-time eigenvalue of Ã
	Psi    complex128   // continuous-time exponent ψ = ln(λ)/Δt
	Amp    complex128   // initial amplitude b from Φ b = x₁
	Freq   float64      // |Im ψ| / 2π, cycles per unit time (Eq. 9)
	Power  float64      // ‖φ‖₂² (Eq. 10)
}

// Options configures a decomposition.
type Options struct {
	// DT is the sampling interval of the snapshot columns.
	DT float64
	// Rank fixes the SVD truncation rank; 0 defers to SVHT (or full rank
	// if UseSVHT is false).
	Rank int
	// UseSVHT truncates at the Gavish–Donoho optimal hard threshold.
	UseSVHT bool
	// AmplitudeWindow bounds the Jovanović amplitude fit to the trailing
	// w snapshot columns: the Vandermonde, both Gram terms and the
	// snapshot GEMMs shrink from O(T) to O(w) while the eigenvalue powers
	// stay referenced to t=0, so the fitted b remains a t=0 amplitude.
	// 0 (the default) fits over the full history — bit-identical to the
	// pre-windowed pipeline.
	AmplitudeWindow int
	// Engine routes the parallel kernel sections; nil uses the shared
	// default pool.
	Engine *compute.Engine
	// Ws supplies pooled scratch buffers for the decomposition's
	// intermediates; nil allocates.
	Ws *compute.Workspace
}

// Decomposition is the result of exact DMD on a snapshot matrix.
type Decomposition struct {
	Modes []Mode
	P     int     // state dimension (rows)
	T     int     // snapshots used (columns)
	DT    float64 // sampling interval
	Rank  int     // SVD truncation rank actually used
}

// ErrTooFewSnapshots is returned when fewer than two snapshot columns are
// available.
var ErrTooFewSnapshots = errors.New("dmd: need at least 2 snapshot columns")

var errNonPositiveDT = errors.New("dmd: Options.DT must be positive")

// Compute runs exact DMD on data (P×T, columns are snapshots Δt apart).
//
// The fit runs in the space of the snapshot matrix's R factor. One
// R-only Householder QR gives D = Q·R with Q never formed; X = D[:, :T−1],
// Y = D[:, 1:] and the exact modes Φ all lie in range(Q), so
//   - X's Σ and V are those of R_X = R[:, :T−1], and its U is Q·U_R;
//   - Ã = Uᵀ·Y·V·Σ⁻¹ = U_Rᵀ·B with B = R[:, 1:]·V·Σ⁻¹;
//   - Φ = Q·Φ̃ with Φ̃ = B·W, so the amplitude fit's ΦᴴΦ and DᵀΦ equal
//     Φ̃ᴴΦ̃ and RᵀΦ̃: it runs on min(P,T) rows instead of P.
//
// Only Φ = Y·V·Σ⁻¹·W itself, which the modes carry, touches all P rows.
func Compute(data *mat.Dense, opts Options) (*Decomposition, error) {
	if opts.DT <= 0 {
		return nil, errNonPositiveDT
	}
	p, t := data.Dims()
	if t < 2 {
		return nil, ErrTooFewSnapshots
	}
	e, ws := opts.engine(), opts.Ws
	r := mat.QRRWith(ws, data) // min(p,t)×t
	s := svd.ComputeWith(e, ws, mat.ColsView(r, 0, t-1))
	// The SVHT aspect ratio is X's (p×(t−1)), not R_X's.
	tr := truncate(ws, s, p, t-1, opts)
	if tr == nil {
		mat.PutDense(ws, r)
		return &Decomposition{Modes: nil, P: p, T: t, DT: opts.DT, Rank: 0}, nil
	}
	b := mat.MulWith(e, ws, mat.ColsView(r, 1, t), tr.V) // min(p,t)×rank
	divCols(b, tr.S)
	atilde := mat.MulTWith(e, ws, tr.U, b) // rank×rank
	yvs := mat.MulWith(e, ws, mat.ColsView(data, 1, t), tr.V)
	divCols(yvs, tr.S)
	putTruncated(ws, tr, s)
	dec := finish(e, ws, atilde, yvs, b, r, p, t, opts)
	mat.PutDense(ws, b)
	mat.PutDense(ws, r)
	return dec, nil
}

// engine resolves the configured engine, defaulting to the shared pool.
func (o Options) engine() *compute.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return compute.Default()
}

// FromSVD finishes a DMD given the (possibly incrementally maintained)
// economy SVD of X = snapshots[:, :T-1]. This split is what lets I-mrDMD
// reuse the incremental SVD state at level 1. Amplitudes are fitted over
// all snapshots (Jovanović et al. optimal amplitudes), not just the first
// one — essential for mrDMD, where a poor slow-mode amplitude leaks error
// into every deeper level.
func FromSVD(s *svd.Result, snapshots *mat.Dense, opts Options) (*Decomposition, error) {
	if opts.DT <= 0 {
		return nil, errNonPositiveDT
	}
	p, t := snapshots.Dims()
	if t < 2 {
		return nil, ErrTooFewSnapshots
	}
	e, ws := opts.engine(), opts.Ws
	y := mat.ColsView(snapshots, 1, t) // zero-copy: every consumer is stride-aware
	tr := truncate(ws, s, s.U.R, s.V.R, opts)
	if tr == nil {
		return &Decomposition{Modes: nil, P: p, T: t, DT: opts.DT, Rank: 0}, nil
	}

	// Ã = Uᵀ Y V Σ⁻¹ (r×r).
	uty := mat.MulTWith(e, ws, tr.U, y)     // r×(t-1)
	atilde := mat.MulWith(e, ws, uty, tr.V) // r×r
	mat.PutDense(ws, uty)
	divCols(atilde, tr.S)
	yvs := mat.MulWith(e, ws, y, tr.V) // p×r
	divCols(yvs, tr.S)
	putTruncated(ws, tr, s)
	return finish(e, ws, atilde, yvs, nil, snapshots, p, t, opts), nil
}

// truncate picks the retained rank of s — the SVHT threshold at the
// aspect ratio of the m×n matrix s factors (which need not be the shape
// of s's own factors), then the fixed Rank cap — and returns s cut to
// that rank. A nil result means the singular spectrum is empty or all
// zero: there is nothing to fit.
func truncate(ws *compute.Workspace, s *svd.Result, m, n int, opts Options) *svd.Result {
	if s.Rank() == 0 || s.S[0] == 0 {
		return nil
	}
	rank := s.Rank()
	if opts.UseSVHT {
		rank = svd.SVHTRankWith(ws, s.S, m, n)
	}
	if opts.Rank > 0 && opts.Rank < rank {
		rank = opts.Rank
	}
	return s.TruncateWith(ws, max(min(rank, s.Rank()), 1))
}

// putTruncated returns the factors truncate borrowed to cut s to tr.
func putTruncated(ws *compute.Workspace, tr, s *svd.Result) {
	if tr != s {
		mat.PutDense(ws, tr.U)
		mat.PutDense(ws, tr.V)
	}
}

// divCols scales column j of m by 1/s[j] (right-multiplies by Σ⁻¹).
func divCols(m *mat.Dense, s []float64) {
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] /= s[j]
		}
	}
}

// finish is the tail Compute and FromSVD share: the eigendecomposition
// Ã·W = W·Λ (atilde is r×r and consumed), the exact modes
// Φ = (Y·V·Σ⁻¹)·W (yvs is p×r and consumed), the optimal amplitudes and
// the mode assembly. The amplitude fit runs on fitB·W against fitSnaps
// when fitB is non-nil — an image of Φ and the snapshots under the same
// isometry, on fewer rows — and on Φ against fitSnaps otherwise.
func finish(e *compute.Engine, ws *compute.Workspace, atilde, yvs, fitB, fitSnaps *mat.Dense, p, t int, opts Options) *Decomposition {
	rank := atilde.R
	vals, vecs := eig.NonsymmetricWith(ws, atilde) // clones atilde internally
	mat.PutDense(ws, atilde)
	cyvs := mat.ComplexWith(ws, yvs)
	mat.PutDense(ws, yvs)
	phi := mat.CMulWith(ws, cyvs, vecs) // p×r
	mat.PutCDense(ws, cyvs)
	var b []complex128
	if fitB != nil {
		cb := mat.ComplexWith(ws, fitB)
		phiFit := mat.CMulWith(ws, cb, vecs)
		mat.PutCDense(ws, cb)
		b = optimalAmplitudes(e, ws, phiFit, vals, fitSnaps, opts.AmplitudeWindow)
		mat.PutCDense(ws, phiFit)
	} else {
		b = optimalAmplitudes(e, ws, phi, vals, fitSnaps, opts.AmplitudeWindow)
	}
	mat.PutCDense(ws, vecs)

	modes := make([]Mode, 0, len(vals))
	for j, lam := range vals {
		col := make([]complex128, p)
		for i := 0; i < p; i++ {
			col[i] = phi.At(i, j)
		}
		psi := logLambda(lam, opts.DT)
		var pow float64
		for _, c := range col {
			pow += real(c)*real(c) + imag(c)*imag(c)
		}
		modes = append(modes, Mode{
			Phi:    col,
			Lambda: lam,
			Psi:    psi,
			Amp:    b[j],
			Freq:   math.Abs(imag(psi)) / (2 * math.Pi),
			Power:  pow,
		})
	}
	mat.PutCDense(ws, phi)
	return &Decomposition{Modes: modes, P: p, T: t, DT: opts.DT, Rank: rank}
}

// optimalAmplitudes solves min_b ‖X − Φ diag(b) V‖_F where V is the
// Vandermonde matrix V[i,k] = λᵢᵏ over all T snapshots (Jovanović,
// Schmid & Nichols, "Sparsity-promoting dynamic mode decomposition").
// The normal equations are
//
//	(ΦᴴΦ ∘ conj(V Vᴴ)) b = conj(diag(V Xᴴ Φ))
//
// with ∘ the Hadamard product; the system matrix is positive
// semidefinite by the Schur product theorem.
//
// win > 0 restricts the fit to the trailing win snapshot columns
// [t−win, t): the Vandermonde keeps its absolute powers λᵏ (so b stays a
// t=0 amplitude) but only the windowed columns enter V, G2 and the
// snapshot contraction, turning the per-refresh cost from O(T) to O(win).
// win ≤ 0 or win ≥ t fits the full history, bit-identical to the
// unwindowed code path.
func optimalAmplitudes(e *compute.Engine, ws *compute.Workspace, phi *mat.CDense, vals []complex128, snapshots *mat.Dense, win int) []complex128 {
	p, t := snapshots.Dims()
	r := len(vals)
	k0 := 0
	if win > 0 && win < t {
		k0 = t - win
	}
	tw := t - k0
	// Vandermonde V (r×tw): powers λᵏ for k in [k0, t) of the discrete
	// eigenvalues. The power recurrence always starts at k=0 with its
	// magnitude clamp (so explosive spurious eigenvalues cannot overflow
	// and the windowed trajectory matches the full one bit for bit); only
	// the windowed columns are stored.
	vand := mat.GetCDense(ws, r, tw)
	for i, lam := range vals {
		w := complex(1, 0)
		for k := 0; k < t; k++ {
			if k >= k0 {
				vand.Set(i, k-k0, w)
			}
			w *= lam
			if a := real(w)*real(w) + imag(w)*imag(w); a > 1e300 {
				w = w / complex(math.Sqrt(a), 0) * complex(1e150, 0)
			}
		}
	}
	// G1 = ΦᴴΦ (r×r), G2 = V Vᴴ (r×r).
	g1 := mat.GetCDense(ws, r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			var s complex128
			for k := 0; k < p; k++ {
				s += cmplx.Conj(phi.At(k, i)) * phi.At(k, j)
			}
			g1.Set(i, j, s)
		}
	}
	g2 := mat.GetCDense(ws, r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			var s complex128
			for k := 0; k < tw; k++ {
				s += vand.At(i, k) * cmplx.Conj(vand.At(j, k))
			}
			g2.Set(i, j, s)
		}
	}
	// System matrix P = G1 ∘ conj(G2); rhs q = conj(diag(V Xᴴ Φ)).
	sys := mat.GetCDense(ws, r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			sys.Set(i, j, g1.At(i, j)*cmplx.Conj(g2.At(i, j)))
		}
	}
	// rhs q = conj(diag(V Xᴴ Φ)): the inner factor XᵀΦ (t×r) is computed
	// on Φ's real and imaginary planes with two real GEMMs — X is real so
	// the planes never mix, and the p×t×r contraction rides the tall-skinny
	// kernels instead of an O(r·t·p) scalar triple loop.
	phiRe := mat.GetDenseRaw(ws, p, r)
	phiIm := mat.GetDenseRaw(ws, p, r)
	for i := 0; i < p; i++ {
		reRow, imRow := phiRe.Row(i), phiIm.Row(i)
		for j := 0; j < r; j++ {
			v := phi.At(i, j)
			reRow[j] = real(v)
			imRow[j] = imag(v)
		}
	}
	snapWin := mat.ColsView(snapshots, k0, t)     // p×tw, zero-copy
	xphiRe := mat.MulTWith(e, ws, snapWin, phiRe) // tw×r
	xphiIm := mat.MulTWith(e, ws, snapWin, phiIm) // tw×r
	mat.PutDense(ws, phiRe)
	mat.PutDense(ws, phiIm)
	q := make([]complex128, r)
	for i := 0; i < r; i++ {
		// (V Xᴴ Φ)[i,i] = Σ_k V[i,k] · (XᵀΦ)[k,i]
		var s complex128
		for k := 0; k < tw; k++ {
			s += vand.At(i, k) * complex(xphiRe.At(k, i), xphiIm.At(k, i))
		}
		q[i] = cmplx.Conj(s)
	}
	mat.PutDense(ws, xphiRe)
	mat.PutDense(ws, xphiIm)
	// Tikhonov-style jitter keeps the solve stable when modes coincide.
	var trace float64
	for i := 0; i < r; i++ {
		trace += cmplx.Abs(sys.At(i, i))
	}
	jitter := complex(1e-12*(trace/float64(r)+1), 0)
	for i := 0; i < r; i++ {
		sys.Set(i, i, sys.At(i, i)+jitter)
	}
	b := mat.CLUFactorInPlace(sys).Solve(q) // consumes sys's storage
	if k0 > 0 {
		// A mode that has decayed away before the window opens leaves
		// (almost) no mass in V's row: its normal-equation row is tiny and
		// the solve returns noise scaled by 1/λᵏ⁰ — an estimate that blows
		// up any reconstruction at early times (a mode with 3% of its
		// envelope left amplifies the fit noise ~30×). Below the mass
		// floor, the window simply carries too little signal to reference
		// the mode back to t=0, and reporting it absent is strictly more
		// accurate than reporting the amplified noise.
		var maxScale float64
		scales := make([]float64, r)
		for i := 0; i < r; i++ {
			var s float64
			for k := 0; k < tw; k++ {
				if a := cmplx.Abs(vand.At(i, k)); a > s {
					s = a
				}
			}
			scales[i] = s
			if s > maxScale {
				maxScale = s
			}
		}
		for i := 0; i < r; i++ {
			if scales[i] <= ampWindowMassFloor*maxScale {
				b[i] = 0
			}
		}
	}
	mat.PutCDense(ws, vand)
	mat.PutCDense(ws, g1)
	mat.PutCDense(ws, g2)
	mat.PutCDense(ws, sys)
	return b
}

// logLambda computes ψ = ln(λ)/Δt with a floor on |λ| so that numerically
// dead modes (λ≈0, i.e. fully damped within one step) yield a very
// negative but finite growth rate instead of -Inf.
func logLambda(lam complex128, dt float64) complex128 {
	const floor = 1e-300
	if cmplx.Abs(lam) < floor {
		lam = complex(floor, 0)
	}
	return cmplx.Log(lam) / complex(dt, 0)
}

// Reconstruct evaluates the DMD model x(t) = Σ φᵢ e^{ψᵢ t} bᵢ (Eq. 6) at
// the given times (in the same units as DT), returning a real P×len(times)
// matrix (imaginary parts cancel up to roundoff for real data and are
// discarded).
func (d *Decomposition) Reconstruct(times []float64) *mat.Dense {
	return ReconstructModes(d.Modes, d.P, times)
}

// ReconstructModes evaluates a subset of modes at the given times.
func ReconstructModes(modes []Mode, p int, times []float64) *mat.Dense {
	out := mat.NewDense(p, len(times))
	reconstructInto(out, modes, times)
	return out
}

// ReconstructModesInto evaluates modes at the given times into out
// (p×len(times)), overwriting its contents — the allocation-free variant
// for pooled reconstruction scratch.
func ReconstructModesInto(out *mat.Dense, modes []Mode, times []float64) {
	ReconstructModesIntoWith(nil, nil, out, modes, times)
}

// ampWindowMassFloor is the windowed amplitude fit's relative mass floor:
// a mode whose |λᵏ| envelope over the fit window peaks below this fraction
// of the dominant mode's is reported with amplitude 0. The floor caps the
// 1/λᵏ⁰ noise amplification of referencing trailing-window information
// back to t=0 at ~1/floor; modes above it keep their (documented, at worst
// floor⁻¹-noise-amplified) estimates.
const ampWindowMassFloor = 0.05

// reconGemmMin is the r·t·p volume above which reconstruction goes
// through the GEMM form instead of the scalar triple loop: below it the
// plane setup costs more than the loop saves.
const reconGemmMin = 4096

// ReconGemmForm reports which evaluation form ReconstructModesIntoWith
// would pick for a p×t reconstruction of r modes: true for the two-GEMM
// plane form, false for the scalar triple loop. The two forms agree only
// to roundoff, so callers that evaluate a span incrementally (the O(Δ)
// slow-grid cache) must pin the form the full-width evaluation would use.
// Pinning the form is not enough on its own: the plane GEMMs themselves
// route by width (see ReconRouteCols).
func ReconGemmForm(p, t, r int) bool { return r*t*p >= reconGemmMin }

// ReconRouteCols returns the narrowest span an evaluation pinned to the
// form ReconGemmForm(p, t, r) picks must cover to run the kernels the
// t-column evaluation runs: mat.PackedCols(p, r) when that evaluation's
// plane GEMMs take mat's packed route, else 1. Both forms accumulate each
// output column independently and in the same order within one kernel
// route, so evaluations of any two spans agreeing in ReconGemmForm and
// ReconRouteCols are bit-identical column for column, and a caller
// extending a span evaluates at least this many trailing columns.
func ReconRouteCols(p, t, r int) int {
	if n := mat.PackedCols(p, r); ReconGemmForm(p, t, r) && t >= n {
		return n
	}
	return 1
}

// ReconstructModesIntoWith is ReconstructModesInto with the evaluation
// GEMMs routed through engine e and scratch borrowed from ws (both may be
// nil). For non-trivial mode sets the evaluation runs as two real GEMMs,
// Re(X̂) = Re(Φ)·Re(W) − Im(Φ)·Im(W) with W[j,k] = e^{ψⱼtₖ}bⱼ — X is
// real, so the planes never mix — which lands on the tall-skinny kernel
// tier for the streaming residual shapes (p×r times r×t with r small).
func ReconstructModesIntoWith(e *compute.Engine, ws *compute.Workspace, out *mat.Dense, modes []Mode, times []float64) {
	ReconstructModesIntoFormWith(e, ws, out, modes, times,
		ReconGemmForm(out.R, len(times), len(modes)))
}

// ReconstructModesIntoFormWith is ReconstructModesIntoWith with the
// evaluation form pinned by the caller instead of derived from the output
// volume — the contract the incremental slow-grid extension relies on to
// stay bit-identical to a from-scratch full-width evaluation.
func ReconstructModesIntoFormWith(e *compute.Engine, ws *compute.Workspace, out *mat.Dense, modes []Mode, times []float64, gemm bool) {
	if out.C != len(times) {
		panic("dmd: ReconstructModesInto shape mismatch")
	}
	p, t := out.R, len(times)
	if gemm && len(modes) > 0 && t > 0 && p > 0 {
		reconstructGemm(e, ws, out, modes, times)
		return
	}
	s := out.RowStride()
	for i := 0; i < p; i++ {
		row := out.Data[i*s : i*s+t]
		for k := range row {
			row[k] = 0
		}
	}
	reconstructInto(out, modes, times)
}

func reconstructInto(out *mat.Dense, modes []Mode, times []float64) {
	p, s := out.R, out.RowStride()
	for _, m := range modes {
		for k, t := range times {
			w := expPsiT(m.Psi, t) * m.Amp
			if w == 0 {
				continue
			}
			for i := 0; i < p; i++ {
				out.Data[i*s+k] += real(m.Phi[i] * w)
			}
		}
	}
}

// reconPlanes splits Φ and the time-weight matrix W[j,k] = e^{ψⱼtₖ}bⱼ
// into real/imaginary plane matrices for the GEMM evaluation forms.
func reconPlanes(ws *compute.Workspace, p int, modes []Mode, times []float64) (phiRe, phiIm, wRe, wIm *mat.Dense) {
	t, r := len(times), len(modes)
	phiRe = mat.GetDenseRaw(ws, p, r)
	phiIm = mat.GetDenseRaw(ws, p, r)
	for i := 0; i < p; i++ {
		rre, rim := phiRe.Row(i), phiIm.Row(i)
		for j := range modes {
			v := modes[j].Phi[i]
			rre[j], rim[j] = real(v), imag(v)
		}
	}
	wRe = mat.GetDenseRaw(ws, r, t)
	wIm = mat.GetDenseRaw(ws, r, t)
	for j := range modes {
		m := &modes[j]
		wre, wim := wRe.Row(j), wIm.Row(j)
		for k, tk := range times {
			w := expPsiT(m.Psi, tk) * m.Amp
			wre[k], wim[k] = real(w), imag(w)
		}
	}
	return phiRe, phiIm, wRe, wIm
}

func putReconPlanes(ws *compute.Workspace, phiRe, phiIm, wRe, wIm *mat.Dense) {
	mat.PutDense(ws, wIm)
	mat.PutDense(ws, wRe)
	mat.PutDense(ws, phiIm)
	mat.PutDense(ws, phiRe)
}

// reconstructGemm evaluates the mode sum as two real GEMMs over the
// real/imaginary planes of Φ and the time-weight matrix W.
func reconstructGemm(e *compute.Engine, ws *compute.Workspace, out *mat.Dense, modes []Mode, times []float64) {
	phiRe, phiIm, wRe, wIm := reconPlanes(ws, out.R, modes, times)
	mat.MulIntoWith(e, out, phiRe, wRe)
	tmp := mat.MulWith(e, ws, phiIm, wIm)
	mat.SubInPlace(out, tmp)
	mat.PutDense(ws, tmp)
	putReconPlanes(ws, phiRe, phiIm, wRe, wIm)
}

// AddReconstructionWith accumulates the mode-sum evaluation into dst
// (dst += X̂) without materializing X̂: the two plane GEMMs run in
// accumulate mode straight into dst. dst may be a column view.
func AddReconstructionWith(e *compute.Engine, ws *compute.Workspace, dst *mat.Dense, modes []Mode, times []float64) {
	accumReconstruction(e, ws, dst, modes, times, 1)
}

// SubReconstructionWith subtracts the mode-sum evaluation from dst
// (dst -= X̂) — the residual flip of the mrDMD recursion, fused so the
// window buffer is the only p×t matrix touched.
func SubReconstructionWith(e *compute.Engine, ws *compute.Workspace, dst *mat.Dense, modes []Mode, times []float64) {
	accumReconstruction(e, ws, dst, modes, times, -1)
}

func accumReconstruction(e *compute.Engine, ws *compute.Workspace, dst *mat.Dense, modes []Mode, times []float64, sign float64) {
	if dst.C != len(times) {
		panic("dmd: reconstruction accumulate shape mismatch")
	}
	p, t, r := dst.R, len(times), len(modes)
	if r == 0 || t == 0 || p == 0 {
		return
	}
	if r*t*p >= reconGemmMin {
		phiRe, phiIm, wRe, wIm := reconPlanes(ws, p, modes, times)
		if sign > 0 {
			mat.MulAddIntoWith(e, dst, phiRe, wRe)
			mat.MulSubIntoWith(e, dst, phiIm, wIm)
		} else {
			mat.MulSubIntoWith(e, dst, phiRe, wRe)
			mat.MulAddIntoWith(e, dst, phiIm, wIm)
		}
		putReconPlanes(ws, phiRe, phiIm, wRe, wIm)
		return
	}
	s := dst.RowStride()
	for j := range modes {
		m := &modes[j]
		for k, tk := range times {
			w := expPsiT(m.Psi, tk) * m.Amp * complex(sign, 0)
			if w == 0 {
				continue
			}
			for i := 0; i < p; i++ {
				dst.Data[i*s+k] += real(m.Phi[i] * w)
			}
		}
	}
}

// expPsiT computes e^{ψt} with the real exponent clamped so growing modes
// cannot overflow to +Inf when extrapolated across a long window.
func expPsiT(psi complex128, t float64) complex128 {
	re := real(psi) * t
	if re > 700 {
		re = 700
	}
	if re < -700 {
		return 0
	}
	im := imag(psi) * t
	return cmplx.Exp(complex(re, im))
}

// SlowModes partitions modes by the mrDMD slow-mode criterion
// |ψ|/(2π) ≤ rho (cycles per unit time), following the reference mrDMD
// implementation which applies the modulus of the full complex exponent
// so that fast-growing modes also count as "fast".
func SlowModes(modes []Mode, rho float64) (slow, fast []Mode) {
	for _, m := range modes {
		if cmplx.Abs(m.Psi)/(2*math.Pi) <= rho {
			slow = append(slow, m)
		} else {
			fast = append(fast, m)
		}
	}
	return slow, fast
}

// SpectrumPoint is one (frequency, power, amplitude) sample of the DMD /
// mrDMD spectrum used for frequency isolation (paper §III-A2, Fig. 5/7).
type SpectrumPoint struct {
	Freq  float64 // cycles per unit time (Eq. 9)
	Power float64 // ‖φ‖² (Eq. 10)
	Amp   float64 // |b|, the plotted "mode amplitude"
	Grow  float64 // Re ψ: positive = growing, negative = decaying
	Level int     // mrDMD level the mode came from (0 for plain DMD)
}

// Spectrum returns the spectrum points of a decomposition.
func (d *Decomposition) Spectrum() []SpectrumPoint {
	pts := make([]SpectrumPoint, 0, len(d.Modes))
	for _, m := range d.Modes {
		pts = append(pts, SpectrumPoint{
			Freq:  m.Freq,
			Power: m.Power,
			Amp:   cmplx.Abs(m.Amp),
			Grow:  real(m.Psi),
		})
	}
	return pts
}

// FilterBand keeps spectrum points with Freq in [lo, hi].
func FilterBand(pts []SpectrumPoint, lo, hi float64) []SpectrumPoint {
	out := pts[:0:0]
	for _, p := range pts {
		if p.Freq >= lo && p.Freq <= hi {
			out = append(out, p)
		}
	}
	return out
}
