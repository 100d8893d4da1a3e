package dmd

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
	"imrdmd/internal/telemetry"
)

// referenceCompute is the window DMD before it moved into R-space: the
// SVD of X = data[:, :T−1] on all P rows, finished by FromSVD.
func referenceCompute(t *testing.T, data *mat.Dense, opts Options) *Decomposition {
	t.Helper()
	x := mat.ColSliceWith(nil, data, 0, data.C-1)
	dec, err := FromSVD(svd.ComputeWith(opts.engine(), nil, x), data, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// matchModes pairs every mode of got with a distinct mode of want by
// nearest eigenvalue (greedy over the closest remaining pair), returning
// want's index for each of got's modes.
func matchModes(got, want []Mode) []int {
	match := make([]int, len(got))
	usedG := make([]bool, len(got))
	usedW := make([]bool, len(want))
	for range got {
		bi, bj, best := -1, -1, math.Inf(1)
		for i, g := range got {
			if usedG[i] {
				continue
			}
			for j, w := range want {
				if !usedW[j] {
					if d := cmplx.Abs(g.Lambda - w.Lambda); d < best {
						bi, bj, best = i, j, d
					}
				}
			}
		}
		usedG[bi], usedW[bj] = true, true
		match[bi] = bj
	}
	return match
}

// gauge returns the unit phase u with g.Phi ≈ u·w.Phi (rows of g.Phi
// read through perm when it is non-nil): an eigenvector is fixed only up
// to such a factor, which moves into the amplitude as b/u, so
// u·g.Amp is the amplitude to compare with w.Amp. It also returns
// ‖g.Phi − u·w.Phi‖ / ‖w.Phi‖.
func gauge(g, w Mode, perm []int) (u complex128, gap float64) {
	row := func(i int) int {
		if perm == nil {
			return i
		}
		return perm[i]
	}
	var ip complex128
	for i, v := range g.Phi {
		ip += cmplx.Conj(w.Phi[row(i)]) * v
	}
	u = ip / complex(cmplx.Abs(ip), 0)
	var diff, norm float64
	for i, v := range g.Phi {
		wv := w.Phi[row(i)]
		diff += sq(cmplx.Abs(v - u*wv))
		norm += sq(cmplx.Abs(wv))
	}
	return u, math.Sqrt(diff / norm)
}

func windowTimes(t int, dt float64) []float64 {
	times := make([]float64, t)
	for k := range times {
		times[k] = float64(k) * dt
	}
	return times
}

// relFrob returns ‖a − b‖_F / ‖b‖_F.
func relFrob(a, b *mat.Dense) float64 {
	return mat.Sub(a, b).FrobNorm() / b.FrobNorm()
}

// checkEquivalent asserts got and want are the same decomposition up to
// roundoff: same rank and mode count, eigenvalues paired within lamTol
// relative, amplitudes of every mode above 1e-6 of the largest within
// ampTol relative, and reconstructions over the window within reconTol
// relative. Frequency is compared only through λ — a real eigenvalue
// carries a roundoff-level imaginary part.
func checkEquivalent(t *testing.T, got, want *Decomposition, data *mat.Dense, lamTol, ampTol, reconTol float64) {
	t.Helper()
	if got.Rank != want.Rank || len(got.Modes) != len(want.Modes) {
		t.Fatalf("rank %d (%d modes), want %d (%d modes)", got.Rank, len(got.Modes), want.Rank, len(want.Modes))
	}
	var maxAmp float64
	for _, m := range want.Modes {
		maxAmp = math.Max(maxAmp, cmplx.Abs(m.Amp))
	}
	for i, j := range matchModes(got.Modes, want.Modes) {
		g, w := got.Modes[i], want.Modes[j]
		if d := cmplx.Abs(g.Lambda - w.Lambda); d > lamTol*cmplx.Abs(w.Lambda) {
			t.Errorf("λ %v vs %v: relative gap %.3g > %g", g.Lambda, w.Lambda, d/cmplx.Abs(w.Lambda), lamTol)
		}
		if a := cmplx.Abs(w.Amp); a > 1e-6*maxAmp {
			u, _ := gauge(g, w, nil)
			if d := cmplx.Abs(u*g.Amp - w.Amp); d > ampTol*a {
				t.Errorf("λ %v: amplitude %v vs %v: relative gap %.3g > %g", w.Lambda, u*g.Amp, w.Amp, d/a, ampTol)
			}
		}
	}
	times := windowTimes(data.C, got.DT)
	if e := relFrob(got.Reconstruct(times), want.Reconstruct(times)); e > reconTol {
		t.Errorf("reconstructions differ by %.3g relative > %g", e, reconTol)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestComputeMatchesReference pins the R-space Compute against the
// reference P-row route on the window shapes mrDMD produces (SC Log and
// GPU telemetry, 200 sensors × 13/17/25 subsampled columns), a wide
// window (fewer sensors than snapshots) and a square one.
func TestComputeMatchesReference(t *testing.T) {
	type tcase struct {
		name string
		data *mat.Dense
		dt   float64
	}
	var cases []tcase
	for _, prof := range []telemetry.Profile{telemetry.ThetaEnv(), telemetry.PolarisGPU()} {
		for i, w := range windowShapes {
			data, dt := telemetryWindow(prof, 200, w, 8, int64(11+i))
			cases = append(cases, tcase{fmt.Sprintf("%s/200x%d", prof.Name, w), data, dt})
		}
	}
	wide, dt := telemetryWindow(telemetry.PolarisGPU(), 20, 120, 2, 17)
	cases = append(cases, tcase{"wide/20x120", wide, dt})
	rng := rand.New(rand.NewSource(19))
	square, _ := linearSystem(rng, 40, 40, []float64{0.05, 0.12, 0.2}, []float64{-0.01, -0.02, 0}, 1)
	for i := range square.Data {
		square.Data[i] += 1e-3 * rng.NormFloat64()
	}
	cases = append(cases, tcase{"square/40x40", square, 1})

	for _, c := range cases {
		for _, svht := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/svht=%v", c.name, svht), func(t *testing.T) {
				opts := Options{DT: c.dt, UseSVHT: svht, Ws: compute.NewWorkspace()}
				got, err := Compute(c.data, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Modes) == 0 {
					t.Fatal("no modes")
				}
				checkEquivalent(t, got, referenceCompute(t, c.data, opts), c.data, 1e-10, 1e-8, 1e-8)
			})
		}
	}
}

// TestComputeSVHTUsesSnapshotAspect: the SVHT threshold must come from
// X's aspect ratio (P×(T−1)), not from the T×(T−1) R block the SVD
// actually runs on. The window's spectrum puts one singular value
// between the two thresholds, so the wrong ratio keeps a different rank.
func TestComputeSVHTUsesSnapshotAspect(t *testing.T) {
	const p, n = 200, 25
	rng := rand.New(rand.NewSource(23))
	sigma := make([]float64, n)
	for j := range sigma {
		sigma[j] = 1.8 + 0.01*rng.Float64()
	}
	sigma[0], sigma[1], sigma[2] = 10, 6, 4
	u := mat.QRFactor(randDense(rng, p, n)).Q
	v := mat.QRFactor(randDense(rng, n, n)).Q
	for i := 0; i < p; i++ {
		for j, sv := range sigma {
			u.Data[i*n+j] *= sv
		}
	}
	data := mat.Mul(u, v.T())
	x := mat.ColSliceWith(nil, data, 0, n-1)
	s := svd.Compute(x).S
	want := svd.SVHTRank(s, p, n-1)
	if svd.SVHTRank(s, n, n-1) == want {
		t.Fatal("test window does not separate the two aspect ratios")
	}
	got, err := Compute(data, Options{DT: 1, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != want {
		t.Fatalf("rank %d, want the P×(T−1) SVHT rank %d", got.Rank, want)
	}
}

// finiteModes fails the test if any mode carries a NaN or Inf.
func finiteModes(t *testing.T, dec *Decomposition) {
	t.Helper()
	bad := func(c complex128) bool { return cmplx.IsNaN(c) || cmplx.IsInf(c) }
	for j, m := range dec.Modes {
		if bad(m.Lambda) || bad(m.Psi) || bad(m.Amp) || math.IsNaN(m.Power) || math.IsInf(m.Power, 0) {
			t.Fatalf("mode %d not finite: λ=%v ψ=%v b=%v power=%v", j, m.Lambda, m.Psi, m.Amp, m.Power)
		}
		for i, v := range m.Phi {
			if bad(v) {
				t.Fatalf("mode %d: Φ[%d] = %v", j, i, v)
			}
		}
	}
}

// TestComputeDegenerateWindows: degenerate windows yield finite modes, no
// modes, or ErrTooFewSnapshots — never a NaN spectrum.
func TestComputeDegenerateWindows(t *testing.T) {
	base, dt := telemetryWindow(telemetry.PolarisGPU(), 200, 17, 8, 29)
	mutate := func(f func(m *mat.Dense)) *mat.Dense {
		m := base.Clone()
		f(m)
		return m
	}
	cases := []struct {
		name string
		data *mat.Dense
		none bool // the window must yield no modes
	}{
		{"all zero", mat.NewDense(200, 17), true},
		{"zero sensor row", mutate(func(m *mat.Dense) {
			for k := range m.Row(7) {
				m.Row(7)[k] = 0
			}
		}), false},
		{"zero first column", mutate(func(m *mat.Dense) {
			for i := 0; i < m.R; i++ {
				m.Set(i, 0, 0)
			}
		}), false},
		{"zero middle column", mutate(func(m *mat.Dense) {
			for i := 0; i < m.R; i++ {
				m.Set(i, 8, 0)
			}
		}), false},
		{"duplicated columns", mutate(func(m *mat.Dense) {
			for i := 0; i < m.R; i++ {
				for k := 1; k < m.C; k += 2 {
					m.Set(i, k, m.At(i, k-1))
				}
			}
		}), false},
		{"constant columns", mutate(func(m *mat.Dense) {
			for i := 0; i < m.R; i++ {
				for k := 1; k < m.C; k++ {
					m.Set(i, k, m.At(i, 0))
				}
			}
		}), false},
		{"two snapshots", mat.ColSliceWith(nil, base, 0, 2), false},
		{"single sensor", mat.ColSliceWith(nil, mat.RowsView(base, 3, 4), 0, 17), false},
	}
	for _, c := range cases {
		for _, svht := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/svht=%v", c.name, svht), func(t *testing.T) {
				dec, err := Compute(c.data, Options{DT: dt, UseSVHT: svht})
				if err != nil {
					t.Fatal(err)
				}
				if c.none && len(dec.Modes) != 0 {
					t.Fatalf("%d modes from a zero window", len(dec.Modes))
				}
				finiteModes(t, dec)
				times := windowTimes(c.data.C, dt)
				if r := dec.Reconstruct(times); r.HasNaN() {
					t.Fatal("reconstruction not finite")
				}
			})
		}
	}
	if _, err := Compute(mat.ColSliceWith(nil, base, 0, 1), Options{DT: dt}); !errors.Is(err, ErrTooFewSnapshots) {
		t.Fatalf("one snapshot: err %v, want ErrTooFewSnapshots", err)
	}
}

// TestComputeChecksDTFirst: a non-positive DT is rejected before any
// factorization runs — no scratch is ever borrowed.
func TestComputeChecksDTFirst(t *testing.T) {
	data, _ := telemetryWindow(telemetry.PolarisGPU(), 200, 13, 8, 31)
	for _, dt := range []float64{0, -1} {
		ws := compute.NewWorkspace()
		if _, err := Compute(data, Options{DT: dt, Ws: ws}); err == nil {
			t.Fatalf("DT=%v accepted", dt)
		}
		if gets, _ := ws.Stats(); gets != 0 {
			t.Fatalf("DT=%v: %d workspace borrows before the DT check", dt, gets)
		}
	}
}

// TestComputeScaleInvariance: scaling the snapshots by c leaves the
// eigenvalues and modes unchanged and scales every amplitude by c (the
// DMD model is linear; SVHT is scale-free).
func TestComputeScaleInvariance(t *testing.T) {
	data, dt := telemetryWindow(telemetry.ThetaEnv(), 200, 17, 8, 37)
	base, err := Compute(data, Options{DT: dt, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{1e3, 1e-3, -7} {
		scaled := data.Clone()
		for i := range scaled.Data {
			scaled.Data[i] *= c
		}
		dec, err := Compute(scaled, Options{DT: dt, UseSVHT: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(dec.Modes) != len(base.Modes) {
			t.Fatalf("c=%g: %d modes, want %d", c, len(dec.Modes), len(base.Modes))
		}
		var maxAmp float64
		for _, m := range base.Modes {
			maxAmp = math.Max(maxAmp, cmplx.Abs(m.Amp))
		}
		for i, j := range matchModes(dec.Modes, base.Modes) {
			g, w := dec.Modes[i], base.Modes[j]
			if d := cmplx.Abs(g.Lambda - w.Lambda); d > 1e-10*cmplx.Abs(w.Lambda) {
				t.Fatalf("c=%g: λ %v vs %v", c, g.Lambda, w.Lambda)
			}
			if cmplx.Abs(w.Amp) <= 1e-6*maxAmp {
				continue
			}
			u, gap := gauge(g, w, nil)
			if gap > 1e-8 {
				t.Fatalf("c=%g: λ %v: mode changed (gap %.3g)", c, w.Lambda, gap)
			}
			want := w.Amp * complex(c, 0)
			if d := cmplx.Abs(u*g.Amp - want); d > 1e-8*cmplx.Abs(want) {
				t.Fatalf("c=%g: amplitude %v, want %v", c, u*g.Amp, want)
			}
		}
	}
}

// TestComputeSensorPermutation: permuting the sensor rows permutes the
// rows of Φ and changes nothing else.
func TestComputeSensorPermutation(t *testing.T) {
	data, dt := telemetryWindow(telemetry.PolarisGPU(), 200, 25, 8, 41)
	perm := rand.New(rand.NewSource(43)).Perm(data.R)
	permuted := mat.NewDense(data.R, data.C)
	for i, src := range perm {
		copy(permuted.Row(i), data.Row(src))
	}
	base, err := Compute(data, Options{DT: dt, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Compute(permuted, Options{DT: dt, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rank != base.Rank || len(dec.Modes) != len(base.Modes) {
		t.Fatalf("rank %d/%d modes, want %d/%d", dec.Rank, len(dec.Modes), base.Rank, len(base.Modes))
	}
	var maxAmp float64
	for _, m := range base.Modes {
		maxAmp = math.Max(maxAmp, cmplx.Abs(m.Amp))
	}
	for i, j := range matchModes(dec.Modes, base.Modes) {
		g, w := dec.Modes[i], base.Modes[j]
		if d := cmplx.Abs(g.Lambda - w.Lambda); d > 1e-10*cmplx.Abs(w.Lambda) {
			t.Fatalf("λ %v vs %v", g.Lambda, w.Lambda)
		}
		if cmplx.Abs(w.Amp) <= 1e-6*maxAmp {
			continue
		}
		u, gap := gauge(g, w, perm)
		if gap > 1e-8 {
			t.Fatalf("λ %v: Φ rows are not the permuted originals (gap %.3g)", w.Lambda, gap)
		}
		if d := cmplx.Abs(u*g.Amp - w.Amp); d > 1e-8*cmplx.Abs(w.Amp) {
			t.Fatalf("λ %v: amplitude %v vs %v", w.Lambda, u*g.Amp, w.Amp)
		}
	}
}

func sq(x float64) float64 { return x * x }
