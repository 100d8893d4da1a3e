package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

// checkQRR asserts r is a valid R factor of a: min(m,n)×n, zero below the
// diagonal, finite, and RᵀR = AᵀA within tol relative to ‖AᵀA‖_F.
func checkQRR(t *testing.T, a, r *Dense, tol float64) {
	t.Helper()
	m, n := a.Dims()
	if r.R != min(m, n) || r.C != n {
		t.Fatalf("R is %dx%d, want %dx%d", r.R, r.C, min(m, n), n)
	}
	if r.HasNaN() {
		t.Fatal("R not finite")
	}
	for i := 0; i < r.R; i++ {
		for j := 0; j < min(i, n); j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R[%d,%d] = %g below the diagonal", i, j, r.At(i, j))
			}
		}
	}
	ata := MulT(a, a)
	d := Sub(MulT(r, r), ata).FrobNorm()
	if scale := ata.FrobNorm(); d > tol*scale && d > 0 {
		t.Fatalf("‖RᵀR − AᵀA‖ = %.3g relative, want ≤ %g", d/scale, tol)
	}
}

func TestQRRGram(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, c := range []struct{ m, n int }{
		{200, 13}, {200, 17}, {200, 25}, {200, 40}, // mrDMD windows, and past a panel
		{17, 17},          // square
		{20, 120}, {3, 7}, // wide: upper trapezoidal
		{1, 5}, {5, 1}, {1, 1},
	} {
		t.Run(fmt.Sprintf("%dx%d", c.m, c.n), func(t *testing.T) {
			a := randDense(rng, c.m, c.n)
			ws := compute.NewWorkspace()
			r := QRRWith(ws, a)
			checkQRR(t, a, r, 1e-12)
			PutDense(ws, r)
		})
	}
}

// TestQRRMatchesMGS2: for full-rank input R is unique up to the signs of
// its rows, so |R| must equal the MGS2 factor's (whose diagonal is
// positive) — in particular |diag R|.
func TestQRRMatchesMGS2(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, c := range []struct{ m, n int }{{200, 13}, {200, 25}, {200, 40}, {30, 30}} {
		a := randDense(rng, c.m, c.n)
		r := QRRWith(nil, a)
		ref := QRFactor(a).R
		scale := ref.MaxAbs()
		for i := 0; i < c.n; i++ {
			if d := math.Abs(math.Abs(r.At(i, i)) - ref.At(i, i)); d > 1e-12*ref.At(i, i) {
				t.Fatalf("%dx%d: |R[%d,%d]| = %v, MGS2 %v", c.m, c.n, i, i, math.Abs(r.At(i, i)), ref.At(i, i))
			}
			sign := math.Copysign(1, r.At(i, i))
			for j := i; j < c.n; j++ {
				if d := math.Abs(sign*r.At(i, j) - ref.At(i, j)); d > 1e-12*scale {
					t.Fatalf("%dx%d: R[%d,%d] = %v, MGS2 %v (row sign %v)", c.m, c.n, i, j, r.At(i, j), ref.At(i, j), sign)
				}
			}
		}
	}
}

// TestQRRDegenerate: zero, rank-deficient and zero-row/column inputs give
// a finite R that still satisfies RᵀR = AᵀA.
func TestQRRDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	base := randDense(rng, 200, 17)
	mutate := func(f func(m *Dense)) *Dense {
		m := base.Clone()
		f(m)
		return m
	}
	for _, c := range []struct {
		name string
		a    *Dense
	}{
		{"zero", NewDense(200, 17)},
		{"zero wide", NewDense(5, 9)},
		{"zero row", mutate(func(m *Dense) {
			for j := range m.Row(4) {
				m.Row(4)[j] = 0
			}
		})},
		{"zero first column", mutate(func(m *Dense) {
			for i := 0; i < m.R; i++ {
				m.Set(i, 0, 0)
			}
		})},
		{"zero middle column", mutate(func(m *Dense) {
			for i := 0; i < m.R; i++ {
				m.Set(i, 9, 0)
			}
		})},
		{"duplicated columns", mutate(func(m *Dense) {
			for i := 0; i < m.R; i++ {
				for j := 1; j < m.C; j += 2 {
					m.Set(i, j, m.At(i, j-1))
				}
			}
		})},
		{"rank one", mutate(func(m *Dense) {
			for i := 0; i < m.R; i++ {
				for j := 1; j < m.C; j++ {
					m.Set(i, j, float64(j)*m.At(i, 0))
				}
			}
		})},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkQRR(t, c.a, QRRWith(nil, c.a), 1e-12)
		})
	}
}

// TestQRRStridedInput: a column view factors bit-identically to its
// packed clone (the window DMD hands QRRWith views).
func TestQRRStridedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	parent := randDense(rng, 200, 40)
	v := ColsView(parent, 3, 20)
	got, want := QRRWith(nil, v), QRRWith(nil, v.Clone())
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d: %v on the view, %v on the clone", i, got.Data[i], want.Data[i])
		}
	}
}

// TestQRRFloat32: the generic kernel's float32 instantiation meets the
// same Gram identity at single-precision tolerance.
func TestQRRFloat32(t *testing.T) {
	a := randDense(rand.New(rand.NewSource(103)), 200, 17)
	a32 := NewOf[float32](a.R, a.C)
	for i, v := range a.Data {
		a32.Data[i] = float32(v)
	}
	r32 := QRRWith(nil, a32)
	r := NewDense(r32.R, r32.C)
	back := NewDense(a.R, a.C)
	for i, v := range r32.Data {
		r.Data[i] = float64(v)
	}
	for i, v := range a32.Data {
		back.Data[i] = float64(v)
	}
	checkQRR(t, back, r, 1e-5)
}
