// Package mat provides the dense real and complex matrix types and the
// basic linear-algebra kernels (multiply, QR, LU, least squares, norms)
// that the SVD, eigendecomposition and DMD layers are built on.
//
// Matrices are row-major. The package is self-contained (stdlib only) and
// its hot kernels (matrix multiply) are blocked and goroutine-parallel.
//
// The dense type is generic over its element type only as storage:
// Dense (float64) is what every kernel computes on; Dense32 (float32)
// holds the analyzer's cold history tier (tiered.go) and its snapshot
// form, and is widened to Dense before any arithmetic (DESIGN.md §6, §10).
package mat

import (
	"fmt"
	"math"
)

// Element constrains the matrix element type to the two storage tiers.
type Element interface {
	~float32 | ~float64
}

// GDense is a row-major dense matrix over element type T.
//
// The zero value is an empty matrix. Use NewDense / NewDense32 / NewOf to
// construct one with a shape.
type GDense[T Element] struct {
	R, C int
	Data []T // row-major: element (i,j) at Data[i*RowStride()+j]

	// Stride is the row stride of Data; 0 means tightly packed
	// (stride == C), which every constructor in this package produces.
	// Strided matrices arise only from ColsView windows (stride = the
	// parent's) and GrowCols capacity padding (stride = column capacity);
	// all accessors and kernels honor it.
	Stride int

	// noPool marks matrices whose Data aliases another matrix's storage
	// (ColsView, RowsView): PutDense must not recycle it.
	noPool bool
}

// RowStride returns the distance in elements between the starts of
// consecutive rows of Data.
func (m *GDense[T]) RowStride() int {
	if m.Stride > 0 {
		return m.Stride
	}
	return m.C
}

// packed reports whether Data is one tight R*C block, so flat loops over
// it visit exactly the matrix elements.
func (m *GDense[T]) packed() bool {
	return (m.Stride == 0 || m.Stride == m.C) && len(m.Data) == m.R*m.C
}

// Dense is the float64 dense matrix every kernel computes on.
type Dense = GDense[float64]

// Dense32 is the float32 dense matrix: cold-tier storage only.
type Dense32 = GDense[float32]

// NewOf returns a zeroed r×c matrix with element type T.
func NewOf[T Element](r, c int) *GDense[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &GDense[T]{R: r, C: c, Data: make([]T, r*c)}
}

// NewDense returns a zeroed r×c float64 matrix.
func NewDense(r, c int) *Dense { return NewOf[float64](r, c) }

// NewDense32 returns a zeroed r×c float32 matrix.
func NewDense32(r, c int) *Dense32 { return NewOf[float32](r, c) }

// NewDenseData wraps an existing row-major slice as an r×c matrix.
// The slice is used directly, not copied.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %d×%d", len(data), r, c))
	}
	return &Dense{R: r, C: c, Data: data}
}

// At returns element (i, j).
func (m *GDense[T]) At(i, j int) T { return m.Data[i*m.RowStride()+j] }

// Set assigns element (i, j).
func (m *GDense[T]) Set(i, j int, v T) { m.Data[i*m.RowStride()+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *GDense[T]) Row(i int) []T {
	s := m.RowStride()
	return m.Data[i*s : i*s+m.C : i*s+m.C]
}

// Col returns a copy of column j.
func (m *GDense[T]) Col(j int) []T {
	out := make([]T, m.R)
	s := m.RowStride()
	for i := 0; i < m.R; i++ {
		out[i] = m.Data[i*s+j]
	}
	return out
}

// SetCol assigns column j from v.
func (m *GDense[T]) SetCol(j int, v []T) {
	if len(v) != m.R {
		panic("mat: SetCol length mismatch")
	}
	s := m.RowStride()
	for i := 0; i < m.R; i++ {
		m.Data[i*s+j] = v[i]
	}
}

// Clone returns a deep (tightly packed) copy.
func (m *GDense[T]) Clone() *GDense[T] {
	d := make([]T, m.R*m.C)
	if m.packed() {
		copy(d, m.Data)
	} else {
		for i := 0; i < m.R; i++ {
			copy(d[i*m.C:(i+1)*m.C], m.Row(i))
		}
	}
	return &GDense[T]{R: m.R, C: m.C, Data: d}
}

// Dims returns (rows, cols).
func (m *GDense[T]) Dims() (int, int) { return m.R, m.C }

// T returns the transpose as a new matrix.
func (m *GDense[T]) T() *GDense[T] {
	t := NewOf[T](m.C, m.R)
	// Blocked transpose for cache friendliness.
	const bs = 64
	ms := m.RowStride()
	for ii := 0; ii < m.R; ii += bs {
		iMax := min(ii+bs, m.R)
		for jj := 0; jj < m.C; jj += bs {
			jMax := min(jj+bs, m.C)
			for i := ii; i < iMax; i++ {
				row := m.Data[i*ms:]
				for j := jj; j < jMax; j++ {
					t.Data[j*m.R+i] = row[j]
				}
			}
		}
	}
	return t
}

// ColSlice returns a copy of columns [j0, j1).
func (m *GDense[T]) ColSlice(j0, j1 int) *GDense[T] {
	if j0 < 0 || j1 > m.C || j0 > j1 {
		panic(fmt.Sprintf("mat: ColSlice [%d,%d) out of range for %d cols", j0, j1, m.C))
	}
	out := NewOf[T](m.R, j1-j0)
	for i := 0; i < m.R; i++ {
		copy(out.Row(i), m.Row(i)[j0:j1])
	}
	return out
}

// RowSlice returns a copy of rows [i0, i1).
func (m *GDense[T]) RowSlice(i0, i1 int) *GDense[T] {
	if i0 < 0 || i1 > m.R || i0 > i1 {
		panic(fmt.Sprintf("mat: RowSlice [%d,%d) out of range for %d rows", i0, i1, m.R))
	}
	out := NewOf[T](i1-i0, m.C)
	for i := i0; i < i1; i++ {
		copy(out.Row(i-i0), m.Row(i))
	}
	return out
}

// Subsample returns a copy with every stride-th column starting at column 0.
func (m *GDense[T]) Subsample(stride int) *GDense[T] {
	if stride <= 1 {
		return m.Clone()
	}
	n := (m.C + stride - 1) / stride
	out := NewOf[T](m.R, n)
	for i := 0; i < m.R; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := 0, 0; j < m.C; k, j = k+1, j+stride {
			dst[k] = src[j]
		}
	}
	return out
}

// HStack returns [A B] (columns of b appended to a). Row counts must match.
func HStack(a, b *Dense) *Dense {
	if a.R != b.R {
		panic("mat: HStack row mismatch")
	}
	out := NewDense(a.R, a.C+b.C)
	for i := 0; i < a.R; i++ {
		copy(out.Row(i)[:a.C], a.Row(i))
		copy(out.Row(i)[a.C:], b.Row(i))
	}
	return out
}

// VStack returns [A; B] (rows of b appended to a). Column counts must match.
func VStack(a, b *Dense) *Dense {
	if a.C != b.C {
		panic("mat: VStack col mismatch")
	}
	out := NewDense(a.R+b.R, a.C)
	for i := 0; i < a.R; i++ {
		copy(out.Row(i), a.Row(i))
	}
	for i := 0; i < b.R; i++ {
		copy(out.Row(a.R+i), b.Row(i))
	}
	return out
}

// Eye returns the n×n float64 identity.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// DiagOf returns a square matrix with v on the diagonal.
func DiagOf(v []float64) *Dense {
	n := len(v)
	m := NewDense(n, n)
	for i, x := range v {
		m.Data[i*n+i] = x
	}
	return m
}

// Add returns a + b element-wise.
func Add(a, b *Dense) *Dense {
	checkSameShape("Add", a, b)
	out := NewDense(a.R, a.C)
	for i := 0; i < a.R; i++ {
		orow, arow, brow := out.Row(i), a.Row(i), b.Row(i)
		for j := range orow {
			orow[j] = arow[j] + brow[j]
		}
	}
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Dense) *Dense {
	checkSameShape("Sub", a, b)
	out := NewDense(a.R, a.C)
	for i := 0; i < a.R; i++ {
		orow, arow, brow := out.Row(i), a.Row(i), b.Row(i)
		for j := range orow {
			orow[j] = arow[j] - brow[j]
		}
	}
	return out
}

// SubInPlace subtracts b from a in place.
func SubInPlace(a, b *Dense) {
	checkSameShape("SubInPlace", a, b)
	for i := 0; i < a.R; i++ {
		arow, brow := a.Row(i), b.Row(i)
		for j := range arow {
			arow[j] -= brow[j]
		}
	}
}

// Scale returns s*a.
func Scale(s float64, a *Dense) *Dense {
	out := NewDense(a.R, a.C)
	for i := 0; i < a.R; i++ {
		orow, arow := out.Row(i), a.Row(i)
		for j := range orow {
			orow[j] = s * arow[j]
		}
	}
	return out
}

// FrobNorm returns the Frobenius norm of m, accumulated in float64
// regardless of the element type.
func (m *GDense[T]) FrobNorm() float64 {
	var s float64
	if m.packed() {
		for _, v := range m.Data {
			f := float64(v)
			s += f * f
		}
		return math.Sqrt(s)
	}
	for i := 0; i < m.R; i++ {
		for _, v := range m.Row(i) {
			f := float64(v)
			s += f * f
		}
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *GDense[T]) MaxAbs() float64 {
	var s float64
	for i := 0; i < m.R; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(float64(v)); a > s {
				s = a
			}
		}
	}
	return s
}

// HasNaN reports whether any entry is NaN or ±Inf.
func (m *GDense[T]) HasNaN() bool {
	for i := 0; i < m.R; i++ {
		for _, v := range m.Row(i) {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return true
			}
		}
	}
	return false
}

func checkSameShape(op string, a, b *Dense) {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("mat: %s shape mismatch %d×%d vs %d×%d", op, a.R, a.C, b.R, b.C))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
