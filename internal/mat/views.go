package mat

import (
	"fmt"

	"imrdmd/internal/compute"
)

// Views and amortized column growth. A view shares its parent's storage
// through the Dense Stride field: the streaming-update pipeline hands out
// column windows of an incoming block, and the analyzer's history matrices
// grow by columns, without the full-matrix copies HStack-style growth
// pays. PutDense recognizes views and never recycles their storage.

// ColsView returns columns [j0, j1) of m as a view aliasing m's storage.
// The view is valid as long as m's Data is; PutDense on it is a no-op.
func ColsView(m *Dense, j0, j1 int) *Dense {
	if j0 < 0 || j1 > m.C || j0 > j1 {
		panic(fmt.Sprintf("mat: ColsView [%d,%d) out of range for %d cols", j0, j1, m.C))
	}
	s := m.RowStride()
	end := j0
	if m.R > 0 {
		end = (m.R-1)*s + j1
	}
	return &Dense{R: m.R, C: j1 - j0, Stride: s, Data: m.Data[j0:end:end], noPool: true}
}

// RowsView returns rows [i0, i1) of m as a view aliasing m's storage.
// The rows stay at m's stride, so the view is tightly packed only when m
// is; PutDense on it is a no-op.
func RowsView(m *Dense, i0, i1 int) *Dense {
	if i0 < 0 || i1 > m.R || i0 > i1 {
		panic(fmt.Sprintf("mat: RowsView [%d,%d) out of range for %d rows", i0, i1, m.R))
	}
	s := m.RowStride()
	end := i0 * s
	if i1 > i0 {
		end = (i1-1)*s + m.C
	}
	return &Dense{R: i1 - i0, C: m.C, Stride: s, Data: m.Data[i0*s : end : end], noPool: true}
}

// GrowColsWith appends b's columns to m — the amortized replacement for
// HStackWith growth loops. When m has spare column capacity (Stride > C,
// as left by a previous grow) only the new columns are written; otherwise
// a fresh matrix with ~1.5× column headroom is borrowed from ws, m's rows
// are copied once, and m's storage is recycled. Either way the caller's m
// is consumed and the returned matrix replaces it:
//
//	m = mat.GrowColsWith(ws, m, block)
//
// The result carries Stride = capacity, so consumers must go through the
// stride-aware accessors (every kernel in this package does).
func GrowColsWith(ws *compute.Workspace, m, b *Dense) *Dense {
	if m.R != b.R {
		panic("mat: GrowCols row mismatch")
	}
	newC := m.C + b.C
	if !m.noPool && newC <= m.RowStride() {
		s := m.RowStride()
		for i := 0; i < m.R; i++ {
			copy(m.Data[i*s+m.C:i*s+newC], b.Row(i))
		}
		m.C = newC
		return m
	}
	// Request the exact size — the pool rounds capacity up to the next
	// power-of-two class anyway, so claiming that slack as column headroom
	// gives amortized 2× growth without ever asking for a colder (larger)
	// size class than a plain exact-size reallocation would.
	out := GetDenseRaw(ws, m.R, newC)
	capc := newC
	if c := cap(out.Data) / m.R; c > newC {
		capc = c
		out.Data = out.Data[:m.R*capc]
		out.Stride = capc
	}
	for i := 0; i < m.R; i++ {
		row := out.Data[i*capc : i*capc+newC]
		copy(row[:m.C], m.Row(i))
		copy(row[m.C:], b.Row(i))
	}
	PutDense(ws, m)
	return out
}
