package mat

import (
	"fmt"

	"imrdmd/internal/compute"
)

// Tiered column storage: the multifidelity trade applied to resident
// memory (DESIGN.md §10). It is the one place float32 survives: as
// storage, never as arithmetic (DESIGN.md §6). A TieredCols holds a growing sequence of columns where the trailing "hot"
// window stays in float64 and everything older is demoted to float32
// chunks — half the resident bytes for history that is only ever read
// back for full-resolution reconstruction error, segment recompute after
// drift, or snapshot export, all of which tolerate (and report) the
// f32-rounding of cold values. Demotion is explicit (Demote), so a caller
// that never demotes keeps a plain all-f64 store with view-based window
// access — bit-identical to the pre-tiered layout.

// TieredChunkCols is the demotion granularity: cold columns move in full
// chunks of this many columns, so chunk bookkeeping stays O(T/chunk) and
// each demotion is one bounded O(P·chunk) pass.
const TieredChunkCols = 256

// TieredCols is a P×T column store whose first ColdCols() columns live as
// float32 chunks and whose tail lives as one float64 matrix. It is not
// concurrency-safe; callers serialize access (the analyzer lock).
type TieredCols struct {
	r     int
	chunk int        // cold chunk width in columns
	cold  []*Dense32 // each r×chunk, oldest first
	hot   *Dense     // columns [ColdCols(), Cols()), stride = grow capacity
}

// NewTieredCols wraps hot (taking ownership of it) as an all-hot store.
func NewTieredCols(hot *Dense) *TieredCols {
	return &TieredCols{r: hot.R, chunk: TieredChunkCols, hot: hot}
}

// TieredFromParts rebuilds a store from decoded parts, validating the
// shape invariants a corrupt snapshot could violate. Ownership of cold
// and hot transfers to the store.
func TieredFromParts(cold []*Dense32, hot *Dense, chunk int) (*TieredCols, error) {
	if hot == nil {
		return nil, fmt.Errorf("mat: tiered store missing hot tier")
	}
	if chunk < 1 {
		return nil, fmt.Errorf("mat: tiered chunk width %d invalid", chunk)
	}
	for i, c := range cold {
		if c == nil || c.R != hot.R || c.C != chunk {
			return nil, fmt.Errorf("mat: cold chunk %d shape inconsistent with %d×%d store (chunk %d)",
				i, hot.R, chunk, chunk)
		}
	}
	return &TieredCols{r: hot.R, chunk: chunk, cold: cold, hot: hot}, nil
}

// Rows returns the row (sensor) dimension.
func (t *TieredCols) Rows() int { return t.r }

// Cols returns the total column count across both tiers.
func (t *TieredCols) Cols() int { return len(t.cold)*t.chunk + t.hot.C }

// ColdCols returns how many leading columns live in the f32 tier.
func (t *TieredCols) ColdCols() int { return len(t.cold) * t.chunk }

// ChunkCols returns the demotion chunk width.
func (t *TieredCols) ChunkCols() int { return t.chunk }

// Hot returns the hot-tier matrix (the trailing f64 columns). Callers
// must treat it as read-only; it is exposed for serialization.
func (t *TieredCols) Hot() *Dense { return t.hot }

// ColdChunks returns the cold-tier chunks, oldest first. Read-only; for
// serialization.
func (t *TieredCols) ColdChunks() []*Dense32 { return t.cold }

// At returns element (i, j) with j a global column index, widening cold
// values to float64.
func (t *TieredCols) At(i, j int) float64 {
	if cc := t.ColdCols(); j < cc {
		return float64(t.cold[j/t.chunk].At(i, j%t.chunk))
	} else {
		return t.hot.At(i, j-cc)
	}
}

// Grow appends b's columns to the hot tier (amortized, via GrowColsWith
// capacity slack).
func (t *TieredCols) Grow(ws *compute.Workspace, b *Dense) {
	if b.R != t.r {
		panic(fmt.Sprintf("mat: TieredCols.Grow row mismatch %d vs %d", b.R, t.r))
	}
	t.hot = GrowColsWith(ws, t.hot, b)
}

// Demote narrows full chunks of the oldest hot columns to float32 until
// at most horizon + ChunkCols − 1 hot columns remain (so the trailing
// horizon columns always stay exact). It returns how many columns were
// demoted. The hot tier shifts left in place, keeping its grow capacity.
func (t *TieredCols) Demote(horizon int) int {
	if horizon < 0 {
		horizon = 0
	}
	moved := 0
	for t.hot.C-t.chunk >= horizon {
		c32 := NewDense32(t.r, t.chunk)
		for i := 0; i < t.r; i++ {
			src := t.hot.Row(i)[:t.chunk]
			dst := c32.Row(i)
			for k, v := range src {
				dst[k] = float32(v)
			}
		}
		t.cold = append(t.cold, c32)
		// Shift the remaining hot columns left within the same buffer
		// (overlap-safe copy). The physical row stride must be pinned
		// before C shrinks: on a tightly packed matrix RowStride() tracks
		// C, and letting it shrink would re-base every row offset mid-
		// shift. Pinning turns the vacated columns into the capacity
		// slack GrowColsWith reuses.
		s := t.hot.RowStride()
		if t.hot.Stride == 0 {
			t.hot.Stride = s
		}
		for i := 0; i < t.r; i++ {
			row := t.hot.Data[i*s : i*s+t.hot.C]
			copy(row[:t.hot.C-t.chunk], row[t.chunk:])
		}
		t.hot.C -= t.chunk
		moved += t.chunk
	}
	return moved
}

// Window returns columns [lo, hi) as a float64 matrix: a zero-copy view
// of the hot tier when the range is entirely hot (PutDense is then a
// no-op, and the data is valid only until the next Grow/Demote), or a
// ws-borrowed copy with cold values widened exactly otherwise. Callers
// PutDense the result either way.
func (t *TieredCols) Window(ws *compute.Workspace, lo, hi int) *Dense {
	cc := t.ColdCols()
	if lo < 0 || hi > t.Cols() || lo > hi {
		panic(fmt.Sprintf("mat: TieredCols.Window [%d,%d) out of range for %d cols", lo, hi, t.Cols()))
	}
	if lo >= cc {
		return ColsView(t.hot, lo-cc, hi-cc)
	}
	return t.CopyWindow(ws, lo, hi)
}

// CopyWindow returns columns [lo, hi) as a ws-borrowed packed float64
// copy regardless of tier — the safe-to-hold form for callers that
// release the guarding lock before reading.
func (t *TieredCols) CopyWindow(ws *compute.Workspace, lo, hi int) *Dense {
	if lo < 0 || hi > t.Cols() || lo > hi {
		panic(fmt.Sprintf("mat: TieredCols.CopyWindow [%d,%d) out of range for %d cols", lo, hi, t.Cols()))
	}
	out := GetDenseRaw(ws, t.r, hi-lo)
	t.fillWindow(out, lo, hi)
	return out
}

// fillWindow copies columns [lo, hi) into out (r×(hi-lo)), widening cold
// chunks.
func (t *TieredCols) fillWindow(out *Dense, lo, hi int) {
	cc := t.ColdCols()
	for i := 0; i < t.r; i++ {
		dst := out.Row(i)
		j := lo
		for j < hi && j < cc {
			ch := t.cold[j/t.chunk]
			cLo := j % t.chunk
			cHi := t.chunk
			if hi-j < cHi-cLo {
				cHi = cLo + (hi - j)
			}
			src := ch.Row(i)[cLo:cHi]
			for k, v := range src {
				dst[j-lo+k] = float64(v)
			}
			j += cHi - cLo
		}
		if j < hi {
			copy(dst[j-lo:], t.hot.Row(i)[j-cc:hi-cc])
		}
	}
}

// GatherCols copies the given global columns (ascending not required)
// into a ws-borrowed r×len(idxs) matrix. The all-hot case — the level-1
// sample gather of the streaming update — runs as a per-row slice loop
// with no tier checks.
func (t *TieredCols) GatherCols(ws *compute.Workspace, idxs []int) *Dense {
	out := GetDenseRaw(ws, t.r, len(idxs))
	cc := t.ColdCols()
	allHot := true
	for _, j := range idxs {
		if j < cc {
			allHot = false
		}
		if j < 0 || j >= t.Cols() {
			panic(fmt.Sprintf("mat: TieredCols.GatherCols index %d out of range for %d cols", j, t.Cols()))
		}
	}
	if allHot {
		for i := 0; i < t.r; i++ {
			src := t.hot.Row(i)
			dst := out.Row(i)
			for k, j := range idxs {
				dst[k] = src[j-cc]
			}
		}
		return out
	}
	for i := 0; i < t.r; i++ {
		dst := out.Row(i)
		for k, j := range idxs {
			dst[k] = t.At(i, j)
		}
	}
	return out
}

// AddRows appends new sensor rows carrying the full column history: the
// hot slice of rows joins the hot tier, and each cold chunk gains the
// corresponding columns narrowed to float32 — so the new rows take on
// exactly the fidelity of the tier they land in.
func (t *TieredCols) AddRows(ws *compute.Workspace, rows *Dense) {
	if rows.C != t.Cols() {
		panic(fmt.Sprintf("mat: TieredCols.AddRows needs %d columns, got %d", t.Cols(), rows.C))
	}
	cc := t.ColdCols()
	hotRows := ColsView(rows, cc, rows.C)
	grown := VStackWith(ws, t.hot, hotRows)
	PutDense(ws, t.hot)
	t.hot = grown
	for ci, ch := range t.cold {
		c0 := ci * t.chunk
		g := NewDense32(t.r+rows.R, t.chunk)
		for i := 0; i < t.r; i++ {
			copy(g.Row(i), ch.Row(i))
		}
		for i := 0; i < rows.R; i++ {
			src := rows.Row(i)[c0 : c0+t.chunk]
			dst := g.Row(t.r + i)
			for k, v := range src {
				dst[k] = float32(v)
			}
		}
		t.cold[ci] = g
	}
	t.r += rows.R
}

// Promote returns the full history as one freshly allocated packed
// float64 matrix (cold values widened exactly).
func (t *TieredCols) Promote() *Dense {
	out := NewDense(t.r, t.Cols())
	t.fillWindow(out, 0, t.Cols())
	return out
}

// HotBytes returns the resident bytes of the hot tier, counting the grow
// capacity actually held.
func (t *TieredCols) HotBytes() int64 { return int64(len(t.hot.Data)) * 8 }

// ColdBytes returns the resident bytes of the cold tier.
func (t *TieredCols) ColdBytes() int64 {
	var n int64
	for _, c := range t.cold {
		n += int64(len(c.Data)) * 4
	}
	return n
}

// Narrow converts m to float32, rounding every element once.
func Narrow(m *Dense) *Dense32 {
	out := NewDense32(m.R, m.C)
	for i := 0; i < m.R; i++ {
		src, dst := m.Row(i), out.Row(i)
		for j, v := range src {
			dst[j] = float32(v)
		}
	}
	return out
}

// Widen converts m to float64 exactly (every float32 is representable).
func Widen(m *Dense32) *Dense {
	out := NewDense(m.R, m.C)
	for i := 0; i < m.R; i++ {
		src, dst := m.Row(i), out.Row(i)
		for j, v := range src {
			dst[j] = float64(v)
		}
	}
	return out
}
