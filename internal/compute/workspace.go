package compute

import "sync"

// Workspace is a pool of scratch buffers keyed by power-of-two size
// class, with Get/Put semantics. Hot paths that repeatedly build
// same-shaped intermediates (the augmented core kk, the extended bases
// uext/vext, residual blocks, reconstruction scratch) borrow storage here
// instead of allocating, which is what makes repeated PartialFit calls
// allocation-stable under sustained streaming.
//
// Buffers are allocated with capacity rounded up to the next power of two,
// so a slowly growing shape (the incremental SVD's V gains rows every
// update) still hits the pool on most updates. All methods are safe for
// concurrent use; a nil *Workspace degrades to plain allocation.
type Workspace struct {
	mu   sync.Mutex
	f64  map[int][][]float64
	c128 map[int][][]complex128

	gets int
	hits int
}

// maxPerClass bounds how many buffers are retained per size class so a
// transient burst cannot pin memory forever.
const maxPerClass = 32

// largeClassMin is the element count from which a size class counts as
// large and retains at most largeClassCap buffers. Autotuned GEMM blocking
// (mat's pack buffers) can push single classes past a megabyte; 32 retained
// megabyte-scale buffers would pin tens of MB per pool, and no workload
// holds more than a handful of large buffers concurrently (one B panel
// plus one A panel per worker).
const (
	largeClassMin = 1 << 20
	largeClassCap = 4
)

// classCap is the retention bound for size class c.
func classCap(c int) int {
	if c >= largeClassMin {
		return largeClassCap
	}
	return maxPerClass
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		f64:  map[int][][]float64{},
		c128: map[int][][]complex128{},
	}
}

// Drain releases every retained buffer so the GC can reclaim them.
// Pooled buffers otherwise stay reachable forever, which both pins idle
// memory and makes ReadMemStats-based resident-bytes accounting report
// pool slack as live state. Safe concurrently with Get/Put; the pools
// simply refill on demand. A nil workspace is a no-op.
func (w *Workspace) Drain() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.f64 = map[int][][]float64{}
	w.c128 = map[int][][]complex128{}
	w.mu.Unlock()
}

// sizeClass rounds n up to the next power of two (minimum 8).
func sizeClass(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// GetF64 returns a []float64 of length n with unspecified contents.
func (ws *Workspace) GetF64(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	if ws != nil {
		ws.mu.Lock()
		ws.gets++
		if l := ws.f64[c]; len(l) > 0 {
			b := l[len(l)-1]
			ws.f64[c] = l[:len(l)-1]
			ws.hits++
			ws.mu.Unlock()
			return b[:n]
		}
		ws.mu.Unlock()
	}
	return make([]float64, n, c)
}

// GetF64Zero returns a zeroed []float64 of length n.
func (ws *Workspace) GetF64Zero(n int) []float64 {
	b := ws.GetF64(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// PutF64 returns a buffer to the pool. Buffers whose capacity is not a
// size class (i.e. not obtained from GetF64) are dropped. Callers must not
// use b after Put.
func (ws *Workspace) PutF64(b []float64) {
	if ws == nil {
		return
	}
	c := cap(b)
	if c == 0 || c != sizeClass(c) {
		return
	}
	ws.mu.Lock()
	if len(ws.f64[c]) < classCap(c) {
		ws.f64[c] = append(ws.f64[c], b[:c])
	}
	ws.mu.Unlock()
}

// GetC128 returns a []complex128 of length n with unspecified contents.
func (ws *Workspace) GetC128(n int) []complex128 {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	if ws != nil {
		ws.mu.Lock()
		ws.gets++
		if l := ws.c128[c]; len(l) > 0 {
			b := l[len(l)-1]
			ws.c128[c] = l[:len(l)-1]
			ws.hits++
			ws.mu.Unlock()
			return b[:n]
		}
		ws.mu.Unlock()
	}
	return make([]complex128, n, c)
}

// GetC128Zero returns a zeroed []complex128 of length n.
func (ws *Workspace) GetC128Zero(n int) []complex128 {
	b := ws.GetC128(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// PutC128 returns a complex buffer to the pool.
func (ws *Workspace) PutC128(b []complex128) {
	if ws == nil {
		return
	}
	c := cap(b)
	if c == 0 || c != sizeClass(c) {
		return
	}
	ws.mu.Lock()
	if len(ws.c128[c]) < classCap(c) {
		ws.c128[c] = append(ws.c128[c], b[:c])
	}
	ws.mu.Unlock()
}

// Stats reports lifetime Get calls and how many were served from the pool
// (used by buffer-reuse tests and diagnostics).
func (ws *Workspace) Stats() (gets, hits int) {
	if ws == nil {
		return 0, 0
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.gets, ws.hits
}
