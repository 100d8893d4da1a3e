package core

import (
	"errors"
	"fmt"
	"io"

	"imrdmd/internal/codec"
	"imrdmd/internal/compute"
	"imrdmd/internal/dmd"
	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
)

// This file is the snapshot/restore layer of the I-mrDMD state machine:
// the complete analyzer state — options, absorbed history, the level-1
// sample grid, the multi-level window tree, the incremental SVD and every
// counter that phases future updates — serialized through the
// internal/codec wire format. A decoded analyzer continues a
// PartialFit stream bit-compatibly with the uninterrupted original, which
// is what makes long-running tenants restartable and migratable (see
// DESIGN.md §8).

// isvd kind tags written before the level-1 SVD payload. Snapshot always
// writes isvdUnsharded; isvdSharded tags streams from releases that could
// row-shard the level-1 SVD, whose state decodes into the same
// svd.Incremental.
const (
	isvdUnsharded = 0
	isvdSharded   = 1
)

// Snapshot serializes the analyzer's full state to w. It waits for any
// in-flight asynchronous recomputations first (so the snapshot is a
// consistent post-recompute state), then holds the state lock for the
// duration of the write. Snapshot before InitialFit is an error — there
// is no state to save.
func (inc *Incremental) Snapshot(w io.Writer) error {
	inc.wg.Wait()
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.hist == nil {
		return errors.New("core: Snapshot before InitialFit")
	}
	enc := codec.NewWriter(w)
	encodeOptions(enc, inc.opts)
	enc.Float(inc.DriftThreshold)
	enc.Bool(inc.AsyncRecompute)
	enc.Int(inc.p)
	// History, tier-structured (format v2): cold f32 chunks then the hot
	// f64 tail. A v1 stream holds the same columns as one f64 matrix.
	enc.Int(inc.hist.ChunkCols())
	cold := inc.hist.ColdChunks()
	enc.Int(len(cold))
	for _, ch := range cold {
		enc.Dense32(ch)
	}
	enc.Dense(inc.hist.Hot())
	enc.Int(inc.stride1)
	enc.Dense(inc.sub1)
	enc.Int(inc.nextSample)
	encodeNode(enc, inc.level1)
	enc.Int(len(inc.segments))
	for _, seg := range inc.segments {
		enc.Int(seg.start)
		enc.Int(seg.end)
		enc.Int(len(seg.nodes))
		for _, nd := range seg.nodes {
			encodeNode(enc, nd)
		}
	}
	enc.Int(inc.updates)
	enc.Int(inc.recomputes)
	enc.Floats(inc.driftLogChrono())
	enc.Int(isvdUnsharded)
	inc.isvd.Encode(enc)
	return enc.Close()
}

// DecodeIncremental reconstructs an analyzer written by Snapshot,
// resolving the compute engine from the snapshot's own Workers option.
func DecodeIncremental(r io.Reader) (*Incremental, error) {
	return DecodeIncrementalWith(r, nil)
}

// DecodeIncrementalWith is DecodeIncremental with an explicit engine —
// the hook a multi-tenant server uses to land every restored analyzer on
// its one bounded pool regardless of what the snapshot was running on.
// nil eng defers to the snapshot's options.
func DecodeIncrementalWith(r io.Reader, eng *compute.Engine) (*Incremental, error) {
	dec, err := codec.NewReader(r)
	if err != nil {
		return nil, err
	}
	opts, precision := decodeOptions(dec)
	driftThreshold := dec.Float()
	asyncRecompute := dec.Bool()
	p := dec.Len()
	var hist *mat.TieredCols
	if dec.Version() >= 2 {
		chunk := dec.Int()
		nCold := dec.Len()
		cold := make([]*mat.Dense32, 0, minCap(nCold, 64))
		for i := 0; i < nCold && dec.Err() == nil; i++ {
			cold = append(cold, dec.Dense32())
		}
		hot := dec.Dense()
		if dec.Err() == nil {
			var terr error
			hist, terr = mat.TieredFromParts(cold, hot, chunk)
			if terr != nil {
				return nil, fmt.Errorf("%w: %v", codec.ErrCorrupt, terr)
			}
		}
	} else if raw := dec.Dense(); raw != nil {
		// v1: one all-f64 history matrix.
		hist = mat.NewTieredCols(raw)
	}
	stride1 := dec.Int()
	sub1 := dec.Dense()
	nextSample := dec.Int()
	level1 := decodeNode(dec)
	var segments []*segment
	nSeg := dec.Len()
	for i := 0; i < nSeg && dec.Err() == nil; i++ {
		seg := &segment{start: dec.Int(), end: dec.Int()}
		nNodes := dec.Len()
		for j := 0; j < nNodes && dec.Err() == nil; j++ {
			seg.nodes = append(seg.nodes, decodeNode(dec))
		}
		segments = append(segments, seg)
	}
	updates := dec.Int()
	recomputes := dec.Int()
	driftLog := dec.Floats()
	// v1 streams carry the full unbounded log; keep the trailing window
	// the ring would have retained.
	if len(driftLog) > driftLogCap {
		driftLog = driftLog[len(driftLog)-driftLogCap:]
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if !KnownPrecision(precision) {
		return nil, fmt.Errorf("%w: unknown precision tier %q", codec.ErrCorrupt, precision)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	ws := compute.NewWorkspace()

	inc := &Incremental{
		DriftThreshold: driftThreshold,
		AsyncRecompute: asyncRecompute,
		opts:           opts,
		p:              p,
		ws:             ws,
		hist:           hist,
		stride1:        stride1,
		sub1:           sub1,
		nextSample:     nextSample,
		level1:         level1,
		segments:       segments,
		updates:        updates,
		recomputes:     recomputes,
		driftLog:       driftLog,
		driftPos:       len(driftLog) % driftLogCap,
	}

	var isvd *svd.Incremental
	switch kind := dec.Int(); kind {
	case isvdUnsharded:
		isvd, err = svd.DecodeIncrementalState(dec, eng, ws)
	case isvdSharded:
		isvd, err = svd.DecodeShardedState(dec, eng, ws)
	default:
		if err = dec.Err(); err == nil {
			err = fmt.Errorf("%w: unknown level-1 SVD kind %d", codec.ErrCorrupt, kind)
		}
	}
	if err != nil {
		return nil, err
	}
	inc.isvd = isvd
	if err := dec.Close(); err != nil {
		return nil, err
	}
	if err := inc.validateDecoded(); err != nil {
		return nil, err
	}
	// The snapshot's own Workers sizes a goroutine pool, so it is trusted
	// only once the checksum and the structure have held.
	if eng == nil {
		eng = opts.engine()
	}
	inc.eng = eng
	isvd.SetEngine(eng)
	return inc, nil
}

// validateDecoded cross-checks the structural invariants PartialFit
// assumes, so a corrupt-but-checksum-valid stream (or a format bug) fails
// at restore time with a clear error instead of panicking mid-update.
func (inc *Incremental) validateDecoded() error {
	if inc.hist == nil || inc.sub1 == nil || inc.level1 == nil {
		return errors.New("core: decoded snapshot structurally incomplete")
	}
	if inc.hist.Rows() != inc.p || inc.sub1.R != inc.p {
		return fmt.Errorf("core: decoded row counts inconsistent (p=%d, raw %d, sub1 %d)",
			inc.p, inc.hist.Rows(), inc.sub1.R)
	}
	if inc.stride1 < 1 {
		return fmt.Errorf("core: decoded level-1 stride %d invalid", inc.stride1)
	}
	if inc.sub1.C < 2 || inc.sub1.C > inc.hist.Cols() {
		return fmt.Errorf("core: decoded sample grid (%d columns) inconsistent with %d absorbed columns",
			inc.sub1.C, inc.hist.Cols())
	}
	// nextSample is the next level-1 grid index: a stride multiple in
	// (raw.C - stride1, raw.C + stride1]. Anything else sends PartialFit's
	// grid loop out of range (negative gather indices) or into a
	// billion-iteration append — fail here instead.
	if t := inc.hist.Cols(); inc.nextSample%inc.stride1 != 0 || inc.nextSample < t || inc.nextSample > t+inc.stride1 {
		return fmt.Errorf("core: decoded next sample index %d inconsistent with %d columns at stride %d",
			inc.nextSample, t, inc.stride1)
	}
	// The level-1 SVD tracks X = sub1[:, :ns-1]: its factors must agree
	// with the sensor dimension and the grid width, or the next update's
	// GEMMs panic on shape.
	res := inc.isvd.ResultView()
	if res.U.R != inc.p || res.V.R != inc.sub1.C-1 {
		return fmt.Errorf("core: decoded level-1 SVD shape %d×%d factors for %d sensors × %d grid columns",
			res.U.R, res.V.R, inc.p, inc.sub1.C)
	}
	if err := inc.validateDecodedNode(inc.level1); err != nil {
		return err
	}
	for _, seg := range inc.segments {
		if seg.start < 0 || seg.end > inc.hist.Cols() || seg.end < seg.start {
			return fmt.Errorf("core: decoded segment window [%d,%d) outside the %d absorbed columns",
				seg.start, seg.end, inc.hist.Cols())
		}
		for _, nd := range seg.nodes {
			if err := inc.validateDecodedNode(nd); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateDecodedNode checks the per-node invariants reconstruction and
// spectrum queries index by: the window inside the absorbed history and
// every mode's spatial vector spanning the sensor dimension.
func (inc *Incremental) validateDecodedNode(n *Node) error {
	if n.Start < 0 || n.End > inc.hist.Cols() || n.End < n.Start || n.Stride < 1 {
		return fmt.Errorf("core: decoded node window [%d,%d) stride %d outside the %d absorbed columns",
			n.Start, n.End, n.Stride, inc.hist.Cols())
	}
	for i := range n.Modes {
		if len(n.Modes[i].Phi) != inc.p {
			return fmt.Errorf("core: decoded mode %d of node [%d,%d) has %d-sensor spatial vector, want %d",
				i, n.Start, n.End, len(n.Modes[i].Phi), inc.p)
		}
	}
	return nil
}

// Options returns the analyzer's (default-filled) configuration — what a
// restored public Analyzer re-wraps.
func (inc *Incremental) Options() Options {
	return inc.opts
}

// precisionFloat64 fills the options' precision slot. Older releases
// wrote "float64" or "mixed" there to pick a window-DMD tier; there is
// one tier now, and the slot stays so the format is unchanged.
const precisionFloat64 = "float64"

// KnownPrecision reports whether s is a precision tier an older release
// could name in a snapshot or a tenant's options: "", "float64" or
// "mixed". Every one of them runs the one float64 path (DESIGN.md §6).
func KnownPrecision(s string) bool {
	return s == "" || s == precisionFloat64 || s == "mixed"
}

// encodeOptions writes every persistent Options field. The runtime-only
// Engine override is deliberately not serialized: a snapshot restored in
// another process resolves its pool from Workers (or the restorer's
// explicit engine).
func encodeOptions(w *codec.Writer, o Options) {
	w.Float(o.DT)
	w.Int(o.MaxLevels)
	w.Int(o.MaxCycles)
	w.Int(o.NyquistFactor)
	w.Int(o.Rank)
	w.Bool(o.UseSVHT)
	w.Int(o.MinWindow)
	w.Bool(o.Parallel)
	w.Int(o.Workers)
	w.Int(o.BlockColumns)
	w.String(precisionFloat64)
	w.Int(1) // legacy shard count: the level-1 SVD is never sharded
	w.Int(o.DriftWindow)
	w.Int(o.AmplitudeWindow)
	w.Int(o.ColdHorizon)
}

// decodeOptions reads the fields encodeOptions writes, returning the
// legacy precision slot alongside for the caller to check.
func decodeOptions(r *codec.Reader) (Options, string) {
	o := Options{
		DT:            r.Float(),
		MaxLevels:     r.Int(),
		MaxCycles:     r.Int(),
		NyquistFactor: r.Int(),
		Rank:          r.Int(),
		UseSVHT:       r.Bool(),
		MinWindow:     r.Int(),
		Parallel:      r.Bool(),
		Workers:       r.Int(),
		BlockColumns:  r.Int(),
	}
	precision := r.String()
	r.Int() // legacy shard count, ignored: the level-1 SVD runs unsharded
	if r.Version() >= 2 {
		o.DriftWindow = r.Int()
		o.AmplitudeWindow = r.Int()
		o.ColdHorizon = r.Int()
	}
	return o, precision
}

func minCap(n, cap int) int {
	if n < cap {
		return n
	}
	return cap
}

// encodeNode writes one tree node with its retained modes.
func encodeNode(w *codec.Writer, n *Node) {
	w.Int(n.Level)
	w.Int(n.Start)
	w.Int(n.End)
	w.Int(n.Stride)
	w.Int(n.NumAllModes)
	w.Int(len(n.Modes))
	for i := range n.Modes {
		m := &n.Modes[i]
		w.Complexes(m.Phi)
		w.Complex(m.Lambda)
		w.Complex(m.Psi)
		w.Complex(m.Amp)
		w.Float(m.Freq)
		w.Float(m.Power)
	}
}

func decodeNode(r *codec.Reader) *Node {
	n := &Node{
		Level:       r.Int(),
		Start:       r.Int(),
		End:         r.Int(),
		Stride:      r.Int(),
		NumAllModes: r.Int(),
	}
	nModes := r.Len()
	for i := 0; i < nModes && r.Err() == nil; i++ {
		n.Modes = append(n.Modes, dmd.Mode{
			Phi:    r.Complexes(),
			Lambda: r.Complex(),
			Psi:    r.Complex(),
			Amp:    r.Complex(),
			Freq:   r.Float(),
			Power:  r.Float(),
		})
	}
	return n
}
