package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"imrdmd/internal/codec"
	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
)

// legacyShards is the shard layout the hand-encoded legacy streams
// declare: Options.Shards and the number of row shards the coordinator
// offsets split p into.
const legacyShards = 2

// coordinatorState is the level-1 payload of a kind-1 (sharded) stream.
type coordinatorState struct {
	offs        []int
	u, v        *mat.Dense
	s           []float64
	maxRank     int
	dropTol     float64
	reorthEvery int
	updates     int
}

// liveCoordinatorState lifts the live level-1 SVD into the coordinator
// layout: the unsharded Encode is read back field by field (the update
// counter and re-orthogonalization period are not otherwise visible
// here) and the p rows are split into legacyShards near-equal shards.
func liveCoordinatorState(t *testing.T, isvd *svd.Incremental) *coordinatorState {
	t.Helper()
	var buf bytes.Buffer
	enc := codec.NewWriter(&buf)
	isvd.Encode(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := codec.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := &coordinatorState{
		u:           dec.Dense(),
		s:           dec.Floats(),
		v:           dec.Dense(),
		maxRank:     dec.Int(),
		dropTol:     dec.Float(),
		reorthEvery: dec.Int(),
		updates:     dec.Int(),
	}
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}
	p := st.u.R
	for sh := 0; sh <= legacyShards; sh++ {
		st.offs = append(st.offs, sh*p/legacyShards)
	}
	return st
}

// legacyShardedStream hand-encodes inc in the version-1 or version-2
// layout a sharded analyzer wrote: Options.Shards = legacyShards and a
// kind-1 coordinator payload (offsets, U, Σ, V, update knobs, the f32
// payload flag, the update counter and seven transport counters).
// mutate, when non-nil, edits the coordinator state before it is
// written.
func legacyShardedStream(t *testing.T, inc *Incremental, version uint32, mutate func(*coordinatorState)) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := codec.NewWriterVersion(&buf, version)
	o := inc.opts
	enc.Float(o.DT)
	enc.Int(o.MaxLevels)
	enc.Int(o.MaxCycles)
	enc.Int(o.NyquistFactor)
	enc.Int(o.Rank)
	enc.Bool(o.UseSVHT)
	enc.Int(o.MinWindow)
	enc.Bool(o.Parallel)
	enc.Int(o.Workers)
	enc.Int(o.BlockColumns)
	enc.String(o.Precision)
	enc.Int(legacyShards)
	if version >= 2 {
		enc.Int(o.DriftWindow)
		enc.Int(o.AmplitudeWindow)
		enc.Int(o.ColdHorizon)
	}
	enc.Float(inc.DriftThreshold)
	enc.Bool(inc.AsyncRecompute)
	enc.Int(inc.p)
	if version >= 2 {
		enc.Int(inc.hist.ChunkCols())
		cold := inc.hist.ColdChunks()
		enc.Int(len(cold))
		for _, ch := range cold {
			enc.Dense32(ch)
		}
		enc.Dense(inc.hist.Hot())
	} else {
		enc.Dense(inc.hist.Promote())
	}
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

	st := liveCoordinatorState(t, inc.isvd)
	if mutate != nil {
		mutate(st)
	}
	enc.Int(isvdSharded)
	enc.Ints(st.offs)
	enc.Dense(st.u)
	enc.Floats(st.s)
	enc.Dense(st.v)
	enc.Int(st.maxRank)
	enc.Float(st.dropTol)
	enc.Int(st.reorthEvery)
	enc.Bool(false) // f32 payload flag
	enc.Int(st.updates)
	for i := 0; i < 6; i++ {
		enc.Int(st.updates) // transport counters
	}
	enc.I64(1 << 20) // transport bytes
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// level1Equal asserts two analyzers hold bit-identical level-1 factors.
func level1Equal(t *testing.T, ctx string, a, b *Incremental) {
	t.Helper()
	ra, rb := a.isvd.ResultView(), b.isvd.ResultView()
	if len(ra.S) != len(rb.S) || ra.U.R != rb.U.R || ra.V.R != rb.V.R {
		t.Fatalf("%s: level-1 shapes differ: U %d×%d V %d×%d vs U %d×%d V %d×%d", ctx,
			ra.U.R, ra.U.C, ra.V.R, ra.V.C, rb.U.R, rb.U.C, rb.V.R, rb.V.C)
	}
	for i := range ra.S {
		if ra.S[i] != rb.S[i] {
			t.Fatalf("%s: σ[%d] %v vs %v", ctx, i, ra.S[i], rb.S[i])
		}
	}
	for i := range ra.U.Data {
		if ra.U.Data[i] != rb.U.Data[i] {
			t.Fatalf("%s: U element %d differs", ctx, i)
		}
	}
	for i := range ra.V.Data {
		if ra.V.Data[i] != rb.V.Data[i] {
			t.Fatalf("%s: V element %d differs", ctx, i)
		}
	}
}

// TestLegacyShardedSnapshotRestores: v1 and v2 streams written by a
// sharded analyzer (Options.Shards = 2, kind-1 coordinator payload) must
// decode onto the unsharded level-1 SVD with bit-identical factors, and
// continue a PartialFit and an AddSensors bit-identically to the live
// original.
func TestLegacyShardedSnapshotRestores(t *testing.T) {
	for _, version := range []uint32{1, 2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			rng := rand.New(rand.NewSource(95))
			data, _ := multiscale(rng, 10, 768, 1, 0.1)
			base := data.RowSlice(0, 8)
			inc := NewIncremental(defaultOpts())
			if err := inc.InitialFit(base.ColSlice(0, 512)); err != nil {
				t.Fatal(err)
			}
			if _, err := inc.PartialFit(base.ColSlice(512, 640)); err != nil {
				t.Fatal(err)
			}

			restored, err := DecodeIncremental(bytes.NewReader(legacyShardedStream(t, inc, version, nil)))
			if err != nil {
				t.Fatalf("legacy sharded v%d stream rejected: %v", version, err)
			}
			level1Equal(t, "decoded", restored, inc)
			treesEqual(t, restored, inc)

			// A restored analyzer snapshots as unsharded state: the same
			// bytes the live original writes.
			var live, again bytes.Buffer
			if err := inc.Snapshot(&live); err != nil {
				t.Fatal(err)
			}
			if err := restored.Snapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live.Bytes(), again.Bytes()) {
				t.Fatal("re-snapshot of the restored analyzer differs from the live original's")
			}

			blk := base.ColSlice(640, 704)
			sa, err := inc.PartialFit(blk)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := restored.PartialFit(blk.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if sa.Drift != sb.Drift {
				t.Fatalf("post-restore drift %v != live %v (must be bit-identical)", sb.Drift, sa.Drift)
			}
			level1Equal(t, "after PartialFit", restored, inc)

			newRows := data.RowSlice(8, 10).ColSlice(0, 704)
			if err := inc.AddSensors(newRows); err != nil {
				t.Fatal(err)
			}
			if err := restored.AddSensors(newRows.Clone()); err != nil {
				t.Fatal(err)
			}
			level1Equal(t, "after AddSensors", restored, inc)
			treesEqual(t, restored, inc)

			blk = data.ColSlice(704, 768)
			if sa, err = inc.PartialFit(blk); err != nil {
				t.Fatal(err)
			}
			if sb, err = restored.PartialFit(blk.Clone()); err != nil {
				t.Fatal(err)
			}
			if sa.Drift != sb.Drift {
				t.Fatalf("post-AddSensors drift %v != live %v (must be bit-identical)", sb.Drift, sa.Drift)
			}
			level1Equal(t, "after AddSensors + PartialFit", restored, inc)
			treesEqual(t, restored, inc)
		})
	}
}

// TestDecodeLegacyCoordinatorRejectsCorruptShapes: a kind-1 payload whose
// shard offsets or factor shapes are inconsistent must fail decode with
// an error, never panic later.
func TestDecodeLegacyCoordinatorRejectsCorruptShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	data, _ := multiscale(rng, 8, 640, 1, 0.1)
	inc := NewIncremental(defaultOpts())
	if err := inc.InitialFit(data.ColSlice(0, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.PartialFit(data.ColSlice(512, 640)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(st *coordinatorState)
	}{
		{"offsets short of U rows", func(st *coordinatorState) { st.offs = []int{0, 4, st.u.R - 1} }},
		{"offsets past U rows", func(st *coordinatorState) { st.offs = []int{0, 4, st.u.R + 1} }},
		{"offsets not from zero", func(st *coordinatorState) { st.offs = []int{1, 4, st.u.R} }},
		{"single offset", func(st *coordinatorState) { st.offs = []int{0} }},
		{"non-monotone offsets", func(st *coordinatorState) { st.offs = []int{0, 6, 3, st.u.R} }},
		{"U rank mismatch", func(st *coordinatorState) { st.u = st.u.ColSlice(0, st.u.C-1) }},
		{"V rank mismatch", func(st *coordinatorState) { st.v = st.v.ColSlice(0, st.v.C-1) }},
		{"S rank mismatch", func(st *coordinatorState) { st.s = st.s[:len(st.s)-1] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stream := legacyShardedStream(t, inc, 2, c.mutate)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked: %v", r)
				}
			}()
			if _, err := DecodeIncremental(bytes.NewReader(stream)); err == nil {
				t.Fatal("corrupt coordinator payload accepted")
			}
		})
	}
}
