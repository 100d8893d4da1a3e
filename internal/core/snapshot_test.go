package core_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/codec"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
)

// snapshotScenarios are the paper workloads the restore-equivalence
// acceptance criterion runs against.
func snapshotScenarios() []struct {
	name string
	data *mat.Dense
	dt   float64
} {
	return []struct {
		name string
		data *mat.Dense
		dt   float64
	}{
		{"sclog", bench.SCLogData(96, 1536, 1), 20},
		{"gpu", bench.GPUData(96, 1536, 1), 1},
	}
}

// streamScenario runs the streaming pipeline (initial fit + four partial
// fits) over data with the given options and returns the analyzer.
func streamScenario(t *testing.T, data *mat.Dense, opts core.Options) *core.Incremental {
	t.Helper()
	const initialT = 1024
	inc := core.NewIncremental(opts)
	if err := inc.InitialFit(data.ColSlice(0, initialT)); err != nil {
		t.Fatal(err)
	}
	step := (data.C - initialT) / 4
	for c := initialT; c < data.C; c += step {
		hi := c + step
		if hi > data.C {
			hi = data.C
		}
		if _, err := inc.PartialFit(data.ColSlice(c, hi)); err != nil {
			t.Fatal(err)
		}
	}
	return inc
}

// compareTrees asserts that two decompositions of the same stream agree:
// same node windows, same per-node mode counts, frequencies and powers
// within relTol, and reconstruction errors within relTol of each other.
func compareTrees(t *testing.T, label string, got, want *core.Incremental, relTol float64) {
	t.Helper()
	gt, wt := got.Tree(), want.Tree()
	if len(gt.Nodes) != len(wt.Nodes) {
		t.Fatalf("%s: %d nodes vs %d", label, len(gt.Nodes), len(wt.Nodes))
	}
	for i, wn := range wt.Nodes {
		gn := gt.Nodes[i]
		if gn.Level != wn.Level || gn.Start != wn.Start || gn.End != wn.End {
			t.Fatalf("%s node %d: L%d [%d,%d) vs L%d [%d,%d)",
				label, i, gn.Level, gn.Start, gn.End, wn.Level, wn.Start, wn.End)
		}
		if len(gn.Modes) != len(wn.Modes) {
			t.Fatalf("%s node %d (L%d [%d,%d)): %d modes vs %d",
				label, i, wn.Level, wn.Start, wn.End, len(gn.Modes), len(wn.Modes))
		}
		for j, wm := range wn.Modes {
			gm := gn.Modes[j]
			if d := math.Abs(gm.Freq - wm.Freq); d > relTol*(1+math.Abs(wm.Freq)) {
				t.Fatalf("%s node %d mode %d: freq %v vs %v", label, i, j, gm.Freq, wm.Freq)
			}
			if d := math.Abs(gm.Power - wm.Power); d > relTol*(1+wm.Power) {
				t.Fatalf("%s node %d mode %d: power %v vs %v", label, i, j, gm.Power, wm.Power)
			}
		}
	}
	ge, we := got.ReconError(), want.ReconError()
	if d := math.Abs(ge - we); d > relTol*(1+we) {
		t.Fatalf("%s: reconstruction error %v vs %v (rel %g > %g)", label, ge, we, d/(1+we), relTol)
	}
}

// interruptedScenario runs the same stream as streamScenario but pauses
// after two partial fits to snapshot, restore, and finish the remaining
// fits on the restored analyzer.
func interruptedScenario(t *testing.T, data *mat.Dense, opts core.Options) *core.Incremental {
	t.Helper()
	const initialT = 1024
	inc := core.NewIncremental(opts)
	if err := inc.InitialFit(data.ColSlice(0, initialT)); err != nil {
		t.Fatal(err)
	}
	step := (data.C - initialT) / 4
	fit := func(target *core.Incremental, c int) {
		hi := c + step
		if hi > data.C {
			hi = data.C
		}
		if _, err := target.PartialFit(data.ColSlice(c, hi)); err != nil {
			t.Fatal(err)
		}
	}
	fit(inc, initialT)
	fit(inc, initialT+step)

	var buf bytes.Buffer
	if err := inc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.DecodeIncremental(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Cols() != inc.Cols() || restored.Sensors() != inc.Sensors() || restored.Updates() != inc.Updates() {
		t.Fatalf("restored state mismatch: cols %d/%d sensors %d/%d updates %d/%d",
			restored.Cols(), inc.Cols(), restored.Sensors(), inc.Sensors(), restored.Updates(), inc.Updates())
	}
	fit(restored, initialT+2*step)
	fit(restored, initialT+3*step)
	return restored
}

// TestSnapshotRestoreContinuesStream: encode → decode → continue-streaming
// must match an uninterrupted run to 1e-12 on the SC Log and GPU Metrics
// scenarios. (The continuation is bit-compatible by construction — the
// tolerance only pads float compare plumbing.)
func TestSnapshotRestoreContinuesStream(t *testing.T) {
	for _, sc := range snapshotScenarios() {
		opts := core.Options{
			DT: sc.dt, MaxLevels: 4, MaxCycles: 2, UseSVHT: true,
			Parallel: true, BlockColumns: 8,
		}
		want := streamScenario(t, sc.data, opts)
		got := interruptedScenario(t, sc.data, opts)
		compareTrees(t, sc.name, got, want, 1e-12)
	}
}

// TestSnapshotRestoreIdenticalAtRest: a freshly restored analyzer must
// report the identical decomposition — tree, drift log, counters —
// before any further stream arrives.
func TestSnapshotRestoreIdenticalAtRest(t *testing.T) {
	sc := snapshotScenarios()[0]
	opts := core.Options{DT: sc.dt, MaxLevels: 4, MaxCycles: 2, UseSVHT: true, BlockColumns: 8}
	want := streamScenario(t, sc.data, opts)
	var buf bytes.Buffer
	if err := want.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := core.DecodeIncremental(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	compareTrees(t, "at-rest", got, want, 0)
	gd, wd := got.DriftLog(), want.DriftLog()
	if len(gd) != len(wd) {
		t.Fatalf("drift log %d entries vs %d", len(gd), len(wd))
	}
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("drift[%d] %v vs %v", i, gd[i], wd[i])
		}
	}
	if got.Recomputes() != want.Recomputes() {
		t.Fatalf("recomputes %d vs %d", got.Recomputes(), want.Recomputes())
	}
	if d := mat.Sub(got.Raw(), want.Raw()).FrobNorm(); d != 0 {
		t.Fatalf("restored raw history deviates by %g", d)
	}
}

// TestSnapshotErrors pins the failure modes: snapshot before any fit,
// version-mismatched input, truncated input and plain garbage.
func TestSnapshotErrors(t *testing.T) {
	inc := core.NewIncremental(core.Options{})
	if err := inc.Snapshot(io.Discard); err == nil {
		t.Fatal("Snapshot before InitialFit accepted")
	}

	sc := snapshotScenarios()[0]
	fitted := streamScenario(t, sc.data, core.Options{DT: sc.dt, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	var buf bytes.Buffer
	if err := fitted.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Version mismatch: patch the header's version field.
	bad := append([]byte(nil), full...)
	bad[8]++ // first byte of the little-endian version word after the magic
	if _, err := core.DecodeIncremental(bytes.NewReader(bad)); !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}

	// Truncation at several depths: always a clean error.
	for _, cut := range []int{16, len(full) / 3, len(full) - 2} {
		if _, err := core.DecodeIncremental(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}

	if _, err := core.DecodeIncremental(bytes.NewReader([]byte("not a snapshot at all"))); !errors.Is(err, codec.ErrMagic) {
		t.Fatalf("want ErrMagic, got %v", err)
	}
}
