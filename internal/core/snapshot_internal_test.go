package core

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"imrdmd/internal/mat"
)

// TestValidateDecodedInvariants exercises the structural checks a
// checksum-valid-but-wrong snapshot must die on at restore time: the
// grid-index invariant whose violation would send PartialFit's gather
// loop out of range, and the level-1 factor shape checks. White-box: a
// genuinely fitted analyzer satisfies the invariants, and each mutation
// below must flip validation to an error.
func TestValidateDecodedInvariants(t *testing.T) {
	data := mat.NewDense(6, 64)
	for i := range data.Data {
		data.Data[i] = 50 + 3*math.Sin(float64(i)/9)
	}
	inc := NewIncremental(Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := inc.InitialFit(data); err != nil {
		t.Fatal(err)
	}
	if err := inc.validateDecoded(); err != nil {
		t.Fatalf("fitted analyzer fails its own invariants: %v", err)
	}

	mutate := func(name string, f func(), undo func()) {
		f()
		if err := inc.validateDecoded(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		undo()
		if err := inc.validateDecoded(); err != nil {
			t.Fatalf("%s: undo left analyzer invalid: %v", name, err)
		}
	}

	ns := inc.nextSample
	mutate("negative nextSample",
		func() { inc.nextSample = -100 },
		func() { inc.nextSample = ns })
	mutate("runaway nextSample",
		func() { inc.nextSample = inc.hist.Cols() + 100*inc.stride1 },
		func() { inc.nextSample = ns })
	if inc.stride1 < 2 {
		t.Fatalf("test premise: want stride > 1, got %d", inc.stride1)
	}
	mutate("misaligned nextSample",
		func() { inc.nextSample = ns + 1 },
		func() { inc.nextSample = ns })
	p := inc.p
	mutate("sensor-count mismatch",
		func() { inc.p = p + 3 },
		func() { inc.p = p })
	st := inc.stride1
	mutate("zero stride",
		func() { inc.stride1 = 0 },
		func() { inc.stride1 = st })
	segs := inc.segments
	mutate("segment outside history",
		func() { inc.segments = append(segs, &segment{start: 10, end: inc.hist.Cols() + 50}) },
		func() { inc.segments = segs })
}

// TestValidateDecodedNodeInvariants: tree-node corruption (window out of
// range, short spatial vectors) must fail validation — these are indexed
// unchecked by reconstruction and spectrum queries.
func TestValidateDecodedNodeInvariants(t *testing.T) {
	data := mat.NewDense(6, 64)
	for i := range data.Data {
		data.Data[i] = 50 + 3*math.Sin(float64(i)/9)
	}
	inc := NewIncremental(Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := inc.InitialFit(data); err != nil {
		t.Fatal(err)
	}
	if err := inc.validateDecoded(); err != nil {
		t.Fatal(err)
	}

	end := inc.level1.End
	inc.level1.End = inc.hist.Cols() + 7
	if err := inc.validateDecoded(); err == nil {
		t.Fatal("node window past history accepted")
	}
	inc.level1.End = end

	if len(inc.level1.Modes) == 0 {
		t.Fatal("test premise: want level-1 modes")
	}
	phi := inc.level1.Modes[0].Phi
	inc.level1.Modes[0].Phi = phi[:len(phi)-2]
	if err := inc.validateDecoded(); err == nil {
		t.Fatal("short spatial vector accepted")
	}
	inc.level1.Modes[0].Phi = phi
	if err := inc.validateDecoded(); err != nil {
		t.Fatal(err)
	}
}

// fittedForRestore returns a small fitted analyzer whose snapshot the
// pool-sizing tests tamper with.
func fittedForRestore(t *testing.T) *Incremental {
	t.Helper()
	data := mat.NewDense(6, 64)
	for i := range data.Data {
		data.Data[i] = 50 + 3*math.Sin(float64(i)/9)
	}
	inc := NewIncremental(Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := inc.InitialFit(data); err != nil {
		t.Fatal(err)
	}
	return inc
}

// TestRestoreRejectsWorkersAboveBound: a validly checksummed snapshot
// that claims more than MaxWorkers pool lanes fails to restore, and no
// pool is sized from the claim. The claim is one lane past the bound, so
// a regression would build a MaxWorkers-lane pool, which the goroutine
// count catches, rather than an unbounded one.
func TestRestoreRejectsWorkersAboveBound(t *testing.T) {
	inc := fittedForRestore(t)
	inc.opts.Workers = MaxWorkers + 1 // as a tampered or buggy writer would
	var snap bytes.Buffer
	if err := inc.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	_, err := DecodeIncremental(bytes.NewReader(snap.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("restore with Workers = %d: got %v, want a Workers bound error", MaxWorkers+1, err)
	}
	if grown := runtime.NumGoroutine() - before; grown >= MaxWorkers/2 {
		t.Fatalf("rejected restore started %d goroutines", grown)
	}
}

// TestRestoreSizesPoolAfterChecksum: the snapshot's own Workers sizes a
// pool only after the checksum trailer and the structural checks have
// held. A stream whose trailer is broken fails without starting the
// pool; the intact stream then starts it, which shows the goroutine
// count sees a pool when one is built.
func TestRestoreSizesPoolAfterChecksum(t *testing.T) {
	const lanes = 61 // a pool size no other test asks for
	inc := fittedForRestore(t)
	inc.opts.Workers = lanes
	var snap bytes.Buffer
	if err := inc.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	broken := bytes.Clone(snap.Bytes())
	broken[len(broken)-1] ^= 0xff

	before := runtime.NumGoroutine()
	if _, err := DecodeIncremental(bytes.NewReader(broken)); err == nil {
		t.Fatal("stream with a broken checksum trailer restored")
	}
	if grown := runtime.NumGoroutine() - before; grown >= lanes/2 {
		t.Fatalf("failed restore started %d goroutines", grown)
	}
	restored, err := DecodeIncremental(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if w := restored.eng.Workers(); w != lanes {
		t.Fatalf("restored engine has %d lanes, want %d", w, lanes)
	}
	if grown := runtime.NumGoroutine() - before; grown < lanes/2 {
		t.Fatalf("intact restore started only %d goroutines for a %d-lane pool", grown, lanes)
	}
}
