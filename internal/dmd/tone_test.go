package dmd_test

import (
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/core"
	"imrdmd/internal/mat"
)

// TestPureToneLandsAtPredictedLevel pins the mrDMD semantics the window
// DMD serves: a pure tone across 200 sensors is a fast mode in every
// window too long to hold it under MaxCycles, and a slow mode at the
// first level whose windows are short enough. With T = 1024, DT = 1 and
// MaxCycles = 2, level ℓ keeps |f| ≤ 2·2^(ℓ−1)/1024; a tone of 6/1024
// cycles per step is fast at levels 1–2 (6 and 3 cycles per window) and
// slow at level 3 (1.5 cycles), which must then hold all of it.
func TestPureToneLandsAtPredictedLevel(t *testing.T) {
	const (
		p, n  = 200, 1024
		level = 3
	)
	f := 6.0 / n
	rng := rand.New(rand.NewSource(47))
	data := mat.NewDense(p, n)
	for i := 0; i < p; i++ {
		amp, ph := 0.5+rng.Float64(), 2*math.Pi*rng.Float64()
		row := data.Row(i)
		for k := range row {
			row[k] = amp * math.Sin(2*math.Pi*f*float64(k)+ph)
		}
	}
	tree, err := core.Decompose(data, core.Options{DT: 1, MaxLevels: 5, MaxCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	atLevel := 0
	for _, nd := range tree.Nodes {
		switch {
		case nd.Level < level:
			if len(nd.Modes) != 0 {
				t.Fatalf("level %d window [%d,%d) kept %d slow modes; the tone is fast there",
					nd.Level, nd.Start, nd.End, len(nd.Modes))
			}
		case nd.Level == level:
			atLevel++
			found := 0
			for _, m := range nd.Modes {
				if math.Abs(m.Freq-f) <= 1e-8*f {
					found++
				}
			}
			if found != 2 {
				t.Fatalf("level %d window [%d,%d): %d modes at the tone's frequency %g, want a conjugate pair",
					nd.Level, nd.Start, nd.End, found, f)
			}
		}
	}
	if atLevel != 1<<(level-1) {
		t.Fatalf("%d windows at level %d, want %d", atLevel, level, 1<<(level-1))
	}
	// Level 3 holds the whole tone: levels ≤ 3 reconstruct it, levels ≤ 2
	// hold nothing.
	if e := mat.Sub(tree.ReconstructLevels(level), data).FrobNorm() / data.FrobNorm(); e > 1e-8 {
		t.Fatalf("levels ≤ %d reconstruct the tone to %.3g relative", level, e)
	}
	if e := tree.ReconstructLevels(level-1).FrobNorm() / data.FrobNorm(); e != 0 {
		t.Fatalf("levels < %d carry %.3g of the tone", level, e)
	}
}
