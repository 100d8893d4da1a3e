package mat

import (
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

// TestParallelThresholdBoundary pins the fan-out decision exactly at the
// threshold. parallelThreshold is documented as the flop count *above*
// which kernels split across the engine; the pre-fix comparison fanned
// out at equality too, so a 64×64×64 multiply (exactly 2¹⁸ flops) paid
// the handoff overhead the constant exists to avoid.
func TestParallelThresholdBoundary(t *testing.T) {
	eng := compute.NewEngine(4)
	defer eng.Close()

	if 64*64*64 != parallelThreshold {
		t.Fatalf("test assumes 64³ == parallelThreshold (%d)", parallelThreshold)
	}
	if fanOut(eng, parallelThreshold) {
		t.Fatal("a problem of exactly parallelThreshold flops must stay serial")
	}
	if !fanOut(eng, parallelThreshold+1) {
		t.Fatal("a problem strictly above parallelThreshold must fan out")
	}
	if fanOut(nil, parallelThreshold+1) {
		t.Fatal("a nil engine must never fan out")
	}
	if fanOut(compute.NewEngine(1), parallelThreshold+1) {
		t.Fatal("a single-lane engine must never fan out")
	}
}

// TestPackedRoutingBoundary pins the naive-vs-packed routing decision at
// exactly gemmMinFlops. The constant was revalidated after the pack
// routines moved to assembly (PR 7): cheaper packing moves the measured
// crossover down, not up, so the inclusive boundary stays correct — a
// problem of exactly gemmMinFlops flops must take the packed route.
func TestPackedRoutingBoundary(t *testing.T) {
	if 16*32*32 != gemmMinFlops {
		t.Fatalf("test assumes 16·32·32 == gemmMinFlops (%d)", gemmMinFlops)
	}
	if !usePacked(16, 32, 32) {
		t.Fatal("a problem of exactly gemmMinFlops must route to the packed GEMM")
	}
	if usePacked(16, 32, 31) {
		t.Fatal("a problem below gemmMinFlops must stay on the naive loops")
	}
	// PackedCols is the routing boundary seen from the column count.
	for _, mk := range [][2]int{{16, 32}, {200, 3}, {200, 5}, {7, 11}, {1, 1}, {1 << 15, 1}} {
		m, k := mk[0], mk[1]
		n := PackedCols(m, k)
		if !usePacked(m, k, n) || (n > 1 && usePacked(m, k, n-1)) {
			t.Fatalf("PackedCols(%d, %d) = %d is not the narrowest packed width", m, k, n)
		}
	}
	if PackedCols(0, 4) != math.MaxInt || PackedCols(4, 0) != math.MaxInt {
		t.Fatal("empty operands must never route packed")
	}
}

// TestThresholdBoundaryBitIdentical runs the three routed kernels at
// exactly the threshold size on a multi-lane engine and requires
// bit-for-bit agreement with the serial path: at the boundary both must
// take the same (serial, packed) route, and above it the panel-aligned
// fan-out preserves per-element accumulation order anyway.
func TestThresholdBoundaryBitIdentical(t *testing.T) {
	eng := compute.NewEngine(4)
	defer eng.Close()
	rng := rand.New(rand.NewSource(17))

	for _, n := range []int{64, 65} { // at the boundary, and just above it
		a := randDense(rng, n, 64)
		b := randDense(rng, 64, 64)
		assertIdentical(t, "Mul@threshold", MulWith(nil, nil, a, b), MulWith(eng, nil, a, b))

		at := randDense(rng, 64, n)
		assertIdentical(t, "MulT@threshold", MulTWith(nil, nil, at, b), MulTWith(eng, nil, at, b))

		g := randDense(rng, n, 64)
		assertIdentical(t, "Gram@threshold", GramWith(nil, nil, g, false), GramWith(eng, nil, g, false))
	}
}
