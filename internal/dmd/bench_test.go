package dmd

import (
	"fmt"
	"testing"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
	"imrdmd/internal/telemetry"
)

// telemetryWindow builds a p×t mrDMD-style window: t columns subsampled
// at stride from a synthetic sensor stream of the given profile, the
// shape core.Decompose hands Compute.
func telemetryWindow(prof telemetry.Profile, p, t, stride int, seed int64) (*mat.Dense, float64) {
	full := telemetry.NewGenerator(prof, p, seed).Matrix(0, t*stride)
	return mat.SubsampleWith(nil, full, stride), float64(stride) * prof.SampleInterval
}

// windowShapes span the subsampled window widths (12…26 columns) that
// the production streaming options (max_cycles 2) produce.
var windowShapes = []int{13, 17, 25}

// BenchmarkComputeWindow times one window DMD as the mrDMD subtree runs
// it: SVHT truncation, pooled scratch, the shared engine.
func BenchmarkComputeWindow(b *testing.B) {
	for _, t := range windowShapes {
		data, dt := telemetryWindow(telemetry.PolarisGPU(), 200, t, 8, 5)
		b.Run(fmt.Sprintf("200x%d", t), func(b *testing.B) {
			opts := Options{DT: dt, UseSVHT: true, Ws: compute.NewWorkspace()}
			if _, err := Compute(data, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
