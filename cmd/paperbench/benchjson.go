package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"imrdmd/internal/bench"
	"imrdmd/internal/compute"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
	"imrdmd/internal/telemetry"
)

// benchSnapshot is the perf-trajectory record emitted by -bench-json: the
// hot-path metrics the kernel work optimizes (dense multiply variants and
// streamed PartialFit), captured per PR so regressions are diffable.
type benchSnapshot struct {
	GOOS         string                 `json:"goos"`
	GOARCH       string                 `json:"goarch"`
	GoVersion    string                 `json:"go_version"`
	GOAMD64      string                 `json:"goamd64,omitempty"`
	GOMAXPROCS   int                    `json:"gomaxprocs"`
	Workers      int                    `json:"workers"`
	BlockColumns int                    `json:"block_columns"`
	Kernel       benchKernel            `json:"kernel"`
	Benchmarks   map[string]benchMetric `json:"benchmarks"`
}

// benchKernel records the GEMM dispatch configuration the snapshot ran
// under — without the ISA tier and derived blocking, kernel GFLOPS are not
// comparable across hosts or across PRs that change the autotuner.
type benchKernel struct {
	// Tier is the micro-kernel family chosen at boot: "avx512", "avx2" or
	// "generic" (hardware-detected, possibly capped by IMRDMD_GEMM_KERNEL).
	Tier string `json:"tier"`
	// Tuned is false when IMRDMD_GEMM_TUNE=off pinned the historical
	// blocking instead of deriving it from the cache probe.
	Tuned bool `json:"tuned"`
	// L1D/L2/L3 are the probed per-core cache sizes in bytes (0 = unknown).
	L1DBytes int `json:"l1d_bytes,omitempty"`
	L2Bytes  int `json:"l2_bytes,omitempty"`
	L3Bytes  int `json:"l3_bytes,omitempty"`
	// F64 is the tile geometry and KC/MC/NC blocking.
	F64 benchKernelParams `json:"f64"`
}

type benchKernelParams struct {
	MR int `json:"mr"`
	NR int `json:"nr"`
	KC int `json:"kc"`
	MC int `json:"mc"`
	NC int `json:"nc"`
}

func kernelSnapshot() benchKernel {
	ki := mat.Kernel()
	pub := func(p mat.KernelParams) benchKernelParams {
		return benchKernelParams{MR: p.MR, NR: p.NR, KC: p.KC, MC: p.MC, NC: p.NC}
	}
	return benchKernel{
		Tier:     ki.Tier,
		Tuned:    ki.Tuned,
		L1DBytes: ki.L1D,
		L2Bytes:  ki.L2,
		L3Bytes:  ki.L3,
		F64:      pub(ki.F64),
	}
}

// printKernelInfo dumps the boot-time GEMM configuration (the -kernel-info
// flag; CI's bench smoke prints it so every log records which tier ran).
func printKernelInfo() {
	ki := mat.Kernel()
	fmt.Printf("gemm kernel: tier=%s tuned=%v goamd64=%q\n", ki.Tier, ki.Tuned, goamd64Setting())
	fmt.Printf("caches: L1d=%d L2=%d L3=%d bytes\n", ki.L1D, ki.L2, ki.L3)
	fmt.Printf("f64: MR=%d NR=%d KC=%d MC=%d NC=%d\n", ki.F64.MR, ki.F64.NR, ki.F64.KC, ki.F64.MC, ki.F64.NC)
}

// goamd64Setting reports the GOAMD64 microarchitecture level the binary
// was compiled for (from the embedded build info; empty if unrecorded).
func goamd64Setting() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	return ""
}

type benchMetric struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	N           int   `json:"n"`
	// GFLOPS is reported for kernel benchmarks with a closed-form flop
	// count (multiply/Gram); higher-level pipeline benchmarks omit it.
	GFLOPS float64 `json:"gflops,omitempty"`
	// Ingest-throughput entries (the server benchmark) report end-to-end
	// batch rate and tail latency instead of flops: NsPerOp is the mean
	// per-batch HTTP round trip, these carry the distribution.
	BatchesPerSec float64 `json:"batches_per_sec,omitempty"`
	P50Ms         float64 `json:"p50_ms,omitempty"`
	P99Ms         float64 `json:"p99_ms,omitempty"`
	// Query-throughput entries report the lock-free read path: sustained
	// reads/s across Readers concurrent pollers (NsPerOp is the mean read
	// round trip, ReadP* the read-side tail) while the same tenant keeps
	// streaming PartialFit batches — whose in-window latency rides in
	// BatchesPerSec/P50Ms/P99Ms above.
	Readers     int     `json:"readers,omitempty"`
	ReadsPerSec float64 `json:"reads_per_sec,omitempty"`
	ReadP50Ms   float64 `json:"read_p50_ms,omitempty"`
	ReadP99Ms   float64 `json:"read_p99_ms,omitempty"`
	// Longrun entries (the flat-horizon streaming sweep) report the
	// per-tenant resident raw-history footprint at the probe point from
	// the analyzer's own tier accounting, and how many of those columns
	// sit in the f32 cold tier. Their NsPerOp is the median of N
	// hand-timed batches on one long-lived analyzer, not a
	// testing.Benchmark rebuild loop.
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	RawColdCols   int   `json:"raw_cold_cols,omitempty"`
}

func metricOf(r testing.BenchmarkResult) benchMetric {
	return benchMetric{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
	}
}

// kernelMetricOf is metricOf plus the GFLOPS rate for a kernel that
// executes the given number of floating-point operations per op.
func kernelMetricOf(r testing.BenchmarkResult, flops int64) benchMetric {
	m := metricOf(r)
	if m.NsPerOp > 0 {
		m.GFLOPS = float64(flops) / float64(m.NsPerOp)
	}
	return m
}

// writeBenchJSON runs the kernel and PartialFit micro-benchmarks
// in-process and writes the snapshot to path (e.g. BENCH_pr2.json).
func writeBenchJSON(path string, workers int) error {
	// The streaming benchmark runs with block-column updates enabled (the
	// production streaming configuration); the accuracy-equivalence of
	// block sizes is test-enforced in internal/core.
	const blockColumns = 8
	snap := benchSnapshot{
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GoVersion:    runtime.Version(),
		GOAMD64:      goamd64Setting(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      workers,
		BlockColumns: blockColumns,
		Kernel:       kernelSnapshot(),
		Benchmarks:   map[string]benchMetric{},
	}

	// Kernel sweep over the cache-behavior regimes: 256 (operands fit L2),
	// 512 (the historical trajectory size) and 1024 (panel streaming from
	// L3). Each size gets multiply and Gram. MulT rides along at 512 only
	// (its packing absorbs the transpose, so its rate tracks mul's).
	rng := rand.New(rand.NewSource(1))
	// Route through the same engine the workers flag selects so the
	// snapshot's numbers match its recorded configuration.
	eng := compute.Shared(workers)
	for _, n := range []int{256, 512, 1024} {
		a := mat.NewDense(n, n)
		b := mat.NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		mulFlops := 2 * int64(n) * int64(n) * int64(n)
		sz := fmt.Sprintf("%dx%d", n, n)
		snap.Benchmarks["mul_"+sz] = kernelMetricOf(testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				_ = mat.MulWith(eng, nil, a, b)
			}
		}), mulFlops)
		snap.Benchmarks["gram_rows_"+sz] = kernelMetricOf(testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				_ = mat.GramWith(eng, nil, a, false)
			}
		}), mulFlops)
		if n == 512 {
			snap.Benchmarks["mult_"+sz] = kernelMetricOf(testing.Benchmark(func(tb *testing.B) {
				tb.ReportAllocs()
				for i := 0; i < tb.N; i++ {
					_ = mat.MulTWith(eng, nil, a, b)
				}
			}), mulFlops)
		}
	}

	// Tall-skinny sweep over the streaming hot shapes (see DESIGN.md §5):
	// proj_* is the per-update Uᵀ·C projection (tiny output, huge inner
	// dimension) at the two rank caps the analyzer runs between, and
	// skinny_mul_* covers the skinny-B and rank-w outer-product classes.
	// These route through the pack-free skinny tier; IMRDMD_GEMM_SKINNY=off
	// re-times the identical shapes on the packed path.
	for _, q := range []int{32, 64} {
		const pdim, w = 4096, 8
		u := mat.NewDense(pdim, q)
		c := mat.NewDense(pdim, w)
		for i := range u.Data {
			u.Data[i] = rng.NormFloat64()
		}
		for i := range c.Data {
			c.Data[i] = rng.NormFloat64()
		}
		projFlops := 2 * int64(q) * int64(pdim) * int64(w)
		snap.Benchmarks[fmt.Sprintf("proj_q%d_p%d_w%d", q, pdim, w)] = kernelMetricOf(testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			dst := mat.NewDense(q, w)
			for i := 0; i < tb.N; i++ {
				mat.MulTIntoWith(eng, dst, u, c)
			}
		}), projFlops)
	}
	for _, sh := range []struct{ m, k, n int }{{200, 64, 8}, {200, 8, 48}} {
		a := mat.NewDense(sh.m, sh.k)
		b := mat.NewDense(sh.k, sh.n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		flops := 2 * int64(sh.m) * int64(sh.k) * int64(sh.n)
		snap.Benchmarks[fmt.Sprintf("skinny_mul_%dx%dx%d", sh.m, sh.k, sh.n)] = kernelMetricOf(testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			dst := mat.NewDense(sh.m, sh.n)
			for i := 0; i < tb.N; i++ {
				mat.MulIntoWith(eng, dst, a, b)
			}
		}), flops)
	}

	// Fixed streaming episode per iteration: rebuild the analyzer (off
	// the clock) and time five 40-column partial fits over T=2000→2200.
	// Keeping the absorbed range identical every iteration makes the
	// recorded numbers independent of how high testing.Benchmark scales
	// N, so snapshots stay comparable across machines and PRs.
	data := bench.SCLogData(200, 2200, 1)
	opts := core.Options{
		DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true,
		Parallel: true, Workers: workers, BlockColumns: blockColumns,
	}
	partialFit := func(data *mat.Dense, opts core.Options) benchMetric {
		initial := data.ColSlice(0, 2000)
		blocks := make([]*mat.Dense, 5)
		for i := range blocks {
			blocks[i] = data.ColSlice(2000+40*i, 2000+40*(i+1))
		}
		return metricOf(testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				tb.StopTimer()
				inc := core.NewIncremental(opts)
				if err := inc.InitialFit(initial); err != nil {
					tb.Fatal(err)
				}
				tb.StartTimer()
				for _, blk := range blocks {
					if _, err := inc.PartialFit(blk); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}))
	}
	snap.Benchmarks["partial_fit_sclog_t2000_x5"] = partialFit(data, opts)

	// The same episode on the GPU Metrics scenario.
	gpuOpts := opts
	gpuOpts.DT = telemetry.PolarisGPU().SampleInterval
	snap.Benchmarks["partial_fit_gpu_t2000_x5"] = partialFit(bench.GPUData(200, 2200, 1), gpuOpts)

	// End-to-end ingestion throughput through the streaming service: one
	// tenant seeded with the SC Log scenario's first 2000 columns, then 50
	// 40-column JSON batches over real HTTP — codec, feeder, PartialFit
	// and response marshaling all on the clock. The p50/p99 split shows
	// the re-orthogonalization and drift-recompute spikes a dashboard
	// sees, which mean-only numbers hide.
	m, err := ingestThroughput(workers, blockColumns)
	if err != nil {
		return err
	}
	snap.Benchmarks["ingest_throughput_sclog_b40_x50"] = m

	// Flat-horizon longrun sweep (DESIGN.md §10): one tenant streamed
	// through T ∈ {2048, 8192, 16384} under the windowed + cold-tier
	// configuration. The acceptance shape is per-batch latency flat in T
	// (the O(Δ) pipeline plus windowed drift/amplitude work make the
	// update independent of history length) and resident bytes well below
	// the full-f64 nocold control at the same T.
	longCold, err := longrunSweep(workers, []int{2048, 8192, 16384}, longrunColdHorizon)
	if err != nil {
		return err
	}
	for tp, m := range longCold {
		snap.Benchmarks[fmt.Sprintf("partial_fit_longrun_t%d", tp)] = m
	}
	longHot, err := longrunSweep(workers, []int{2048, 16384}, 0)
	if err != nil {
		return err
	}
	for tp, m := range longHot {
		snap.Benchmarks[fmt.Sprintf("partial_fit_longrun_nocold_t%d", tp)] = m
	}

	// Lock-free read-path sweep: the same streaming tenant polled by 1, 2,
	// 4 and 8 concurrent readers for a fixed window each. The reads/s and
	// read tail price the copy-on-write publication; the per-entry ingest
	// p50/p99 show the write path holding steady under query load.
	for _, rc := range []int{1, 2, 4, 8} {
		qm, err := queryThroughput(workers, blockColumns, rc, 1200*time.Millisecond)
		if err != nil {
			return err
		}
		snap.Benchmarks[fmt.Sprintf("query_throughput_sclog_r%d", rc)] = qm
	}

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
