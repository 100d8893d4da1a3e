// Command perfbench is the repository's end-to-end benchmark. It drives
// cmd/imrdmd-serve, run as its own process, over loopback HTTP from a
// separate load generator, checks the server's answers against an
// in-process reference analyzer fed the identical bodies, and prints one
// JSON result line. With -trace 1 it instead runs the workload with the
// server in-process behind a tracing middleware, records spans around
// every call it makes into a layer's public API, samples a CPU profile,
// times the kernel entry points at the workload's shapes, and reports
// the per-layer metrics. See README.md for the workloads and metrics.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload dashboard_sclog --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"imrdmd/internal/mat"
)

// runLimit bounds one invocation: past it the watchdog stops the server
// and exits without a result.
const runLimit = 170 * time.Second

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one invocation reports.
type result struct {
	correct    bool
	attempted  int64
	failed     int64
	metrics    map[string]metric
	notes      map[string]any
	mismatches []string
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload  = flag.String("workload", "", "workload: live_sclog, backfill_gpu or dashboard_sclog")
		seed      = flag.Int64("seed", 1, "workload seed; the same seed renders the same bodies")
		seconds   = flag.Float64("seconds", 15, "seconds of streaming to measure, rounded to whole cycles of rounds")
		trace     = flag.Int("trace", 0, "1 = traced in-process run reporting the per-layer metrics")
		serverBin = flag.String("server", "", "path to the imrdmd-serve binary (untraced runs)")
		outDir    = flag.String("out", ".bench_build/perfbench", "directory for traces and profiles")
	)
	flag.Parse()
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "IMRDMD_GEMM_") {
			fmt.Fprintf(os.Stderr, "perfbench: refusing to run with %s set: kernel overrides change what is measured\n", strings.SplitN(kv, "=", 2)[0])
			return 2
		}
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace == 0 && *serverBin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -server is required for untraced runs")
		return 2
	}

	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; stopping\n", runLimit)
		stopAll()
		os.Exit(3)
	})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(130)
	}()

	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, *seconds, *outDir)
	} else {
		res, err = timedRun(w, *seed, *seconds, *serverBin)
	}
	stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, m := range res.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: gate: %s\n", m)
	}
	emit(map[string]any{"env": environment(w, *seed, *trace)})
	res.notes["error_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	emit(map[string]any{"notes": res.notes})
	printTable(res.metrics)
	emit(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   finite(res.metrics),
	})
	if !res.correct {
		return 1
	}
	return 0
}

// emit prints one JSON object on its own stdout line.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only numbers, strings and maps of them
	}
	fmt.Println(string(b))
}

// printTable prints every metric by name with its unit, one per line.
func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// finite replaces non-finite values — a tail made of failed operations —
// with -1, which JSON can carry; such a run is already marked incorrect.
func finite(ms map[string]metric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for n, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = -1
		}
		out[n] = m
	}
	return out
}

// environment records what a result was measured on.
func environment(w workloadSpec, seed int64, trace int) map[string]any {
	k := mat.Kernel()
	goamd64 := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	return map[string]any{
		"workload":          w.name,
		"seed":              seed,
		"trace":             trace,
		"datasets":          datasets,
		"nproc":             runtime.NumCPU(),
		"server_gomaxprocs": serverProcs,
		"server_workers":    serverProcs,
		"go":                runtime.Version(),
		"goarch":            runtime.GOARCH,
		"goamd64":           goamd64,
		"kernel_tier":       k.Tier,
		"kernel_tuned":      k.Tuned,
		"kernel_skinny":     k.Skinny,
		"kernel_caches":     []int{k.L1D, k.L2, k.L3},
		"kernel_f64":        k.F64,
		"kernel_f32":        k.F32,
	}
}

// generatorProcs is the load generator's parallelism outside the timed
// window (rendering bodies, replaying the reference): at most two, so the
// benchmark never runs more threads than a 2-CPU host has.
func generatorProcs() int { return min(2, runtime.NumCPU()) }
