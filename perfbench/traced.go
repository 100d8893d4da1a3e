package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"imrdmd/internal/server"
)

// tracedRun is the per-layer run. The server runs in-process behind the
// tracing middleware, on the same loopback HTTP path and with the same
// worker count as the timed run. The workload runs twice on it for
// seconds/2 each: untraced, then traced with a CPU profile and an
// allocation count over every round's stream and a separate CPU profile
// over the checkpoints; the difference is the tracing overhead. The reference
// replay and the kernel probes then run with spans, and the spans, the
// pooled profile and the per-layer metrics are written out.
func tracedRun(w workloadSpec, seed int64, seconds float64, outDir string) (*result, error) {
	runtime.GOMAXPROCS(generatorProcs())
	ds, err := renderDatasets(w, seed, true)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer()
	srv := server.New(server.Config{Workers: serverProcs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: tr.middleware(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	shutdown := func() {
		srv.Close()
		hs.Close()
		<-served
	}
	base := "http://" + ln.Addr().String()
	t := &tally{}
	wc, rc := newClient(base, t, tr), newClient(base, t, tr)
	defer wc.close()
	defer rc.close()

	if err := seedTenants(wc, w, ds); err != nil {
		shutdown()
		return nil, fmt.Errorf("setup: %w", err)
	}
	snaps, err := seedSnapshots(wc, ds)
	if err != nil {
		shutdown()
		return nil, fmt.Errorf("seed snapshots: %w", err)
	}
	plain, err := runRounds(wc, rc, w, ds, snaps, seconds/2, "u", hooks{})
	if err != nil {
		shutdown()
		return nil, fmt.Errorf("untraced rounds: %w", err)
	}

	// The CPU profile and the allocation count cover each round's stream
	// only; the checkpoints get a profile of their own.
	prof, ckpt := &profiler{}, &profiler{}
	var ms runtime.MemStats
	var alloc0, alloc uint64
	h := hooks{
		streamStart: func() {
			runtime.ReadMemStats(&ms)
			alloc0 = ms.TotalAlloc
			prof.start()
		},
		streamEnd: func() {
			prof.stop()
			runtime.ReadMemStats(&ms)
			alloc += ms.TotalAlloc - alloc0
		},
		checkpointStart: ckpt.start,
		checkpointEnd:   ckpt.stop,
	}
	tr.on.Store(true)
	traced, err := runRounds(wc, rc, w, ds, snaps, seconds/2, "t", h)
	prof.stop()
	ckpt.stop()
	shutdown()
	if err != nil {
		return nil, fmt.Errorf("traced rounds: %w", err)
	}

	refs, err := replayAll(w, ds, tr, true)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]metric{}, notes: map[string]any{}}
	gate(res, t, ds, traced, refs)
	last := refs[0].view
	probes := runProbes(tr, w, ds[0], last.Steps, last.GridCols)
	if w.csv {
		jsonDecodeProbe(tr, w, ds[0])
	}
	tr.on.Store(false)

	stacks, err := prof.samples()
	if err != nil {
		return nil, err
	}
	ckptStacks, err := ckpt.samples()
	if err != nil {
		return nil, err
	}
	sh, unmatched := shares(stacks)
	// codec runs only in the checkpoints, so its share is of theirs.
	ckptShares, _ := shares(ckptStacks)
	sh["codec.self_share"] = ckptShares["codec.self_share"]
	if sh["codec.self_share"] > 0 {
		unmatched = slices.DeleteFunc(unmatched, func(n string) bool { return n == "codec.self_share" })
	}
	res.attempted, res.failed = t.attempted.Load(), t.failed.Load()
	res.correct = res.failed == 0
	if msg := t.firstErr.Load(); msg != nil {
		res.mismatches = append(res.mismatches, "first failure: "+*msg)
	}

	m := res.metrics
	for k, v := range probes {
		m[k] = v
	}
	for k, v := range sh {
		m[k] = metric{v, "ratio"}
	}
	layerMetrics(m, w, tr, refs, traced)
	m["runtime.alloc_kib_per_op"] = metric{float64(alloc) / 1024 / float64(len(traced.ingestMs)), "KiB"}
	ti, pi := traced.ingestMs, plain.ingestMs
	m["trace.ingest_p50_overhead_ms"] = metric{median(ti) - median(pi), "ms"}
	m["trace.ingest_tail_overhead_ms"] = metric{quantile(ti, w.ingestTail) - quantile(pi, w.ingestTail), "ms"}
	m["trace.read_p50_overhead_ms"] = metric{median(traced.reads.latMs) - median(plain.reads.latMs), "ms"}
	m["trace.ingest_cols_per_s_overhead"] = metric{traced.rate() - plain.rate(), "col/s"}
	m["loadgen.read_lateness_p99_ms"] = metric{quantile(plain.reads.lateMs, 0.99), "ms"}
	m["loadgen.error_ratio"] = metric{float64(res.failed) / float64(max(res.attempted, 1)), "ratio"}

	describeRun(res, w, traced)
	res.notes["untraced_ingest_p50_ms"] = median(pi)
	res.notes["profile_samples"] = sampleCount(stacks)
	res.notes["checkpoint_profile_samples"] = sampleCount(ckptStacks)
	if len(unmatched) > 0 {
		res.notes["shares_without_samples"] = unmatched
	}
	stem := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d", w.name, seed))
	if err := tr.write(stem + ".spans.json"); err != nil {
		return nil, err
	}
	if err := writeFolded(stem+".cpu.folded", stacks); err != nil {
		return nil, err
	}
	res.notes["trace_files"] = []string{stem + ".spans.json", stem + ".cpu.folded"}
	return res, nil
}

// layerMetrics derives the span- and count-based per-layer metrics.
func layerMetrics(m map[string]metric, w workloadSpec, tr *tracer, refs []*reference, traced *runStats) {
	handler := map[int64]span{}
	for _, s := range tr.byName("server.ingest") {
		handler[s.Parent] = s
	}
	var transport []float64
	for _, c := range tr.byName("client.ingest") {
		if h, ok := handler[c.ID]; ok {
			transport = append(transport, c.ms()-h.ms())
		}
	}
	m["http.transport_ms"] = metric{median(transport), "ms"}
	m["server.ingest_handle_ms"] = metric{median(durationsMs(tr.byName("server.ingest"))), "ms"}
	m["server.read_handle_ms"] = metric{median(durationsMs(tr.byName("server.read"))), "ms"}
	m["server.not_modified_ratio"] = metric{float64(traced.reads.notMod) / float64(max(traced.reads.cond, 1)), "ratio"}
	m["server.spectrum_body_kib"] = metric{mean(traced.reads.specKiB), "KiB"}

	js := tr.byName("stream.FromJSON")
	var jsBytes, jsMs float64
	for _, s := range js {
		jsBytes += float64(s.Bytes)
		jsMs += s.ms()
	}
	m["stream.json_decode_ms"] = metric{median(durationsMs(js)), "ms"}
	m["stream.json_decode_mb_per_s"] = metric{jsBytes / 1e6 / (jsMs / 1e3), "MB/s"}
	csv := tr.byName("stream.ReadCSV")
	if len(csv) == 0 {
		csv = tr.byName("stream.ReadCSV/seed")
	}
	m["stream.csv_decode_ms"] = metric{median(durationsMs(csv)), "ms"}

	var initS []float64
	for _, d := range durationsMs(tr.byName("core.InitialFit")) {
		initS = append(initS, d/1e3)
	}
	m["core.initial_fit_s"] = metric{median(initS), "s"}
	pf := durationsMs(tr.byName("core.PartialFit"))
	m["core.partial_fit_ms"] = metric{median(pf), "ms"}
	m["core.partial_fit_tail_ms"] = metric{quantile(pf, w.ingestTail), "ms"}
	m["core.view_ms"] = metric{median(durationsMs(tr.byName("core.View"))), "ms"}
	m["core.snapshot_ms"] = metric{median(durationsMs(tr.byName("core.Snapshot"))), "ms"}
	m["core.restore_ms"] = metric{median(durationsMs(tr.byName("core.DecodeIncremental"))), "ms"}

	var nodes, modes, snapMiB, histMiB []float64
	var fits, sampleFits int
	for _, r := range refs {
		nodes = append(nodes, float64(r.view.Nodes))
		modes = append(modes, float64(r.view.NumModes))
		snapMiB = append(snapMiB, float64(r.snapBytes)/(1<<20))
		histMiB = append(histMiB, float64(r.mem.HotBytes+r.mem.ColdBytes)/(1<<20))
		fits += r.fits
		sampleFits += r.sampleFits
	}
	m["core.nodes"] = metric{mean(nodes), "count"}
	m["core.modes"] = metric{mean(modes), "count"}
	m["core.grid_sample_ratio"] = metric{float64(sampleFits) / float64(max(fits, 1)), "ratio"}
	m["core.snapshot_mib"] = metric{mean(snapMiB), "MiB"}
	m["core.history_mib"] = metric{mean(histMiB), "MiB"}
}

// jsonDecodeProbe times stream.FromJSON on the JSON rendering of a CSV
// workload's first batches, so stream.json_decode_ms is measured at that
// workload's batch shape even though its clients send CSV.
func jsonDecodeProbe(tr *tracer, w workloadSpec, d *dataset) {
	for c := seedCols; c < seedCols+4*w.batchCols && c+w.batchCols <= d.data.C; c += w.batchCols {
		body, err := renderBody(d.data.ColSlice(c, c+w.batchCols), false)
		if err != nil {
			continue
		}
		for i := 0; i < 3; i++ {
			op := tr.newOp()
			tr.timed("stream.FromJSON", op, op, len(body), func() { decodeJSON(body) })
		}
	}
}
