package main

import (
	"fmt"
	"runtime"
	"sync"
)

// setupRepeats is how many times a run sets up (server start to seeded
// tenants); setup_s is the median of their unstolen times and the last
// server is measured.
const setupRepeats = 5

// timedRun is the untraced run: the end-to-end metrics of one workload
// against cmd/imrdmd-serve in its own process.
func timedRun(w workloadSpec, seed int64, seconds float64, serverBin string) (*result, error) {
	runtime.GOMAXPROCS(generatorProcs())
	ds, err := renderDatasets(w, seed, false)
	if err != nil {
		return nil, err
	}
	// While the server runs, the generator keeps to one thread so the
	// two processes together use no more than two CPUs.
	runtime.GOMAXPROCS(1)
	t := &tally{}
	var setups []float64
	var srv *serverProc
	var wc *client
	for i := 0; i < setupRepeats; i++ {
		clock := startClock()
		s, err := startServer(serverBin)
		if err != nil {
			return nil, err
		}
		c := newClient(s.base, t, nil)
		err = seedTenants(c, w, ds)
		sec, keep, serr := clock.stop()
		if err == nil {
			err = serr
		}
		setups = append(setups, sec*keep)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i < setupRepeats-1 {
			c.close()
			s.stop()
			continue
		}
		srv, wc = s, c
	}
	defer srv.stop()
	snaps, err := seedSnapshots(wc, ds)
	if err != nil {
		return nil, fmt.Errorf("seed snapshots: %w", err)
	}
	rc := newClient(srv.base, t, nil)
	st, err := runRounds(wc, rc, w, ds, snaps, seconds, "r", hooks{})
	if err != nil {
		return nil, fmt.Errorf("rounds: %w", err)
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	wc.close()
	rc.close()
	srv.stop()

	runtime.GOMAXPROCS(generatorProcs())
	refs, err := replayAll(w, ds, nil, false)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]metric{}, notes: map[string]any{}}
	recon := gate(res, t, ds, st, refs)
	res.attempted, res.failed = t.attempted.Load(), t.failed.Load()
	res.correct = res.failed == 0
	if msg := t.firstErr.Load(); msg != nil {
		res.mismatches = append(res.mismatches, "first failure: "+*msg)
	}

	m := res.metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["ingest_cols_per_s"] = metric{st.rate(), "col/s"}
	m["ingest_p50_ms"] = metric{median(st.ingestMs), "ms"}
	m["ingest_tail_ms"] = metric{quantile(st.ingestMs, w.ingestTail), "ms"}
	m["read_p50_ms"] = metric{median(st.reads.latMs), "ms"}
	m["read_tail_ms"] = metric{quantile(st.reads.latMs, w.readTail), "ms"}
	m["snapshot_restore_s"] = metric{median(st.snapRestore), "s"}
	m["grid_recon_err"] = metric{recon, "ratio"}
	m["peak_rss_mib"] = metric{rss, "MiB"}
	describeRun(res, w, st)
	res.notes["setup_s_each"] = setups
	return res, nil
}

// replayAll builds every dataset's reference, two at a time when
// untraced; a traced replay runs serially so its spans do not overlap.
func replayAll(w workloadSpec, ds []*dataset, tr *tracer, deep bool) ([]*reference, error) {
	refs := make([]*reference, len(ds))
	errs := make([]error, len(ds))
	par := generatorProcs()
	if tr != nil {
		par = 1
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			refs[i], errs[i] = replay(w, d, tr, deep)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// gate checks every dataset's final answers against its reference,
// counting each dataset as one attempted operation that fails on any
// mismatch, and returns grid_recon_err: the median over datasets of the
// server's grid reconstruction error relative to the norm of the data
// on the same grid. The median, because that error is heavy-tailed
// across data draws.
func gate(res *result, t *tally, ds []*dataset, st *runStats, refs []*reference) float64 {
	var rel []float64
	for i, d := range ds {
		t.attempted.Add(1)
		g := check(st.finals[i], st.copies[i], refs[i])
		if len(g.mismatches) > 0 {
			t.fail(fmt.Errorf("gate dataset %d: %s", i, g.mismatches[0]))
			for _, m := range g.mismatches {
				res.mismatches = append(res.mismatches, fmt.Sprintf("dataset %d: %s", i, m))
			}
		}
		rel = append(rel, g.reconError/d.gridNorm(g.steps, g.gridCols))
	}
	return median(rel)
}

// describeRun records the run's shape next to its metrics: how much was
// measured, the tail percentiles and the samples beyond them, and the
// open-loop reader's lateness.
func describeRun(res *result, w workloadSpec, st *runStats) {
	n := res.notes
	n["rounds"] = st.rounds
	n["batches"] = len(st.ingestMs)
	n["stream_s"] = st.streamSec
	n["stream_unstolen_s"] = st.unstolenSec
	n["round_s"] = st.roundSec
	n["round_unstolen_share"] = st.roundKeep
	n["ingest_tail_percentile"] = 100 * w.ingestTail
	n["ingest_beyond_tail"] = beyond(st.ingestMs, w.ingestTail)
	n["reads"] = len(st.reads.latMs)
	n["read_tail_percentile"] = 100 * w.readTail
	n["read_beyond_tail"] = beyond(st.reads.latMs, w.readTail)
	n["read_rate_hz"] = w.readHz
	n["reads_per_ingest"] = float64(len(st.reads.latMs)) / float64(max(len(st.ingestMs), 1))
	n["reader_lateness_p50_ms"] = median(st.reads.lateMs)
	n["reader_lateness_p99_ms"] = quantile(st.reads.lateMs, 0.99)
	n["reader_lateness_max_ms"] = quantile(st.reads.lateMs, 1)
}
