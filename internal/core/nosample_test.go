package core

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"imrdmd/internal/joblog"
	"imrdmd/internal/mat"
	"imrdmd/internal/telemetry"
)

// Tests for PartialFits that land no level-1 grid sample: they skip the
// level-1 refit, the drift evaluation (while the slow set holds) and the
// View's grid error, and every skipped value must be the one the full
// path would have produced, bit for bit.

// sclogData is bench.SCLogData (the SC Log workload), rebuilt here
// because the bench package imports core.
func sclogData(p, t int, seed int64) *mat.Dense {
	prof := telemetry.ThetaEnv()
	horizon := float64(t) * prof.SampleInterval
	gen := telemetry.NewGenerator(prof, p, seed)
	gen.Schedule = joblog.Simulate(joblog.SimConfig{
		NumNodes: p, Horizon: horizon, Seed: seed,
		MeanInterarrival: horizon / 60, MeanDuration: horizon / 5,
	})
	return gen.Matrix(0, t)
}

// sclogOpts are the production streaming options of the ingest service.
func sclogOpts() Options {
	return Options{
		DT:        telemetry.ThetaEnv().SampleInterval,
		MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8,
	}
}

const (
	nsSensors = 200
	nsSeed    = 2000 // level-1 stride 125: one 40-column batch in three lands a sample
	nsBatch   = 40
)

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameComplex(a, b complex128) bool {
	return sameFloat(real(a), real(b)) && sameFloat(imag(a), imag(b))
}

// sameNode reports whether two nodes are bitwise equal: window, stride,
// mode count and every field of every retained mode.
func sameNode(a, b *Node) bool {
	if a.Level != b.Level || a.Start != b.Start || a.End != b.End || a.Stride != b.Stride ||
		a.NumAllModes != b.NumAllModes || len(a.Modes) != len(b.Modes) {
		return false
	}
	for j := range a.Modes {
		ma, mb := &a.Modes[j], &b.Modes[j]
		if !sameComplex(ma.Lambda, mb.Lambda) || !sameComplex(ma.Psi, mb.Psi) ||
			!sameComplex(ma.Amp, mb.Amp) || !sameFloat(ma.Freq, mb.Freq) ||
			!sameFloat(ma.Power, mb.Power) || len(ma.Phi) != len(mb.Phi) {
			return false
		}
		for i := range ma.Phi {
			if !sameComplex(ma.Phi[i], mb.Phi[i]) {
				return false
			}
		}
	}
	return true
}

func sameDense(a, b *mat.Dense) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i := 0; i < a.R; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if !sameFloat(ra[j], rb[j]) {
				return false
			}
		}
	}
	return true
}

// checkAgainstFullPath asserts that inc's state after an update is what
// the full path computes from scratch:
//
//   - the level-1 node equals a refit (refreshLevel1) of the same state;
//   - View().GridError equals a fresh grid-error evaluation;
//   - the cached slow grid equals a fresh evaluation of its span.
//
// It must run with no asynchronous recompute in flight.
func checkAgainstFullPath(t *testing.T, ctx string, inc *Incremental) {
	t.Helper()
	v := inc.View()
	inc.mu.Lock()
	defer inc.mu.Unlock()
	kept := inc.level1
	if err := inc.refreshLevel1(); err != nil {
		t.Fatalf("%s: refit: %v", ctx, err)
	}
	refit := inc.level1
	inc.level1 = kept
	if !sameNode(kept, refit) {
		t.Fatalf("%s: level-1 node differs from a refit (%d vs %d modes)", ctx, len(kept.Modes), len(refit.Modes))
	}
	nodes := []*Node{inc.level1}
	for _, seg := range inc.segments {
		nodes = append(nodes, seg.nodes...)
	}
	if fresh := inc.gridErrorLocked(nodes); !sameFloat(v.GridError, fresh) || v.GridCols != inc.sub1.C {
		t.Fatalf("%s: View grid error %v over %d columns, fresh %v over %d",
			ctx, v.GridError, v.GridCols, fresh, inc.sub1.C)
	}
	if inc.slowGrid != nil {
		ns := inc.sub1.C
		if inc.slowGridLo != inc.driftLo(ns) {
			t.Fatalf("%s: slow grid starts at %d, drift window at %d", ctx, inc.slowGridLo, inc.driftLo(ns))
		}
		fresh := inc.level1SlowOnGridRange(inc.level1.Modes, inc.slowGridLo, ns)
		defer mat.PutDense(inc.ws, fresh)
		if !sameDense(inc.slowGrid, fresh) {
			t.Fatalf("%s: cached slow grid over [%d,%d) differs from a fresh evaluation", ctx, inc.slowGridLo, ns)
		}
	}
}

// level1Modes returns the current level-1 slow-mode count.
func level1Modes(inc *Incremental) int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return len(inc.level1.Modes)
}

// fitChecked runs one PartialFit, checks it against the full path and
// the no-sample drift contract, and returns its stats.
func fitChecked(t *testing.T, ctx string, inc *Incremental, blk *mat.Dense) UpdateStats {
	t.Helper()
	before := level1Modes(inc)
	st, err := inc.PartialFit(blk)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	inc.Wait()
	checkAgainstFullPath(t, ctx, inc)
	if st.NewSamples == 0 && level1Modes(inc) == before {
		log := inc.DriftLog()
		if st.Drift != 0 || log[len(log)-1] != 0 || st.Recomputed {
			t.Fatalf("%s: no-sample batch with an unchanged slow set: drift %v (logged %v), recomputed %v; want exactly 0",
				ctx, st.Drift, log[len(log)-1], st.Recomputed)
		}
	}
	return st
}

// streamChecked seeds inc with data[:, :nsSeed] and feeds the rest in
// nsBatch-column batches, checking every update. The stream must hold
// batches of both kinds.
func streamChecked(t *testing.T, inc *Incremental, data *mat.Dense) {
	t.Helper()
	if err := inc.InitialFit(data.ColSlice(0, nsSeed)); err != nil {
		t.Fatal(err)
	}
	checkAgainstFullPath(t, "seed", inc)
	batches, noSample := 0, 0
	for lo := nsSeed; lo+nsBatch <= data.C; lo += nsBatch {
		st := fitChecked(t, "batch at "+strconv.Itoa(lo), inc, data.ColSlice(lo, lo+nsBatch))
		batches++
		if st.NewSamples == 0 {
			noSample++
		}
	}
	if noSample == 0 || noSample == batches {
		t.Fatalf("%d of %d batches landed no grid sample: the stream must exercise both paths", noSample, batches)
	}
}

func TestNoSampleBatchesMatchFullPath(t *testing.T) {
	data := sclogData(nsSensors, nsSeed+50*nsBatch, 3)
	streamChecked(t, NewIncremental(sclogOpts()), data)
}

// TestNoSampleDriftWindow covers the sliding drift window: the cache's
// first column moves on every sample batch.
func TestNoSampleDriftWindow(t *testing.T) {
	opts := sclogOpts()
	opts.DriftWindow = 20
	data := sclogData(nsSensors, nsSeed+40*nsBatch, 1)
	streamChecked(t, NewIncremental(opts), data)
}

// TestNoSampleSyncRecompute: a drift threshold every sample batch
// exceeds, so old subtrees are recomputed synchronously and the grid
// error must follow them; no-sample batches drift 0 and recompute none.
func TestNoSampleSyncRecompute(t *testing.T) {
	inc := NewIncremental(sclogOpts())
	inc.DriftThreshold = 1e-300
	streamChecked(t, inc, sclogData(nsSensors, nsSeed+16*nsBatch, 4))
	if inc.Recomputes() == 0 {
		t.Fatal("no recompute triggered")
	}
}

// TestNoSampleAsyncRecompute: recomputes land on the analyzer's lane
// while a reader polls View, so a grid error cached before a recompute
// lands must not outlive it.
func TestNoSampleAsyncRecompute(t *testing.T) {
	inc := NewIncremental(sclogOpts())
	inc.DriftThreshold = 1e-300
	inc.AsyncRecompute = true
	data := sclogData(nsSensors, nsSeed+16*nsBatch, 5)
	if err := inc.InitialFit(data.ColSlice(0, nsSeed)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if v := inc.View(); math.IsNaN(v.GridError) {
					t.Error("NaN grid error")
					return
				}
			}
		}
	}()
	for lo := nsSeed; lo+nsBatch <= data.C; lo += nsBatch {
		if _, err := inc.PartialFit(data.ColSlice(lo, lo+nsBatch)); err != nil {
			t.Fatal(err)
		}
		inc.View() // may cache a grid error the queued recomputes then move
		inc.Wait()
		checkAgainstFullPath(t, "batch at "+strconv.Itoa(lo), inc)
	}
	close(stop)
	wg.Wait()
	if inc.Recomputes() == 0 {
		t.Fatal("no recompute triggered")
	}
}

// TestNoSampleAddSensors: AddSensors refits the level-1 node and every
// subtree over a taller sample grid; the cached grid error and slow grid
// must not survive it.
func TestNoSampleAddSensors(t *testing.T) {
	const extra = 8
	data := sclogData(nsSensors+extra, nsSeed+20*nsBatch, 6)
	base := data.RowSlice(0, nsSensors)
	inc := NewIncremental(sclogOpts())
	if err := inc.InitialFit(base.ColSlice(0, nsSeed)); err != nil {
		t.Fatal(err)
	}
	mid := nsSeed + 10*nsBatch
	for lo := nsSeed; lo < mid; lo += nsBatch {
		fitChecked(t, "batch at "+strconv.Itoa(lo), inc, base.ColSlice(lo, lo+nsBatch))
	}
	if err := inc.AddSensors(data.RowSlice(nsSensors, nsSensors+extra).ColSlice(0, mid)); err != nil {
		t.Fatal(err)
	}
	checkAgainstFullPath(t, "after AddSensors", inc)
	for lo := mid; lo+nsBatch <= data.C; lo += nsBatch {
		fitChecked(t, "grown batch at "+strconv.Itoa(lo), inc, data.ColSlice(lo, lo+nsBatch))
	}
}

// TestNoSampleSnapshotContinuation: a restored analyzer starts with no
// cached slow grid or grid error, and continues the stream within the
// 1e-12 snapshot-continuation contract — on the no-sample batches too.
func TestNoSampleSnapshotContinuation(t *testing.T) {
	data := sclogData(nsSensors, nsSeed+24*nsBatch, 7)
	orig := NewIncremental(sclogOpts())
	if err := orig.InitialFit(data.ColSlice(0, nsSeed)); err != nil {
		t.Fatal(err)
	}
	// 7 batches: 280 columns past the seed, mid-way between grid samples.
	mid := nsSeed + 7*nsBatch
	for lo := nsSeed; lo < mid; lo += nsBatch {
		fitChecked(t, "batch at "+strconv.Itoa(lo), orig, data.ColSlice(lo, lo+nsBatch))
	}
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rest, err := DecodeIncremental(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rest.slowGrid != nil || rest.gridErrOK {
		t.Fatal("restored analyzer carries a cached slow grid or grid error")
	}
	checkAgainstFullPath(t, "restored", rest)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(a)) }
	for lo := mid; lo+nsBatch <= data.C; lo += nsBatch {
		ctx := "continued batch at " + strconv.Itoa(lo)
		so := fitChecked(t, ctx, orig, data.ColSlice(lo, lo+nsBatch))
		sr := fitChecked(t, ctx+" (restored)", rest, data.ColSlice(lo, lo+nsBatch))
		if so.NewSamples != sr.NewSamples || !near(so.Drift, sr.Drift) {
			t.Fatalf("%s: restored stats %+v, original %+v", ctx, sr, so)
		}
		vo, vr := orig.View(), rest.View()
		if vo.Nodes != vr.Nodes || vo.NumModes != vr.NumModes || !near(vo.GridError, vr.GridError) {
			t.Fatalf("%s: restored view (%d nodes, %d modes, err %v), original (%d, %d, %v)",
				ctx, vr.Nodes, vr.NumModes, vr.GridError, vo.Nodes, vo.NumModes, vo.GridError)
		}
		for k := range vo.Spectrum {
			if !near(vo.Spectrum[k].Freq, vr.Spectrum[k].Freq) || !near(vo.Spectrum[k].Amp, vr.Spectrum[k].Amp) {
				t.Fatalf("%s: spectrum point %d differs: %+v vs %+v", ctx, k, vr.Spectrum[k], vo.Spectrum[k])
			}
		}
	}
}

// TestNoSampleSlowSetShrinks builds a level-1 mode that is slow at the
// seed length and leaves the slow band |ψ|/2π ≤ MaxCycles/(T·DT) before
// the next grid sample arrives: the no-sample batch that crosses must
// drop it (as a refit would), measure a nonzero drift and re-evaluate
// the grid error.
func TestNoSampleSlowSetShrinks(t *testing.T) {
	const (
		p     = 8
		seedT = 2001 // stride 125, grid 0…2000: the next sample is column 2125
		cross = 2060 // the designed tone's slow-band exit
	)
	rng := rand.New(rand.NewSource(11))
	f := 2.0 / cross // cycles per step: MaxCycles/(cross·DT)
	data := mat.NewDense(p, 2200)
	for i := 0; i < p; i++ {
		base, amp, ph := 40+rng.Float64(), 3+rng.Float64(), 2*math.Pi*rng.Float64()
		row := data.Row(i)
		for k := range row {
			row[k] = base + amp*math.Sin(2*math.Pi*f*float64(k)+ph) + 0.01*rng.NormFloat64()
		}
	}
	inc := NewIncremental(Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := inc.InitialFit(data.ColSlice(0, seedT)); err != nil {
		t.Fatal(err)
	}
	// The exact exit column follows from the fitted modes, not the design.
	inc.mu.Lock()
	exit := math.MaxInt
	for _, m := range inc.level1.Modes {
		if fm := cmplx.Abs(m.Psi) / (2 * math.Pi); fm > 0 {
			if c := int(math.Floor(float64(inc.opts.MaxCycles)/(fm*inc.opts.DT))) + 1; c < exit {
				exit = c
			}
		}
	}
	next := inc.nextSample
	inc.mu.Unlock()
	if exit <= seedT+16 || exit > next {
		t.Fatalf("fitted tone leaves the slow band at column %d; the construction needs (%d, %d]", exit, seedT+16, next)
	}
	before := level1Modes(inc)
	st := fitChecked(t, "before the exit", inc, data.ColSlice(seedT, exit-1))
	if st.NewSamples != 0 || level1Modes(inc) != before {
		t.Fatalf("batch before the exit: %d samples, %d→%d slow modes", st.NewSamples, before, level1Modes(inc))
	}
	cached := inc.View().GridError
	st = fitChecked(t, "across the exit", inc, data.ColSlice(exit-1, next))
	if st.NewSamples != 0 || level1Modes(inc) >= before {
		t.Fatalf("batch across the exit: %d samples, %d→%d slow modes; want 0 samples and fewer modes",
			st.NewSamples, before, level1Modes(inc))
	}
	if st.Drift == 0 {
		t.Fatal("dropping a slow mode measured zero drift")
	}
	if inc.View().GridError == cached {
		t.Fatal("grid error unchanged after a slow mode left the level-1 node")
	}
	fitChecked(t, "first sample after the exit", inc, data.ColSlice(next, next+nsBatch))
}

// lands reports whether a batch of n columns appended now would land a
// level-1 grid sample.
func (inc *Incremental) lands(n int) bool {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.nextSample < inc.hist.Cols()+n
}

var benchView View

// benchmarkPartialFit times one ingest step — PartialFit then View, the
// pair the ingest service runs per batch — on a 200×2000 SC Log seed fed
// 40-column batches, counting only the batches that do (sample) or do
// not land a level-1 grid sample. The analyzer is re-seeded, off the
// clock, every 50 batches so the history stays near the seed length.
func benchmarkPartialFit(b *testing.B, sample bool) {
	const cycle = 50
	data := sclogData(nsSensors, nsSeed+cycle*nsBatch, 1)
	seed := data.ColSlice(0, nsSeed)
	blocks := make([]*mat.Dense, cycle)
	for k := range blocks {
		blocks[k] = data.ColSlice(nsSeed+k*nsBatch, nsSeed+(k+1)*nsBatch)
	}
	var inc *Incremental
	k := cycle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		if k == cycle {
			b.StopTimer()
			inc = NewIncremental(sclogOpts())
			if err := inc.InitialFit(seed); err != nil {
				b.Fatal(err)
			}
			benchView = inc.View()
			k = 0
			b.StartTimer()
		}
		timed := inc.lands(nsBatch) == sample
		if !timed {
			b.StopTimer()
		}
		if _, err := inc.PartialFit(blocks[k]); err != nil {
			b.Fatal(err)
		}
		benchView = inc.View()
		k++
		if timed {
			i++
		} else {
			b.StartTimer()
		}
	}
}

func BenchmarkPartialFitNoSample(b *testing.B) { benchmarkPartialFit(b, false) }
func BenchmarkPartialFitSample(b *testing.B)   { benchmarkPartialFit(b, true) }
