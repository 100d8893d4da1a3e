package main

import (
	"time"

	"imrdmd/internal/compute"
	"imrdmd/internal/dmd"
	"imrdmd/internal/eig"
	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
)

const (
	windowCols  = 16 // a level-2…6 window after subsampling: 11–24 columns
	level1Rank  = 48
	smallRank   = 16
	probeBudget = 250 * time.Millisecond
	probeMaxRep = 400
)

// probe times one call of f repeatedly inside spans named name, after a
// short warm-up, and returns the median call time in microseconds.
func probe(tr *tracer, name string, f func()) float64 {
	for i := 0; i < 3; i++ {
		f()
	}
	var us []float64
	start := time.Now()
	for len(us) < probeMaxRep && (len(us) < 20 || time.Since(start) < probeBudget) {
		op := tr.newOp()
		t0 := time.Now()
		f()
		d := time.Since(t0)
		tr.record(span{ID: op, Op: op, Name: name, Start: tr.at(t0), End: tr.at(t0.Add(d))})
		us = append(us, float64(d)/float64(time.Microsecond))
	}
	return median(us)
}

// runProbes times each kernel layer's public entry point at the shapes
// the workload produces, on the workload's own data, and reports the
// median call time with the rate implied by the standard flop count of
// each factorization (a model, not a measured operation count).
func runProbes(tr *tracer, w workloadSpec, d *dataset, steps, gridCols int) map[string]metric {
	eng := compute.Shared(serverProcs)
	ws := compute.NewWorkspace()
	out := map[string]metric{}
	add := func(name string, us, flops float64) {
		out[name+"_us"] = metric{us, "us"}
		out[name+"_gflops"] = metric{flops / us / 1e3, "GFLOP/s"}
	}

	// A window: windowCols consecutive streamed columns with each row's
	// mean removed, standing in for a residual window.
	win := d.data.ColSlice(seedCols, seedCols+windowCols).Clone()
	for i := 0; i < win.R; i++ {
		row := win.Row(i)
		var s float64
		for _, v := range row {
			s += v
		}
		for j := range row {
			row[j] -= s / float64(len(row))
		}
	}
	m, n := float64(win.R), float64(win.C)
	add("svd.window_svd", probe(tr, "probe.svd.ComputeWith", func() { svd.ComputeWith(eng, ws, win) }),
		6*m*n*n+20*n*n*n)
	add("mat.qr", probe(tr, "probe.mat.QRFactorOn", func() {
		q := mat.QRFactorOn(eng, ws, win)
		mat.PutDense(ws, q.Q)
		mat.PutDense(ws, q.R)
	}), 4*m*n*n-4*n*n*n/3)

	// The level-1 shape: the run's final sample grid.
	snaps := levelOneGrid(d.data, steps, gridCols)
	p, t := float64(snaps.R), float64(snaps.C)
	x := snaps.ColSlice(0, snaps.C-1)
	res := svd.ComputeWith(eng, ws, x)
	r := float64(min(level1Rank, res.Rank()))
	opts := dmd.Options{DT: w.dt(), Rank: level1Rank, Engine: eng, Ws: ws}
	add("dmd.from_svd", probe(tr, "probe.dmd.FromSVD", func() { dmd.FromSVD(res, snaps, opts) }),
		2*r*p*(t-1)+2*r*r*(t-1)+2*p*(t-1)*r+25*r*r*r+8*p*r*r)

	for _, rank := range []int{level1Rank, smallRank} {
		a := reducedOperator(res, snaps, rank)
		k := float64(a.R)
		name := "eig.nonsym_r48"
		if rank == smallRank {
			name = "eig.nonsym_r16"
		}
		add(name, probe(tr, "probe.eig.NonsymmetricWith", func() { eig.NonsymmetricWith(ws, a) }), 25*k*k*k)
	}
	return out
}

// levelOneGrid gathers columns 0, s, 2s, … of data: the level-1 sample
// grid of a tenant that absorbed steps columns into gridCols samples.
func levelOneGrid(data *mat.Dense, steps, gridCols int) *mat.Dense {
	stride := (steps + gridCols - 1) / gridCols
	var cols []int
	for j := 0; j < steps && j < data.C; j += stride {
		cols = append(cols, j)
	}
	out := mat.NewDense(data.R, len(cols))
	for i := 0; i < data.R; i++ {
		row, src := out.Row(i), data.Row(i)
		for k, j := range cols {
			row[k] = src[j]
		}
	}
	return out
}

// reducedOperator builds the rank-r DMD operator Ã = Uᵣᵀ Y Vᵣ Σᵣ⁻¹ whose
// eigenproblem the DMD layer solves.
func reducedOperator(res *svd.Result, snaps *mat.Dense, r int) *mat.Dense {
	r = min(r, res.Rank())
	u := res.U.ColSlice(0, r)
	v := res.V.ColSlice(0, r)
	y := snaps.ColSlice(1, snaps.C)
	a := mat.Mul(mat.MulT(u, y), v)
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		for j := range row {
			row[j] /= res.S[j]
		}
	}
	return a
}
