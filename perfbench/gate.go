package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"imrdmd/internal/core"
	"imrdmd/internal/mat"
	"imrdmd/internal/stream"
)

// gateTol is the relative agreement the gate demands of every float the
// server reports against the in-process reference.
const gateTol = 1e-8

// reference is an in-process core.Incremental fed the identical seed and
// batch bodies a dataset's round sent to the server, with what the
// traced run reads off it.
type reference struct {
	view       core.View
	updates    int
	bodies     int // ingest requests replayed
	fits       int // PartialFit calls
	sampleFits int // PartialFits with NewSamples > 0
	mem        core.MemStats
	snapBytes  int
}

// replay builds the reference for one dataset, decoding the bodies with
// the same stream decoders the server's ingest handler uses. Every call
// into a layer runs inside a span when tr is tracing; deep also times
// Snapshot and DecodeIncremental on the final state.
func replay(w workloadSpec, d *dataset, tr *tracer, deep bool) (*reference, error) {
	ref := &reference{}
	op := tr.newOp()
	var seed *mat.Dense
	var err error
	tr.timed("stream.ReadCSV/seed", op, op, len(d.seedCSV), func() { seed, err = stream.ReadCSV(bytes.NewReader(d.seedCSV)) })
	if err != nil {
		return nil, fmt.Errorf("reference seed decode: %w", err)
	}
	inc := core.NewIncremental(w.coreOptions())
	tr.timed("core.InitialFit", op, op, 0, func() { err = inc.InitialFit(seed) })
	if err != nil {
		return nil, fmt.Errorf("reference InitialFit: %w", err)
	}
	for _, body := range d.bodies {
		ref.bodies++
		op := tr.newOp()
		var batches []*mat.Dense
		batches, err = decodeBody(tr, op, body, w.csv)
		if err != nil {
			return nil, fmt.Errorf("reference decode: %w", err)
		}
		for _, b := range batches {
			var us core.UpdateStats
			tr.timed("core.PartialFit", op, op, 0, func() { us, err = inc.PartialFit(b) })
			if err != nil {
				return nil, fmt.Errorf("reference PartialFit: %w", err)
			}
			ref.fits++
			if us.NewSamples > 0 {
				ref.sampleFits++
			}
		}
		tr.timed("core.View", op, op, 0, func() { ref.view = inc.View() })
	}
	ref.updates = inc.Updates()
	ref.mem = inc.MemStats()
	if deep {
		op := tr.newOp()
		var buf bytes.Buffer
		tr.timed("core.Snapshot", op, op, 0, func() { err = inc.Snapshot(&buf) })
		if err != nil {
			return nil, fmt.Errorf("reference Snapshot: %w", err)
		}
		ref.snapBytes = buf.Len()
		var back *core.Incremental
		tr.timed("core.DecodeIncremental", op, op, buf.Len(), func() { back, err = core.DecodeIncremental(&buf) })
		if err != nil {
			return nil, fmt.Errorf("reference DecodeIncremental: %w", err)
		}
		if back.Cols() != inc.Cols() {
			return nil, fmt.Errorf("reference restore holds %d columns, want %d", back.Cols(), inc.Cols())
		}
	}
	return ref, nil
}

// decodeBody decodes one ingest body the way the server's handler does:
// a JSON body yields all its batch objects, a CSV body one batch.
func decodeBody(tr *tracer, op int64, body []byte, csv bool) ([]*mat.Dense, error) {
	var out []*mat.Dense
	var err error
	if csv {
		tr.timed("stream.ReadCSV", op, op, len(body), func() {
			var m *mat.Dense
			if m, err = stream.ReadCSV(bytes.NewReader(body)); err == nil {
				out = append(out, m)
			}
		})
		return out, err
	}
	tr.timed("stream.FromJSON", op, op, len(body), func() { out, err = decodeJSON(body) })
	return out, err
}

func decodeJSON(body []byte) ([]*mat.Dense, error) {
	src, err := stream.FromJSON(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var out []*mat.Dense
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, b)
	}
	return out, src.Err()
}

// Wire forms of the query answers the gate compares.
type modesWire struct {
	Modes  int `json:"modes"`
	Levels int `json:"levels"`
	Nodes  int `json:"nodes"`
	Steps  int `json:"steps"`
}

type errorWire struct {
	ReconError float64 `json:"recon_error"`
	Steps      int     `json:"steps"`
	GridCols   int     `json:"grid_cols"`
	Drift      float64 `json:"drift"`
}

type statsWire struct {
	Seeded  bool `json:"seeded"`
	Steps   int  `json:"steps"`
	Sensors int  `json:"sensors"`
	Updates int  `json:"updates"`
	Batches int  `json:"batches"`
}

type pointWire struct {
	Freq  float64 `json:"freq"`
	Power float64 `json:"power"`
	Amp   float64 `json:"amp"`
	Grow  float64 `json:"grow"`
	Level int     `json:"level"`
}

// gateResult is the outcome of checking one dataset.
type gateResult struct {
	mismatches []string
	reconError float64 // the server's grid reconstruction error
	steps      int
	gridCols   int
}

func (g *gateResult) failf(format string, args ...any) {
	g.mismatches = append(g.mismatches, fmt.Sprintf(format, args...))
}

// check compares a dataset's final server answers with its reference:
// steps and mode counts exactly, the grid error, drift and spectrum
// within gateTol relative; and the restored copy of its checkpointed
// round with that round's tenant.
func check(final *answers, cc *copyCheck, ref *reference) *gateResult {
	g := &gateResult{}
	if final == nil || cc == nil {
		g.failf("no answers captured")
		return g
	}
	var m, cm, sm modesWire
	var e, ce, se errorWire
	var s statsWire
	var sp, csp, ssp []pointWire
	for _, u := range []struct {
		name string
		body []byte
		v    any
	}{
		{"modes", final.modes, &m}, {"error", final.errBody, &e}, {"stats", final.stats, &s}, {"spectrum", final.spectrum, &sp},
		{"checkpointed modes", cc.source.modes, &sm}, {"checkpointed error", cc.source.errBody, &se}, {"checkpointed spectrum", cc.source.spectrum, &ssp},
		{"restored modes", cc.copy.modes, &cm}, {"restored error", cc.copy.errBody, &ce}, {"restored spectrum", cc.copy.spectrum, &csp},
	} {
		if err := json.Unmarshal(u.body, u.v); err != nil {
			g.failf("%s: unreadable answer: %v", u.name, err)
			return g
		}
	}
	v := ref.view
	g.reconError, g.steps, g.gridCols = e.ReconError, e.Steps, e.GridCols
	want := modesWire{Modes: v.NumModes, Levels: v.MaxLevel, Nodes: v.Nodes, Steps: v.Steps}
	if m != want {
		g.failf("modes %+v, reference %+v", m, want)
	}
	if e.Steps != v.Steps || e.GridCols != v.GridCols {
		g.failf("error steps/grid_cols %d/%d, reference %d/%d", e.Steps, e.GridCols, v.Steps, v.GridCols)
	}
	if !relClose(e.ReconError, v.GridError, gateTol, 0) {
		g.failf("recon_error %.17g, reference %.17g", e.ReconError, v.GridError)
	}
	if !relClose(e.Drift, v.LastDrift, gateTol, 0) {
		g.failf("drift %.17g, reference %.17g", e.Drift, v.LastDrift)
	}
	if !s.Seeded || s.Steps != v.Steps || s.Sensors != sensors || s.Updates != ref.updates || s.Batches != ref.bodies {
		g.failf("stats %+v, reference steps=%d sensors=%d updates=%d batches=%d", s, v.Steps, sensors, ref.updates, ref.bodies)
	}
	ptsRef := make([]pointWire, len(v.Spectrum))
	for i, p := range v.Spectrum {
		ptsRef[i] = pointWire{Freq: p.Freq, Power: p.Power, Amp: p.Amp, Grow: p.Grow, Level: p.Level}
	}
	comparePoints(g, "spectrum", sp, ptsRef)

	if cm != sm {
		g.failf("restored modes %+v, source %+v", cm, sm)
	}
	if ce.Steps != se.Steps || ce.GridCols != se.GridCols || !relClose(ce.ReconError, se.ReconError, gateTol, 0) {
		g.failf("restored error %+v, source %+v", ce, se)
	}
	comparePoints(g, "restored spectrum", csp, ssp)
	return g
}

// comparePoints checks two spectra point by point: levels exactly, each
// float field within gateTol relative to the largest magnitude that
// field takes over the reference spectrum.
func comparePoints(g *gateResult, name string, got, want []pointWire) {
	if len(got) != len(want) {
		g.failf("%s has %d points, want %d", name, len(got), len(want))
		return
	}
	var sf, sp, sa, sg float64
	for _, p := range want {
		sf = math.Max(sf, math.Abs(p.Freq))
		sp = math.Max(sp, math.Abs(p.Power))
		sa = math.Max(sa, math.Abs(p.Amp))
		sg = math.Max(sg, math.Abs(p.Grow))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.Level != b.Level || !relClose(a.Freq, b.Freq, gateTol, sf) || !relClose(a.Power, b.Power, gateTol, sp) ||
			!relClose(a.Amp, b.Amp, gateTol, sa) || !relClose(a.Grow, b.Grow, gateTol, sg) {
			g.failf("%s point %d: %+v, want %+v", name, i, a, b)
			return
		}
	}
}
