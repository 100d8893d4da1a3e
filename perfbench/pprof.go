package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
)

// profiler collects a CPU profile over each measured window of the
// traced run; the windows' samples are pooled when decoded.
type profiler struct {
	done []*bytes.Buffer
	cur  *bytes.Buffer
	err  error
}

func (p *profiler) start() {
	p.cur = new(bytes.Buffer)
	if err := pprof.StartCPUProfile(p.cur); err != nil {
		p.err, p.cur = err, nil
	}
}

func (p *profiler) stop() {
	if p.cur == nil {
		return
	}
	pprof.StopCPUProfile()
	p.done = append(p.done, p.cur)
	p.cur = nil
}

// stack is one sampled call stack, leaf frame first (inlined frames
// included), with its sample count.
type stack struct {
	frames []string
	n      int64
}

func sampleCount(ss []stack) int64 {
	var n int64
	for _, s := range ss {
		n += s.n
	}
	return n
}

// samples decodes and pools every window's profile.
func (p *profiler) samples() ([]stack, error) {
	if p.err != nil {
		return nil, p.err
	}
	var all []stack
	for _, b := range p.done {
		ss, err := parseProfile(b.Bytes())
		if err != nil {
			return nil, err
		}
		all = append(all, ss...)
	}
	return all, nil
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what the shares need: each sample's stack of
// function names and its sample count (value 0, "samples/count").
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		n    int64
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
	)
	top := pb{b: raw}
	for top.more() {
		field, wt := top.key()
		switch {
		case field == 2 && wt == 2: // Sample
			m := pb{b: top.bytes()}
			var s rawSample
			var vals []uint64 // short value lists come unpacked, one field each
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1:
					s.locs = m.uints(w, s.locs)
				case f == 2:
					vals = m.uints(w, vals)
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			if len(vals) > 0 {
				s.n = int64(vals[0])
			}
			samples = append(samples, s)
		case field == 4 && wt == 2: // Location
			m := pb{b: top.bytes()}
			var id uint64
			var fns []uint64
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 4 && w == 2: // Line
					l := pb{b: m.bytes()}
					for l.more() {
						lf, lw := l.key()
						if lf == 1 && lw == 0 {
							fns = append(fns, l.varint())
						} else {
							l.skip(lw)
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			locFns[id] = fns
		case field == 5 && wt == 2: // Function
			m := pb{b: top.bytes()}
			var id, name uint64
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					name = m.varint()
				default:
					m.skip(w)
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			fnName[id] = name
		case field == 6 && wt == 2: // string_table
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wt)
		}
	}
	if top.err != nil {
		return nil, top.err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{n: s.n}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errors.New("profile: function name out of range")
				}
				st.frames = append(st.frames, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// pb is a minimal protocol-buffer wire reader.
type pb struct {
	b   []byte
	err error
}

func (p *pb) more() bool { return p.err == nil && len(p.b) > 0 }

func (p *pb) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errors.New("profile: truncated varint")
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("profile: varint overflow")
	return 0
}

func (p *pb) key() (field, wireType int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pb) bytes() []byte {
	n := p.varint()
	if p.err != nil {
		return nil
	}
	if n > uint64(len(p.b)) {
		p.err = errors.New("profile: truncated field")
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// uints reads a repeated integer field in either packed or unpacked
// encoding, appending to dst.
func (p *pb) uints(wireType int, dst []uint64) []uint64 {
	if wireType == 0 {
		return append(dst, p.varint())
	}
	if wireType != 2 {
		p.skip(wireType)
		return dst
	}
	q := pb{b: p.bytes()}
	for q.more() {
		dst = append(dst, q.varint())
	}
	if q.err != nil {
		p.err = q.err
	}
	return dst
}

func (p *pb) skip(wireType int) {
	switch wireType {
	case 0:
		p.varint()
	case 1:
		p.advance(8)
	case 2:
		p.bytes()
	case 5:
		p.advance(4)
	default:
		p.err = fmt.Errorf("profile: unsupported wire type %d", wireType)
	}
}

func (p *pb) advance(n int) {
	if len(p.b) < n {
		p.err = errors.New("profile: truncated field")
		return
	}
	p.b = p.b[n:]
}

// pkgOf returns the import path of a Go symbol name such as
// "imrdmd/internal/mat.(*GDense[go.shape.float64]).Row".
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// hasFrame reports whether a stack contains fn itself or a closure
// defined in it. Generic instantiation brackets are ignored.
func hasFrame(frames []string, fn string) bool {
	for _, f := range frames {
		if i := strings.IndexByte(f, '['); i >= 0 {
			if j := strings.LastIndexByte(f, ']'); j > i {
				f = f[:i] + f[j+1:]
			}
		}
		if f == fn || strings.HasPrefix(f, fn+".") {
			return true
		}
	}
	return false
}

const corePkg = "imrdmd/internal/core."

// stageFrames names the functions whose inclusive samples make up each
// core stage. They are this tree's internal names: until core records a
// stage ledger itself, the profile is the only view inside PartialFit.
var stageFrames = map[string][]string{
	"core.level1_refresh_share": {corePkg + "(*Incremental).refreshLevel1"},
	"core.level1_update_share":  {"imrdmd/internal/svd.(*Incremental).UpdateBlock"},
	"core.drift_share": {corePkg + "(*Incremental).level1SlowOnGridRange", corePkg + "frobDiff",
		corePkg + "(*Incremental).rebuildSlowGridFrom", corePkg + "(*Incremental).rebuildSlowGridFresh"},
	"core.residual_share": {corePkg + "(*Incremental).residualOf"},
	"core.subtree_share":  {corePkg + "(*Incremental).subtree"},
	"core.history_share":  {"imrdmd/internal/mat.(*TieredCols).Grow"},
}

const partialFitFrame = corePkg + "(*Incremental).PartialFit"

// gcFrames mark samples spent in the garbage collector.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot"}

// selfLayers are the modules whose leaf-frame (self) share is reported.
var selfLayers = []string{"svd", "dmd", "eig", "mat", "compute", "codec"}

// shares turns pooled samples into the sampled per-layer metrics, each a
// share of all samples in the measured windows. Stage shares count a
// sample when the stage function is on its stack inside PartialFit.
func shares(ss []stack) (map[string]float64, []string) {
	var total int64
	count := map[string]int64{}
	for _, s := range ss {
		total += s.n
		if len(s.frames) > 0 {
			leafPkg := pkgOf(s.frames[0])
			for _, l := range selfLayers {
				if leafPkg == "imrdmd/internal/"+l {
					count[l+".self_share"] += s.n
				}
			}
		}
		for _, f := range gcFrames {
			if hasFrame(s.frames, f) {
				count["runtime.gc_share"] += s.n
				break
			}
		}
		if hasFrame(s.frames, corePkg+"(*Incremental).View") {
			count["core.view_share"] += s.n
		}
		if !hasFrame(s.frames, partialFitFrame) {
			continue
		}
		count["core.partial_fit_share"] += s.n
		for name, fns := range stageFrames {
			for _, fn := range fns {
				if hasFrame(s.frames, fn) {
					count[name] += s.n
					break
				}
			}
		}
	}
	out := map[string]float64{}
	names := []string{"runtime.gc_share", "core.view_share", "core.partial_fit_share"}
	for _, l := range selfLayers {
		names = append(names, l+".self_share")
	}
	for name := range stageFrames {
		names = append(names, name)
	}
	var unmatched []string
	for _, n := range names {
		out[n] = float64(count[n]) / float64(max(total, 1))
		if count[n] == 0 {
			unmatched = append(unmatched, n)
		}
	}
	sort.Strings(unmatched)
	return out, unmatched
}

// writeFolded writes the pooled samples in the collapsed-stack text form
// flame-graph tools read: root-first frames joined by ';', then a count.
func writeFolded(path string, ss []stack) error {
	agg := map[string]int64{}
	for _, s := range ss {
		fr := make([]string, len(s.frames))
		for i, f := range s.frames {
			fr[len(fr)-1-i] = f
		}
		agg[strings.Join(fr, ";")] += s.n
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, agg[k])
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
