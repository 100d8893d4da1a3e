package stream

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"imrdmd/internal/core"
	"imrdmd/internal/mat"
)

func randMatrix(seed int64, r, c int) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := mat.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = 50 + 5*math.Sin(float64(i)/40) + rng.NormFloat64()
	}
	return m
}

func TestFromMatrixBatches(t *testing.T) {
	data := randMatrix(1, 4, 10)
	src := FromMatrix(data, 3)
	if src.Rows() != 4 {
		t.Fatalf("Rows = %d", src.Rows())
	}
	var sizes []int
	var all *mat.Dense
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		sizes = append(sizes, b.C)
		if all == nil {
			all = b
		} else {
			all = mat.HStack(all, b)
		}
	}
	want := []int{3, 3, 3, 1}
	if len(sizes) != len(want) {
		t.Fatalf("batch sizes %v want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes %v want %v", sizes, want)
		}
	}
	if d := mat.Sub(all, data).FrobNorm(); d != 0 {
		t.Fatal("batches do not reassemble the matrix")
	}
}

func TestFromMatrixExhausted(t *testing.T) {
	src := FromMatrix(randMatrix(2, 2, 4), 4)
	if _, ok := src.Next(); !ok {
		t.Fatal("first Next should succeed")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source still yields")
	}
}

func TestFromFuncMatchesMatrix(t *testing.T) {
	data := randMatrix(3, 5, 20)
	gen := func(t0, t1 int) *mat.Dense { return data.ColSlice(t0, t1) }
	src := FromFunc(gen, 5, 20, 7)
	var all *mat.Dense
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		if all == nil {
			all = b
		} else {
			all = mat.HStack(all, b)
		}
	}
	if d := mat.Sub(all, data).FrobNorm(); d != 0 {
		t.Fatal("FromFunc batches do not reassemble the matrix")
	}
}

func TestPumpDrivesIncremental(t *testing.T) {
	data := randMatrix(4, 8, 640)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 4, MaxCycles: 2, UseSVHT: true})
	src := FromMatrix(data, 128)
	stats, err := Pump(inc, src, 256)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InitialColumns != 256 {
		t.Fatalf("InitialColumns = %d want 256", stats.InitialColumns)
	}
	if stats.Columns != 640 || inc.Cols() != 640 {
		t.Fatalf("Columns = %d / %d want 640", stats.Columns, inc.Cols())
	}
	if stats.Batches != 3 {
		t.Fatalf("Batches = %d want 3 (one per streamed block)", stats.Batches)
	}
	if stats.MeanPartial() < 0 || stats.TotalPartial() < stats.MeanPartial() {
		t.Fatal("timing accounting inconsistent")
	}
}

// TestPumpSpillHandling: initial columns not aligned to batch size — the
// overflow must become the first partial fit.
func TestPumpSpillHandling(t *testing.T) {
	data := randMatrix(5, 8, 500)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	stats, err := Pump(inc, FromMatrix(data, 200), 150)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InitialColumns != 150 {
		t.Fatalf("InitialColumns = %d want 150", stats.InitialColumns)
	}
	if stats.Columns != 500 {
		t.Fatalf("Columns = %d want 500", stats.Columns)
	}
}

func TestPumpTooFewColumns(t *testing.T) {
	inc := core.NewIncremental(core.Options{DT: 1})
	if _, err := Pump(inc, FromMatrix(mat.NewDense(3, 1), 1), 4); err == nil {
		t.Fatal("want error for starved source")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	data := randMatrix(6, 7, 13)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.Sub(got, data).FrobNorm(); d != 0 {
		t.Fatalf("CSV round trip deviates by %g", d)
	}
}

// TestPumpRejectsTinyInitialCols: the old behavior silently seeded
// InitialFit with every accumulated column when initialCols < 2 (the
// spill split was skipped); now the misconfiguration is rejected up
// front.
func TestPumpRejectsTinyInitialCols(t *testing.T) {
	data := randMatrix(11, 6, 64)
	for _, ic := range []int{-3, 0, 1} {
		inc := core.NewIncremental(core.Options{DT: 1})
		if _, err := Pump(inc, FromMatrix(data, 16), ic); err == nil {
			t.Fatalf("initialCols=%d accepted", ic)
		} else if !strings.Contains(err.Error(), "initialCols") {
			t.Fatalf("initialCols=%d: unhelpful error %v", ic, err)
		}
	}
}

// TestPumpShortSeedSurfaced: a source that exhausts below initialCols
// still seeds (with what arrived) but the stats say so.
func TestPumpShortSeedSurfaced(t *testing.T) {
	data := randMatrix(12, 6, 96)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	stats, err := Pump(inc, FromMatrix(data, 32), 256)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ShortSeed {
		t.Fatal("short seed not surfaced")
	}
	if stats.InitialColumns != 96 || stats.Batches != 0 {
		t.Fatalf("short seed absorbed wrong: initial %d, batches %d", stats.InitialColumns, stats.Batches)
	}
	// The normal path must not set the flag.
	inc2 := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	stats2, err := Pump(inc2, FromMatrix(data, 32), 64)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ShortSeed {
		t.Fatal("full seed flagged short")
	}
}

// TestFeederPushSeedsAndStreams: push-based ingestion — buffer, seed at
// the requested width, stream afterwards.
func TestFeederPushSeedsAndStreams(t *testing.T) {
	data := randMatrix(13, 8, 400)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	f, err := NewFeeder(inc, 150)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFeeder(inc, 1); err == nil {
		t.Fatal("initialCols=1 accepted")
	}
	for c := 0; c < data.C; c += 100 {
		if err := f.Push(data.ColSlice(c, c+100)); err != nil {
			t.Fatal(err)
		}
		if c == 0 && (f.Seeded() || f.Pending() != 100) {
			t.Fatalf("after 100 cols: seeded=%v pending=%d", f.Seeded(), f.Pending())
		}
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.InitialColumns != 150 || st.Columns != 400 || inc.Cols() != 400 {
		t.Fatalf("feeder accounting: initial %d, columns %d, absorbed %d", st.InitialColumns, st.Columns, inc.Cols())
	}
	if st.Batches != 3 { // 50 spill + 100 + 100
		t.Fatalf("Batches = %d want 3", st.Batches)
	}
	if st.ShortSeed {
		t.Fatal("full seed flagged short")
	}
}

// TestResumeFeeder: a feeder over an already fitted analyzer (the
// restored-snapshot path) starts seeded and streams immediately.
func TestResumeFeeder(t *testing.T) {
	data := randMatrix(14, 8, 300)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := inc.InitialFit(data.ColSlice(0, 200)); err != nil {
		t.Fatal(err)
	}
	f := ResumeFeeder(inc)
	if !f.Seeded() {
		t.Fatal("resumed feeder not seeded")
	}
	if err := f.Push(data.ColSlice(200, 300)); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Columns != 300 || st.Batches != 1 {
		t.Fatalf("resume accounting: %+v", st)
	}
}

// TestCSVDegenerateRoundTrip: the shapes plain CSV cannot represent must
// survive Write→Read unchanged via the #shape header.
func TestCSVDegenerateRoundTrip(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {5, 0}, {0, 7}} {
		var buf bytes.Buffer
		in := mat.NewDense(shape[0], shape[1])
		if err := WriteCSV(&buf, in); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		out, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if out == nil || out.R != in.R || out.C != in.C || out.Data == nil {
			t.Fatalf("%v round-tripped to %+v", shape, out)
		}
	}
}

// TestCSVNonFiniteRejected: both directions refuse NaN/±Inf with errors
// that name the cell.
func TestCSVNonFiniteRejected(t *testing.T) {
	m := randMatrix(15, 3, 4)
	m.Set(1, 2, math.Inf(-1))
	if err := WriteCSV(&bytes.Buffer{}, m); err == nil || !strings.Contains(err.Error(), "row 1 col 2") {
		t.Fatalf("Inf write: %v", err)
	}
	m.Set(1, 2, math.NaN())
	if err := WriteCSV(&bytes.Buffer{}, m); err == nil {
		t.Fatal("NaN write accepted")
	}
	for _, in := range []string{"1,NaN\n2,3\n", "1,2\n+Inf,3\n", "1,2\n3,-inf\n"} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%q read: %v", in, err)
		}
	}
}

// TestCSVExtremeFiniteValues: the largest/smallest finite values must
// survive the text round trip exactly.
func TestCSVExtremeFiniteValues(t *testing.T) {
	in := mat.NewDense(2, 2)
	in.Set(0, 0, math.MaxFloat64)
	in.Set(0, 1, -math.MaxFloat64)
	in.Set(1, 0, math.SmallestNonzeroFloat64)
	in.Set(1, 1, -0.0)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("element %d: %v != %v", i, out.Data[i], in.Data[i])
		}
	}
}

// TestJSONSourceBatches: concatenated batch objects stream in order and
// reassemble the matrix.
func TestJSONSourceBatches(t *testing.T) {
	body := `{"data":[[1,2],[3,4]]}{"data":[[5],[6]]}` + "\n" + `{"data":[[7,8,9],[10,11,12]]}`
	src, err := FromJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if src.Rows() != 2 {
		t.Fatalf("Rows = %d", src.Rows())
	}
	var all *mat.Dense
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		if all == nil {
			all = b
		} else {
			all = mat.HStack(all, b)
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 5, 7, 8, 9, 3, 4, 6, 10, 11, 12}
	if all.R != 2 || all.C != 6 {
		t.Fatalf("reassembled %d×%d", all.R, all.C)
	}
	for i, v := range want {
		if all.Data[i] != v {
			t.Fatalf("element %d = %v want %v", i, all.Data[i], v)
		}
	}
}
