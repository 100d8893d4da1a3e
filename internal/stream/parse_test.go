package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/mat"
)

// csvGrammarCases are CSV bodies at the edges of the encoding/csv
// grammar; the oracle reader decides whether each is accepted.
var csvGrammarCases = []string{
	"",
	"\n\n",
	"1.5,2\n3,4\n",
	`"1.5",2` + "\n3,4\n",
	`"1.5","2"` + "\r\n" + `"3",4` + "\r\n",
	"1,2\r\n3,4\r\n",
	"1,2\r\n3,4\r",
	"1,2\n\n3,4\n",
	"1,2\r\n\r\n3,4\n",
	"1,2\n3,4",
	"1,2\n3,4\n\n",
	"\n1,2\n",
	"#shape,0,3\n",
	"#shape,4,0",
	`"#shape",0,3` + "\n",
	"#shape,0,3\n\n\r\n",
	"#shape,0,3\n1,2\n",
	"#shape,2,3\n",
	"#shape,-1,0\n",
	"#shape,0\n",
	"#shape,+2,0\n",
	"1,#shape\n",
	`1"2`,
	`1,2"` + "\n",
	`"1" ,2`,
	`"1"` + "\r,2\n",
	`"1""2",3`,
	`"1` + "\n" + `2",3` + "\n",
	`"1`,
	`""` + "\n",
	"1,,2\n",
	"1,2,\n",
	",\n",
	" 1,2\n",
	"1,2 \n",
	"1\r2,3\n",
	"1,2\r\r\n",
	"NaN,1\n",
	"1,Inf\n",
	"-inf\n",
	"+Inf,1\n",
	"1e400,1\n",
	"1e-400,1\n",
	"-0,0\n",
	"-0.0e5,1\n",
	"1,2\n3\n",
	"1\n2,3\n",
	"1,2\n3,nope\n",
	"0x1p3,1_0\n",
	"+1,.5,5.,-.5\n",
	"\xef\xbb\xbf1,2\n",
	"1,2\x00\n",
}

// jsonGrammarCases are JSON batch streams at the edges of what
// encoding/json decodes into a JSONBatch; the oracle reader decides
// whether each is accepted.
var jsonGrammarCases = []string{
	"",
	" \n\t\r ",
	`{"data":[[1,2],[3,4]]}`,
	`{"DATA":[[1,2],[3,4]]}`,
	`{"Data":[[1]]}{"dAtA":[[2]]}`,
	`{"data":[[1]]}`,
	`{"dataé":[[1]]}`,
	`{"x":{"y":[1,{"z":null}],"w":"}"},"data":[[1]],"v":[[],[{}]]}`,
	`{"x":"\"data\":[[9]]","data":[[1]]}`,
	`{"data":[[1,2]],"data":[[3]]}`,
	`{"data":[[5,6]],"data":[[1]],"data":[[null,null]]}`,
	`{"data":[[1]],"data":null}`,
	`{"data":null}`,
	`{"data":[]}`,
	`{"data":[null]}`,
	`{"data":[null,[]]}`,
	`{"data":[[],[1]]}`,
	`{"data":[[null,1],[2,null]]}`,
	`{}`,
	`{"other":1}`,
	` { "data" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } ` + "\n" + ` {"data":[[5,6],[7,8]]}`,
	`{"data":[[1]]}xyz`,
	`{"data":[[1]]} null`,
	`{"data":[[1]]}[]`,
	`{"data":[[1]]}{"data":[[1],[2]]}`,
	`{"data":[[1,2],[3]]}`,
	`{"data":[[01]]}`,
	`{"data":[[1.]]}`,
	`{"data":[[-]]}`,
	`{"data":[[.5]]}`,
	`{"data":[[+1]]}`,
	`{"data":[[1e400]]}`,
	`{"data":[[1e-400,-0,1E2,2e+1,-3.5e-2]]}`,
	`{"data":[["1"]]}`,
	`{"data":[[true]]}`,
	`{"data":[[[1]]]}`,
	`{"data":{"a":1}}`,
	`{"data":[[1,]]}`,
	`{"data":[[1]],}`,
	`{"data":[[1]]`,
	`{"data":[[1]] "x":1}`,
	`{"data" [[1]]}`,
	`{"da` + "\n" + `ta":[[1]]}`,
	`{"x":tru,"data":[[1]]}`,
	`{"data":[[nul]]}`,
	`{"data":[[null1]]}`,
	`null`,
	`[[1]]`,
	`{"data":[[1]]}` + "\f",
}

// parseFloatCases pin the fast path's bounds; fast says whether the
// exact path takes the input (everything else falls back to strconv).
var parseFloatCases = []struct {
	in   string
	fast bool
}{
	{"72.05798555625728", true},
	{"9007199254740992", true},  // 2^53
	{"9007199254740993", false}, // 2^53+1: mantissa not exact
	{"-9007199254740992", true},
	{"1e22", true},
	{"1e23", false},
	{"1e-22", true},
	{"1e-23", false},
	{"1234567890123456789", false}, // 19 digits, mantissa above 2^53
	{"1234567890.123456e5", true},
	{"12345678901234567890", false}, // 20 digits
	{"0.0000000000000000001", false},
	{"000000000000000000001", false},
	{"007.5", true},
	{"0.000001", true},
	{"4.9e-324", false},
	{"2.2250738585072011e-308", false},
	{"1.7976931348623157e308", false},
	{"1e400", false},
	{"-1e400", false},
	{"-0", true},
	{"0e99999", false},
	{"5.", true},
	{".5", true},
	{"-.5", true},
	{"1e", false},
	{"1e+", false},
	{"", false},
	{"-", false},
	{".", false},
	{"+1", false},
	{"0x1p3", false},
	{"1_0", false},
	{"inf", false},
	{"-Infinity", false},
	{"NaN", false},
	{"1.5.2", false},
	{"1e5.5", false},
	{" 1", false},
}

// sameMatrix fails unless got and want have one shape and bit-identical
// values.
func sameMatrix(t *testing.T, label string, got, want *mat.Dense) {
	t.Helper()
	if got.R != want.R || got.C != want.C || len(got.Data) != len(want.Data) {
		t.Fatalf("%s: shape %d×%d (%d values), oracle %d×%d (%d values)", label, got.R, got.C, len(got.Data), want.R, want.C, len(want.Data))
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: value %d = %v, oracle %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// checkCSV decodes in with ReadCSV and the oracle and fails unless they
// agree on accept or reject and, when both accept, on every value.
func checkCSV(t *testing.T, in []byte) {
	t.Helper()
	got, gerr := ReadCSV(bytes.NewReader(in))
	want, werr := oracleReadCSV(bytes.NewReader(in))
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%.80q: ReadCSV error %v, oracle error %v", in, gerr, werr)
	}
	if werr == nil {
		sameMatrix(t, fmt.Sprintf("%.80q", in), got, want)
	}
}

// jsonOutcome is what a JSON batch stream yields: each batch in order,
// whether opening failed, and whether it ended in an error.
type jsonOutcome struct {
	batches         []*mat.Dense
	openErr, endErr error
}

func decodeJSONStream(in []byte) jsonOutcome {
	src, err := FromJSON(bytes.NewReader(in))
	if err != nil {
		return jsonOutcome{openErr: err}
	}
	var out jsonOutcome
	for b, ok := src.Next(); ok; b, ok = src.Next() {
		out.batches = append(out.batches, b)
	}
	out.endErr = src.Err()
	return out
}

func oracleJSONStream(in []byte) jsonOutcome {
	src, err := oracleFromJSON(bytes.NewReader(in))
	if err != nil {
		return jsonOutcome{openErr: err}
	}
	var out jsonOutcome
	for b, ok := src.Next(); ok; b, ok = src.Next() {
		out.batches = append(out.batches, b)
	}
	out.endErr = src.err
	return out
}

// checkJSON fails unless FromJSON and the oracle open, yield and end the
// stream alike, batch for batch and bit for bit.
func checkJSON(t *testing.T, in []byte) {
	t.Helper()
	got, want := decodeJSONStream(in), oracleJSONStream(in)
	if (got.openErr == nil) != (want.openErr == nil) || (got.endErr == nil) != (want.endErr == nil) {
		t.Fatalf("%.80q: open/end errors %v / %v, oracle %v / %v", in, got.openErr, got.endErr, want.openErr, want.endErr)
	}
	if len(got.batches) != len(want.batches) {
		t.Fatalf("%.80q: %d batches, oracle %d", in, len(got.batches), len(want.batches))
	}
	for i := range want.batches {
		sameMatrix(t, fmt.Sprintf("%.80q batch %d", in, i), got.batches[i], want.batches[i])
	}
}

// checkParseFloat fails unless parseFloat matches strconv.ParseFloat bit
// for bit and error for error.
func checkParseFloat(t *testing.T, s string) {
	t.Helper()
	got, gerr := parseFloat([]byte(s))
	want, werr := strconv.ParseFloat(s, 64)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseFloat(%q) = %v (%#x), strconv %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if (gerr == nil) != (werr == nil) || errors.Is(gerr, strconv.ErrRange) != errors.Is(werr, strconv.ErrRange) {
		t.Fatalf("parseFloat(%q) error %v, strconv %v", s, gerr, werr)
	}
}

// TestReadCSVErrors: every grammar edge case decodes as the oracle
// decodes it, and the plain failures stay failures.
func TestReadCSVErrors(t *testing.T) {
	for _, in := range csvGrammarCases {
		checkCSV(t, []byte(in))
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3,nope\n")); err == nil {
		t.Fatal("bad float accepted")
	}
	got, err := ReadCSV(strings.NewReader(""))
	if err != nil || got.R != 0 {
		t.Fatal("empty CSV should give empty matrix")
	}
	got, err = ReadCSV(strings.NewReader("-0,0\n"))
	if err != nil || !math.Signbit(got.Data[0]) || math.Signbit(got.Data[1]) {
		t.Fatalf("-0 lost its sign: %v %v", got, err)
	}
}

// TestJSONSourceErrors: every grammar edge case streams as the oracle
// streams it; empty bodies, ragged batches and row-count changes fail
// with latched errors.
func TestJSONSourceErrors(t *testing.T) {
	for _, in := range jsonGrammarCases {
		checkJSON(t, []byte(in))
	}
	if _, err := FromJSON(strings.NewReader("")); err == nil {
		t.Fatal("empty body accepted")
	}
	if _, err := FromJSON(strings.NewReader(`{"data":[[1,2],[3]]}`)); err == nil {
		t.Fatal("ragged batch accepted")
	}
	src, err := FromJSON(strings.NewReader(`{"data":[[1],[2]]}{"data":[[3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	if src.Err() == nil {
		t.Fatal("row-count change not surfaced")
	}
}

// TestParseFloatBoundaries: Clinger's bounds take the exact path exactly
// where they should, and every case matches strconv.
func TestParseFloatBoundaries(t *testing.T) {
	for _, tc := range parseFloatCases {
		checkParseFloat(t, tc.in)
		if _, n, ok := parseExact([]byte(tc.in)); (ok && n == len(tc.in)) != tc.fast {
			t.Errorf("%q: exact path %v, want %v", tc.in, ok, tc.fast)
		}
	}
}

// TestPerfbenchBodiesMatchOracle: full-size bodies as the end-to-end
// benchmark renders them (first dataset of seed 1: the 2000-column CSV
// seed and the first ingest bodies of backfill_gpu and dashboard_sclog)
// decode bit-identically to the oracle readers.
func TestPerfbenchBodiesMatchOracle(t *testing.T) {
	gpu := bench.GPUData(200, 11600, 1000)
	sclog := bench.SCLogData(200, 12000, 1000)
	csvOf := func(m *mat.Dense) []byte {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	checkCSV(t, csvOf(gpu.ColSlice(0, 2000)))
	checkCSV(t, csvOf(gpu.ColSlice(2000, 2400)))
	var body []byte
	for c := 2000; c < 2080; c += 40 {
		m := sclog.ColSlice(c, c+40)
		rows := make([][]float64, m.R)
		for i := range rows {
			rows[i] = m.Row(i)
		}
		b, err := json.Marshal(JSONBatch{Data: rows})
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, b...)
	}
	checkJSON(t, body)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// TestDecodersWrapReadErrors: a read failure reaches the caller wrapped,
// so the server can tell an over-limit body from a malformed one.
func TestDecodersWrapReadErrors(t *testing.T) {
	sentinel := errors.New("read failed")
	if _, err := ReadCSV(errReader{sentinel}); !errors.Is(err, sentinel) {
		t.Fatalf("ReadCSV: %v", err)
	}
	if _, err := FromJSON(errReader{sentinel}); !errors.Is(err, sentinel) {
		t.Fatalf("FromJSON: %v", err)
	}
}

func FuzzParseFloat(f *testing.F) {
	for _, tc := range parseFloatCases {
		f.Add(tc.in)
	}
	f.Fuzz(checkParseFloat)
}

func FuzzReadCSV(f *testing.F) {
	for _, in := range csvGrammarCases {
		f.Add([]byte(in))
	}
	f.Fuzz(checkCSV)
}

func FuzzFromJSON(f *testing.F) {
	for _, in := range jsonGrammarCases {
		f.Add([]byte(in))
	}
	f.Fuzz(checkJSON)
}
