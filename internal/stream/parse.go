package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unsafe"

	"imrdmd/internal/mat"
)

// This file holds the one-pass ingest decoders behind ReadCSV and
// JSONSource. Each reads the body once and parses every number straight
// from the body bytes into the batch matrix's storage. They accept
// exactly the language of the encoding/csv and encoding/json readers
// they replaced (kept as test oracles in oracle_test.go) and produce
// bit-identical values; DESIGN.md §8 "Ingest wire formats" states the
// grammar.

// readBody reads r to EOF into one buffer. A *bytes.Buffer hands over
// its unread bytes without a copy (the server reads request bodies into
// one, sized from Content-Length); readers that report their remaining
// length, such as bytes.Reader, size the buffer once.
func readBody(r io.Reader) ([]byte, error) {
	hint := 0
	switch b := r.(type) {
	case *bytes.Buffer:
		return b.Next(b.Len()), nil
	case interface{ Len() int }:
		hint = b.Len()
	}
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// pow10 holds the powers of ten that float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20,
	1e21, 1e22,
}

// parseFloat returns exactly what strconv.ParseFloat(string(b), 64)
// returns, bit for bit and error for error. Plain decimals with at most
// 19 significant digits, a mantissa of at most 2^53 and a power of ten
// of magnitude at most 22 take Clinger's exact path: mantissa and power
// are both exact float64 values, so one IEEE multiply or divide rounds
// the exact decimal value correctly, as strconv does. strconv's own exact
// path stops at mantissas below 2^52, which misses most 16-digit
// telemetry values. Everything else goes to strconv on the same bytes.
func parseFloat(b []byte) (float64, error) {
	if f, n, ok := parseExact(b); ok && n == len(b) {
		return f, nil
	}
	// strconv copies the input into any error it returns, so the string
	// never outlives b.
	return strconv.ParseFloat(unsafe.String(unsafe.SliceData(b), len(b)), 64)
}

// parseExact is parseFloat's fast path. It parses the plain decimal
// -?digits[.digits][(e|E)[+-]digits] at the start of b and returns its
// value and length; ok is false when b does not start with one or the
// number lies outside Clinger's bounds. Leading zeros count toward the
// 19 digits, which only sends a few more inputs to strconv.
func parseExact(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i = 1
	}
	var mant uint64
	start := i
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		mant = mant*10 + uint64(d)
	}
	digits, exp := i-start, 0
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			mant = mant*10 + uint64(d)
		}
		digits += i - frac
		exp = frac - i
	}
	if digits == 0 || digits > 19 {
		return 0, 0, false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		esign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		e, estart := 0, i
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if e < 1000 {
				e = e*10 + int(d)
			}
		}
		if i == estart {
			return 0, 0, false
		}
		exp += esign * e
	}
	if mant > 1<<53 || exp < -22 || exp > 22 {
		return 0, 0, false
	}
	f = float64(mant)
	if exp > 0 {
		f *= pow10[exp]
	} else if exp < 0 {
		f /= pow10[-exp]
	}
	if neg {
		f = -f
	}
	return f, i, true
}

// parseCSV decodes a WriteCSV body: the encoding/csv record grammar
// (comma-separated, optional double quotes, CRLF or LF endings, blank
// lines skipped) restricted to what a numeric matrix can hold, so a
// quoted field that spans lines or holds an escaped quote is rejected
// where the old reader rejected its content.
func parseCSV(b []byte) (*mat.Dense, error) {
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1] // encoding/csv drops a \r that ends the input
	}
	var vals []float64
	var shape *mat.Dense
	rows, cols := 0, 0
	for pos := 0; pos < len(b); {
		line := b[pos:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
			pos += i + 1
			if i > 0 && line[i-1] == '\r' {
				line = line[:i-1] // CRLF
			}
		} else {
			pos = len(b)
		}
		if len(line) == 0 {
			continue
		}
		if shape != nil {
			return nil, errors.New("stream: malformed #shape header")
		}
		if rows == 0 {
			if field, _, err := csvField(line, 0); err == nil && string(field) == shapeTag {
				if shape, err = csvShape(line); err != nil {
					return nil, err
				}
				continue
			}
			// Size the matrix once from the first record's field count
			// and the line count, capped by what the body's bytes can
			// hold (a field takes a digit and a separator) so that blank
			// lines cannot inflate it.
			c := bytes.Count(line, []byte{','}) + 1
			r := 1 + bytes.Count(b[pos:], []byte{'\n'})
			if pos < len(b) && b[len(b)-1] != '\n' {
				r++
			}
			vals = make([]float64, 0, min(r, len(b)/(2*c)+1)*c)
		}
		f := 0
		for i := 0; ; f++ {
			// A plain decimal that runs to the next comma is the whole
			// field; anything else is split off and parsed in full.
			v, n, ok := parseExact(line[i:])
			next := i + n
			if !ok || (next < len(line) && line[next] != ',') {
				field, end, err := csvField(line, i)
				if err == nil {
					v, err = parseFloat(field)
				}
				if err != nil {
					return nil, fmt.Errorf("stream: row %d col %d: %w", rows, f, err)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("stream: row %d col %d: non-finite value %q", rows, f, field)
				}
				next = end
			}
			if rows == 0 || f < cols {
				vals = append(vals, v)
			}
			if next == len(line) {
				break
			}
			i = next + 1
		}
		if rows == 0 {
			cols = f + 1
		} else if f+1 != cols {
			return nil, fmt.Errorf("stream: ragged CSV: row %d has %d fields, want %d", rows, f+1, cols)
		}
		rows++
	}
	switch {
	case shape != nil:
		return shape, nil
	case rows == 0:
		return mat.NewDense(0, 0), nil
	}
	return &mat.Dense{R: rows, C: cols, Data: vals[: rows*cols : rows*cols]}, nil
}

// errBareQuote and errQuote mirror encoding/csv's quote errors; a quoted
// field that does not close on its own line is an errQuote too, since
// no number spans lines.
var (
	errBareQuote = errors.New(`bare " in non-quoted field`)
	errQuote     = errors.New(`extraneous or missing " in quoted field`)
)

// csvField returns the field of line starting at byte i and the index of
// the comma ending it (len(line) for the last field).
func csvField(line []byte, i int) (field []byte, next int, err error) {
	rest := line[i:]
	if len(rest) > 0 && rest[0] == '"' {
		j := bytes.IndexByte(rest[1:], '"')
		if j < 0 {
			return nil, 0, errQuote
		}
		next = i + j + 2
		if next < len(line) && line[next] != ',' {
			return nil, 0, errQuote
		}
		return rest[1 : j+1], next, nil
	}
	j := bytes.IndexByte(rest, ',')
	if j < 0 {
		j = len(rest)
	}
	field = rest[:j]
	if bytes.IndexByte(field, '"') >= 0 {
		return nil, 0, errBareQuote
	}
	return field, i + j, nil
}

// csvShape decodes the "#shape,R,C" header record of a degenerate
// matrix.
func csvShape(header []byte) (*mat.Dense, error) {
	var fields []string
	for i := 0; ; {
		field, next, err := csvField(header, i)
		if err != nil {
			return nil, fmt.Errorf("stream: #shape header: %w", err)
		}
		fields = append(fields, string(field))
		if next == len(header) {
			break
		}
		i = next + 1
	}
	if len(fields) != 3 {
		return nil, errors.New("stream: malformed #shape header")
	}
	pr, err1 := strconv.Atoi(fields[1])
	pc, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil || pr < 0 || pc < 0 || (pr != 0 && pc != 0) {
		return nil, fmt.Errorf("stream: #shape header %v is not a degenerate shape", fields[1:])
	}
	return mat.NewDense(pr, pc), nil
}

// jsonScanner parses a stream of concatenated JSONBatch objects in place.
// The data field takes the fast path; the rare rest of the object
// grammar (unknown keys, escaped or non-ASCII key names) is delegated to
// encoding/json so there is one validator for it.
type jsonScanner struct {
	buf []byte
	pos int
}

// skipSpace advances past JSON whitespace and returns the next byte, or
// 0 at the end of input (check s.pos to tell it from a NUL byte).
func (s *jsonScanner) skipSpace() byte {
	for ; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// syntaxErr reports the byte at s.pos as unexpected.
func (s *jsonScanner) syntaxErr(context string) error {
	if s.pos >= len(s.buf) {
		return fmt.Errorf("unexpected end of JSON input %s", context)
	}
	return fmt.Errorf("invalid character %q %s at offset %d", s.buf[s.pos], context, s.pos)
}

// batch parses the next batch object, returning nil, nil at the end of
// the input.
func (s *jsonScanner) batch() (*mat.Dense, error) {
	if s.skipSpace() != '{' {
		if s.pos >= len(s.buf) {
			return nil, nil
		}
		return nil, s.syntaxErr("looking for a batch object")
	}
	start := s.pos
	s.pos++
	var data *jsonData
	if s.skipSpace() == '}' {
		s.pos++
	} else {
		for {
			if s.skipSpace() != '"' {
				return nil, s.syntaxErr("looking for an object key")
			}
			isData, err := s.key()
			if err != nil {
				return nil, err
			}
			if s.skipSpace() != ':' {
				return nil, s.syntaxErr("after object key")
			}
			s.pos++
			s.skipSpace()
			if isData && data != nil {
				if data, err = s.repeatedData(start); err != nil {
					return nil, err
				}
				break
			}
			if isData {
				if data, err = s.data(); err != nil {
					return nil, err
				}
			} else if err := s.skipValue(); err != nil {
				return nil, err
			}
			c := s.skipSpace()
			s.pos++
			if c == '}' {
				break
			}
			if c != ',' {
				s.pos--
				return nil, s.syntaxErr("after object key:value pair")
			}
		}
	}
	if data == nil || data.rows == 0 {
		return nil, errors.New("JSON batch has no rows")
	}
	if data.ragged >= 0 {
		return nil, fmt.Errorf("ragged JSON batch: row %d has %d values, want %d", data.ragged, data.raggedLen, data.cols)
	}
	n := data.rows * data.cols
	return &mat.Dense{R: data.rows, C: data.cols, Data: data.vals[:n:n]}, nil
}

// repeatedData decodes the batch object at start, whose data key
// repeats, with encoding/json and leaves s after the object. Its decoder
// writes the later value into the slices the earlier one allocated, and
// a null number leaves a slot as it was, so what survives depends on
// slice capacities that only encoding/json itself reproduces.
func (s *jsonScanner) repeatedData(start int) (*jsonData, error) {
	dec := json.NewDecoder(bytes.NewReader(s.buf[start:]))
	var b JSONBatch
	if err := dec.Decode(&b); err != nil {
		return nil, err
	}
	s.pos = start + int(dec.InputOffset())
	d := &jsonData{ragged: -1, vals: []float64{}}
	for _, row := range b.Data {
		d.vals = append(d.vals, row...)
		d.endRow(len(row))
	}
	return d, nil
}

// key parses the object key at s.pos and reports whether it names the
// data field. Like encoding/json, the match ignores case; keys with
// escapes or non-ASCII bytes are unquoted by encoding/json itself.
func (s *jsonScanner) key() (bool, error) {
	start := s.pos
	plain := true
	i := start + 1
	for ; i < len(s.buf); i++ {
		c := s.buf[i]
		if c == '"' {
			break
		}
		switch {
		case c == '\\':
			plain = false
			i++
		case c < 0x20:
			s.pos = i
			return false, s.syntaxErr("in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	if i >= len(s.buf) {
		s.pos = len(s.buf)
		return false, s.syntaxErr("in string literal")
	}
	s.pos = i + 1
	raw := s.buf[start:s.pos]
	if plain {
		return len(raw) == 6 && raw[1]|0x20 == 'd' && raw[2]|0x20 == 'a' && raw[3]|0x20 == 't' && raw[4]|0x20 == 'a', nil
	}
	var name string
	if err := json.Unmarshal(raw, &name); err != nil {
		return false, err
	}
	return strings.EqualFold(name, "data"), nil
}

// skipValue steps over the value of a key other than data. encoding/json
// validates it, so the grammar of skipped values is exactly its own.
func (s *jsonScanner) skipValue() error {
	dec := json.NewDecoder(bytes.NewReader(s.buf[s.pos:]))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	s.pos += int(dec.InputOffset())
	return nil
}

// jsonData is one decoded data value: rows×cols values in row-major
// order, or the first row whose length differs from the first row's.
type jsonData struct {
	vals       []float64
	rows, cols int
	ragged     int
	raggedLen  int
}

// data parses a data value: null, or an array whose rows are each null
// or an array of numbers. Ragged rows are recorded, not rejected, since
// a later data key may replace this value.
func (s *jsonScanner) data() (*jsonData, error) {
	d := &jsonData{ragged: -1}
	if s.literalNull() {
		return d, nil
	}
	if s.pos >= len(s.buf) || s.buf[s.pos] != '[' {
		return nil, s.syntaxErr("looking for the data array")
	}
	s.pos++
	// Each value but the last is followed by a comma, and so is each row
	// but the last, so the commas before the next key or the object's end
	// count the values of a well-formed batch exactly: the matrix is
	// allocated once.
	span := s.buf[s.pos:]
	for _, stop := range []byte{'"', '}'} {
		if i := bytes.IndexByte(span, stop); i >= 0 {
			span = span[:i]
		}
	}
	d.vals = make([]float64, 0, bytes.Count(span, []byte{','})+1)
	if s.skipSpace() == ']' {
		s.pos++
		return d, nil
	}
	for {
		if err := s.row(d); err != nil {
			return nil, err
		}
		c := s.skipSpace()
		s.pos++
		if c == ']' {
			return d, nil
		}
		if c != ',' {
			s.pos--
			return nil, s.syntaxErr("after data row")
		}
		s.skipSpace()
	}
}

// row appends one data row to d.
func (s *jsonScanner) row(d *jsonData) error {
	start := len(d.vals)
	if !s.literalNull() {
		if s.pos >= len(s.buf) || s.buf[s.pos] != '[' {
			return s.syntaxErr("looking for a data row")
		}
		s.pos++
		if s.skipSpace() == ']' {
			s.pos++
		} else {
			for {
				// encoding/json leaves a float64 untouched for null, so a
				// null number in a fresh row reads as zero.
				var v float64
				if !s.literalNull() {
					var err error
					if v, err = s.number(); err != nil {
						return err
					}
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("JSON batch row %d col %d: non-finite value %v", d.rows, len(d.vals)-start, v)
				}
				d.vals = append(d.vals, v)
				c := s.skipSpace()
				s.pos++
				if c == ']' {
					break
				}
				if c != ',' {
					s.pos--
					return s.syntaxErr("after data value")
				}
				s.skipSpace()
			}
		}
	}
	d.endRow(len(d.vals) - start)
	return nil
}

// endRow records a row of n values: the first row sets the column count,
// and the first row to differ from it is kept for the ragged error.
func (d *jsonData) endRow(n int) {
	if d.rows == 0 {
		d.cols = n
	} else if n != d.cols && d.ragged < 0 {
		d.ragged, d.raggedLen = d.rows, n
	}
	d.rows++
}

// literalNull consumes a null literal at s.pos, if there is one.
func (s *jsonScanner) literalNull() bool {
	if bytes.HasPrefix(s.buf[s.pos:], []byte("null")) {
		s.pos += 4
		return true
	}
	return false
}

// number parses a JSON number at s.pos: the JSON grammar, then the value
// as encoding/json converts it (strconv.ParseFloat, via parseFloat).
func (s *jsonScanner) number() (float64, error) {
	b, start := s.buf, s.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		s.pos = i
		return 0, s.syntaxErr("looking for a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			s.pos = i
			return 0, s.syntaxErr("after decimal point in number")
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			s.pos = i
			return 0, s.syntaxErr("in exponent of number")
		}
		i = skipDigits(b, i)
	}
	s.pos = i
	return parseFloat(b[start:i])
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
