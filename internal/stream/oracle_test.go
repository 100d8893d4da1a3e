package stream

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"imrdmd/internal/mat"
)

// The reference readers: the encoding/csv- and encoding/json-based
// decoders the byte scanners replaced, kept verbatim as oracles. The
// scanners must accept exactly the inputs these accept and return
// bit-identical matrices; error text is not part of the contract.

func oracleReadCSV(r io.Reader) (*mat.Dense, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if len(rows) == 0 {
		return mat.NewDense(0, 0), nil
	}
	if rows[0][0] == shapeTag {
		if len(rows[0]) != 3 || len(rows) != 1 {
			return nil, errors.New("stream: malformed #shape header")
		}
		pr, err1 := strconv.Atoi(rows[0][1])
		pc, err2 := strconv.Atoi(rows[0][2])
		if err1 != nil || err2 != nil || pr < 0 || pc < 0 || (pr != 0 && pc != 0) {
			return nil, fmt.Errorf("stream: #shape header %v is not a degenerate shape", rows[0][1:])
		}
		return mat.NewDense(pr, pc), nil
	}
	c := len(rows[0])
	out := mat.NewDense(len(rows), c)
	for i, rec := range rows {
		if len(rec) != c {
			return nil, fmt.Errorf("stream: ragged CSV: row %d has %d fields, want %d", i, len(rec), c)
		}
		for j, f := range rec {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("stream: row %d col %d: %w", i, j, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("stream: row %d col %d: non-finite value %q", i, j, f)
			}
			out.Set(i, j, v)
		}
	}
	return out, nil
}

// oracleJSONSource is the reflection-decoding JSON batch stream.
type oracleJSONSource struct {
	dec  *json.Decoder
	rows int
	next *mat.Dense
	err  error
}

func oracleFromJSON(r io.Reader) (*oracleJSONSource, error) {
	s := &oracleJSONSource{dec: json.NewDecoder(r)}
	s.next = s.decode()
	if s.err != nil {
		return nil, s.err
	}
	if s.next == nil {
		return nil, errors.New("stream: JSON source holds no batches")
	}
	s.rows = s.next.R
	return s, nil
}

func (s *oracleJSONSource) Next() (*mat.Dense, bool) {
	if s.next == nil {
		return nil, false
	}
	out := s.next
	s.next = s.decode()
	if s.next != nil && s.next.R != s.rows {
		s.err = fmt.Errorf("stream: JSON batch has %d rows, want %d", s.next.R, s.rows)
		s.next = nil
	}
	return out, true
}

func (s *oracleJSONSource) decode() *mat.Dense {
	if s.err != nil {
		return nil
	}
	var b JSONBatch
	if err := s.dec.Decode(&b); err != nil {
		if err != io.EOF {
			s.err = fmt.Errorf("stream: %w", err)
		}
		return nil
	}
	if len(b.Data) == 0 {
		s.err = errors.New("stream: JSON batch has no rows")
		return nil
	}
	c := len(b.Data[0])
	m := mat.NewDense(len(b.Data), c)
	for i, row := range b.Data {
		if len(row) != c {
			s.err = fmt.Errorf("stream: ragged JSON batch: row %d has %d values, want %d", i, len(row), c)
			return nil
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				s.err = fmt.Errorf("stream: JSON batch row %d col %d: non-finite value %v", i, j, v)
				return nil
			}
			m.Set(i, j, v)
		}
	}
	return m
}
