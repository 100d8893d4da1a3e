package stream_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/mat"
	"imrdmd/internal/stream"
)

// The decode benchmarks read the first ingest body of the end-to-end
// benchmark's first dataset at seed 1 (generator seed 1000): 200 sensors,
// a 2000-column seed, then the workload's batches. backfill_gpu posts
// 400-column Polaris GPU CSV bodies out of 11600 generated columns;
// dashboard_sclog posts 40-column SC Log JSON batch objects out of 12000.
const (
	benchSensors  = 200
	benchSeedCols = 2000
	benchGenSeed  = 1000
)

// perfbenchCSVBody renders the first 400-column GPU ingest body.
func perfbenchCSVBody(b *testing.B) []byte {
	b.Helper()
	data := bench.GPUData(benchSensors, 11600, benchGenSeed)
	var buf bytes.Buffer
	if err := stream.WriteCSV(&buf, data.ColSlice(benchSeedCols, benchSeedCols+400)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// perfbenchJSONBody renders the first 40-column SC Log ingest body.
func perfbenchJSONBody(b *testing.B) []byte {
	b.Helper()
	m := bench.SCLogData(benchSensors, 12000, benchGenSeed).ColSlice(benchSeedCols, benchSeedCols+40)
	rows := make([][]float64, m.R)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	body, err := json.Marshal(stream.JSONBatch{Data: rows})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func BenchmarkReadCSV(b *testing.B) {
	body := perfbenchCSVBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		m, err := stream.ReadCSV(bytes.NewReader(body))
		if err != nil || m.R != benchSensors || m.C != 400 {
			b.Fatalf("ReadCSV: %v", err)
		}
	}
}

func BenchmarkFromJSON(b *testing.B) {
	body := perfbenchJSONBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		src, err := stream.FromJSON(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var m *mat.Dense
		for {
			next, ok := src.Next()
			if !ok {
				break
			}
			m = next
		}
		if src.Err() != nil || m.R != benchSensors || m.C != 40 {
			b.Fatalf("FromJSON: %v", src.Err())
		}
	}
}
