package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime/debug"
	"sync"

	"imrdmd/internal/bench"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
	"imrdmd/internal/stream"
	"imrdmd/internal/telemetry"
)

const (
	sensors  = 200  // rows of every tenant
	seedCols = 2000 // initial_cols: the CSV seed each tenant starts from
	// datasets is how many independent data streams one run cycles
	// through, each drawn from its own sub-seed of --seed. Rounds run in
	// whole cycles over them, so every run's figures pool the same mix and
	// the rank of any single draw does not set the run's median. With
	// four, backfill_gpu's ingest_p50_ms still followed the seed: over
	// five seeds it spread 0.15 (quartile distance over median), and
	// 0.07 with eight.
	datasets = 8
)

// workloadSpec is one traffic mix. Every round of a workload restores a
// freshly seeded tenant, streams roundCols columns into it through one
// closed-loop writer connection in batches of batchCols, while one
// open-loop reader polls the tenant's query endpoints at readHz on a
// second connection.
type workloadSpec struct {
	name      string
	gpu       bool // Polaris GPU scenario (else SC Log)
	batchCols int
	csv       bool // ingest bodies are CSV (else JSON batch objects)
	roundCols int
	readHz    float64
	// ingestTail and readTail are the fixed tail quantiles reported for
	// each workload: the highest that leaves at least ten samples beyond
	// it in a run at today's speed (checked at run time).
	ingestTail float64
	readTail   float64
}

// Reader rates. Each workload has a reader because every workload
// reports every end-to-end metric; only dashboard_sclog's models real
// read traffic. notes records each run's measured reads per ingest.
const (
	// dashboardReadHz is taken from DESIGN.md's "a dashboard polling
	// every few ingests": the writer of dashboard_sclog posts about 110
	// batches/s on the reference host, so 50 Hz is one read per two to
	// three ingests. It also leaves 80–90 reads beyond the p95 read tail
	// in a 30 s run.
	dashboardReadHz = 50
	// backfillReadHz is the lowest rate tried at which backfill_gpu's
	// read metrics are steady: over five seeds with four datasets per
	// run, read_p50_ms spread 0.22 (quartile distance over median) at
	// 5 Hz and 0.02 at 10 Hz. Reads that land in a 50 ms ingest wait
	// for the server's one thread, so few reads give a jumpy median.
	// 10 Hz is about one read per two ingests.
	backfillReadHz = 10
	// liveReadHz keeps ten reads beyond a p90 read tail in a 30 s run,
	// with half again as margin: 100 reads needed, 150 made. live_sclog
	// is not in BENCHMARK.json, so its rate was not tuned for steadiness.
	liveReadHz = 5
)

var workloads = map[string]workloadSpec{
	"live_sclog": {
		name: "live_sclog", batchCols: 8, roundCols: 6000, readHz: liveReadHz,
		ingestTail: 0.99, readTail: 0.90,
	},
	"backfill_gpu": {
		name: "backfill_gpu", gpu: true, batchCols: 400, csv: true, roundCols: 9600, readHz: backfillReadHz,
		ingestTail: 0.90, readTail: 0.90,
	},
	"dashboard_sclog": {
		name: "dashboard_sclog", batchCols: 40, roundCols: 10000, readHz: dashboardReadHz,
		ingestTail: 0.98, readTail: 0.95,
	},
}

// dt is the scenario's sampling interval.
func (w workloadSpec) dt() float64 {
	if w.gpu {
		return telemetry.PolarisGPU().SampleInterval
	}
	return telemetry.ThetaEnv().SampleInterval
}

// tenantOptions is the POST /v1/tenants/{id} body: the production
// streaming options of the paperbench ingest bench. Shards, mixed
// precision, drift/amplitude windows and the cold tier stay off.
func (w workloadSpec) tenantOptions() []byte {
	return []byte(fmt.Sprintf(`{"dt":%g,"max_levels":6,"max_cycles":2,"use_svht":true,"parallel":true,"block_columns":8,"initial_cols":%d}`,
		w.dt(), seedCols))
}

// coreOptions mirrors tenantOptions for the in-process reference.
func (w workloadSpec) coreOptions() core.Options {
	return core.Options{DT: w.dt(), MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8}
}

func (w workloadSpec) contentType() string {
	if w.csv {
		return "text/csv"
	}
	return "application/json"
}

// dataset is one pre-rendered data stream: the seed body and the ingest
// bodies of one round, exactly as the server receives them.
type dataset struct {
	index   int
	seedCSV []byte
	bodies  [][]byte
	// colSq holds Σᵢ x²ᵢⱼ per absorbed column, for the norm of the data
	// on the level-1 sample grid (the denominator of grid_recon_err).
	colSq []float64
	// data keeps the raw matrix when the kernel probes need its shapes.
	data *mat.Dense
}

// subSeed derives dataset d's generator seed from the run seed.
func subSeed(seed int64, d int) int64 { return seed*1000 + int64(d) }

// renderDatasets generates and renders every dataset of a run from the
// run seed, two at a time. keepData retains dataset 0's raw matrix.
func renderDatasets(w workloadSpec, seed int64, keepData bool) ([]*dataset, error) {
	out := make([]*dataset, datasets)
	errs := make([]error, datasets)
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for d := range out {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out[d], errs[d] = renderDataset(w, subSeed(seed, d), d, keepData && d == 0)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	debug.FreeOSMemory() // drop the rendering garbage before measuring
	return out, nil
}

func renderDataset(w workloadSpec, seed int64, index int, keep bool) (*dataset, error) {
	total := seedCols + w.roundCols
	var data *mat.Dense
	if w.gpu {
		data = bench.GPUData(sensors, total, seed)
	} else {
		data = bench.SCLogData(sensors, total, seed)
	}
	ds := &dataset{index: index, colSq: make([]float64, total)}
	for i := 0; i < data.R; i++ {
		for j, v := range data.Row(i) {
			ds.colSq[j] += v * v
		}
	}
	var seedBuf bytes.Buffer
	if err := stream.WriteCSV(&seedBuf, data.ColSlice(0, seedCols)); err != nil {
		return nil, err
	}
	ds.seedCSV = seedBuf.Bytes()
	for c := seedCols; c < total; c += w.batchCols {
		body, err := renderBody(data.ColSlice(c, c+w.batchCols), w.csv)
		if err != nil {
			return nil, err
		}
		ds.bodies = append(ds.bodies, body)
	}
	if keep {
		ds.data = data
	}
	return ds, nil
}

// renderBody renders one ingest body: CSV rows, or one JSON batch object.
func renderBody(m *mat.Dense, csv bool) ([]byte, error) {
	if csv {
		var buf bytes.Buffer
		if err := stream.WriteCSV(&buf, m); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	rows := make([][]float64, m.R)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return json.Marshal(stream.JSONBatch{Data: rows})
}

// gridNorm is ‖data‖_F over the level-1 sample grid of a tenant that has
// absorbed steps columns into gridCols grid columns (every stride-th
// column from 0).
func (ds *dataset) gridNorm(steps, gridCols int) float64 {
	if gridCols <= 0 {
		return math.NaN()
	}
	stride := (steps + gridCols - 1) / gridCols
	var s float64
	for j := 0; j < steps && j < len(ds.colSq); j += stride {
		s += ds.colSq[j]
	}
	return math.Sqrt(s)
}
