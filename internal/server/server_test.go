package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
	"imrdmd/internal/stream"
)

// testClient wraps an httptest server with the request helpers the suite
// repeats.
type testClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newTestClient(t *testing.T, s *Server) *testClient {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return &testClient{t: t, srv: srv}
}

// do issues a request and returns status and body.
func (c *testClient) do(method, path, contentType string, body []byte) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, out
}

// must asserts the expected status and returns the body.
func (c *testClient) must(method, path, contentType string, body []byte, wantCode int) []byte {
	c.t.Helper()
	code, out := c.do(method, path, contentType, body)
	if code != wantCode {
		c.t.Fatalf("%s %s: status %d want %d (%s)", method, path, code, wantCode, out)
	}
	return out
}

// csvBody renders columns [lo, hi) of data as a CSV ingest body.
func csvBody(t *testing.T, data *mat.Dense, lo, hi int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := stream.WriteCSV(&buf, data.ColSlice(lo, hi)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonBody renders columns [lo, hi) of data as one JSON batch object.
func jsonBody(t *testing.T, data *mat.Dense, lo, hi int) []byte {
	t.Helper()
	sl := data.ColSlice(lo, hi)
	rows := make([][]float64, sl.R)
	for i := range rows {
		rows[i] = sl.Row(i)
	}
	out, err := json.Marshal(stream.JSONBatch{Data: rows})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceAnalyzer replays the same stream schedule the test drives over
// HTTP, directly against a core analyzer.
func referenceAnalyzer(t *testing.T, data *mat.Dense, opts TenantOptions, seedCols, step, until int) *core.Incremental {
	t.Helper()
	copts := opts.toCore(nil)
	copts.Workers = 4
	inc := core.NewIncremental(copts)
	if err := inc.InitialFit(data.ColSlice(0, seedCols)); err != nil {
		t.Fatal(err)
	}
	for c := seedCols; c < until; c += step {
		if _, err := inc.PartialFit(data.ColSlice(c, c+step)); err != nil {
			t.Fatal(err)
		}
	}
	return inc
}

// spectraMatch compares a server spectrum response against a reference
// analyzer's to tol.
func spectraMatch(t *testing.T, label string, body []byte, ref *core.Incremental, tol float64) {
	t.Helper()
	var got []SpectrumPoint
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := ref.Tree().Spectrum()
	if len(got) != len(want) {
		t.Fatalf("%s: %d spectrum points vs %d", label, len(got), len(want))
	}
	for i, wp := range want {
		gp := got[i]
		if d := math.Abs(gp.Freq - wp.Freq); d > tol*(1+math.Abs(wp.Freq)) {
			t.Fatalf("%s point %d: freq %v vs %v", label, i, gp.Freq, wp.Freq)
		}
		if d := math.Abs(gp.Power - wp.Power); d > tol*(1+wp.Power) {
			t.Fatalf("%s point %d: power %v vs %v", label, i, gp.Power, wp.Power)
		}
	}
}

// TestServerTenantLifecycle walks one tenant through create → seed →
// stream → query → delete over CSV ingest.
func TestServerTenantLifecycle(t *testing.T) {
	data := bench.SCLogData(48, 768, 1)
	s := New(Config{Workers: 4, DefaultInitialCols: 512})
	c := newTestClient(t, s)

	opts := []byte(`{"dt":20,"max_levels":3,"max_cycles":2,"use_svht":true,"block_columns":8}`)
	c.must("POST", "/v1/tenants/theta", "application/json", opts, http.StatusCreated)

	// Under-seed ingest buffers without fitting.
	body := c.must("POST", "/v1/tenants/theta/ingest", "text/csv", csvBody(t, data, 0, 256), http.StatusOK)
	var ing struct {
		Seeded  bool `json:"seeded"`
		Pending int  `json:"pending"`
	}
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Seeded || ing.Pending != 256 {
		t.Fatalf("pre-seed state: %+v", ing)
	}
	// Query endpoints refuse before the seed.
	c.must("GET", "/v1/tenants/theta/spectrum", "", nil, http.StatusConflict)
	c.must("GET", "/v1/tenants/theta/snapshot", "", nil, http.StatusConflict)

	// Crossing the seed width fits and spills the excess into a partial fit.
	c.must("POST", "/v1/tenants/theta/ingest", "text/csv", csvBody(t, data, 256, 640), http.StatusOK)
	c.must("POST", "/v1/tenants/theta/ingest", "text/csv", csvBody(t, data, 640, 768), http.StatusOK)

	ref := referenceAnalyzer(t, data, TenantOptions{DT: 20, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, BlockColumns: 8}, 512, 128, 768)
	spectraMatch(t, "lifecycle", c.must("GET", "/v1/tenants/theta/spectrum", "", nil, http.StatusOK), ref, 1e-12)

	var st TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/theta/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps != 768 || !st.Seeded || st.Ingests != 3 {
		t.Fatalf("stats: %+v", st)
	}
	var me struct {
		Modes int `json:"modes"`
	}
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/theta/modes", "", nil, http.StatusOK), &me); err != nil {
		t.Fatal(err)
	}
	if me.Modes != ref.Tree().NumModes() {
		t.Fatalf("modes %d vs reference %d", me.Modes, ref.Tree().NumModes())
	}

	c.must("DELETE", "/v1/tenants/theta", "", nil, http.StatusNoContent)
	c.must("GET", "/v1/tenants/theta/stats", "", nil, http.StatusNotFound)
}

// TestServerColdTierStats: a tenant created with the flat-horizon knobs
// demotes old history to the f32 tier, reports the tiered footprint in
// /stats, and carries the knobs (and the cold tier) across
// snapshot → restore.
func TestServerColdTierStats(t *testing.T) {
	data := bench.SCLogData(48, 1536, 3)
	s := New(Config{Workers: 4, DefaultInitialCols: 512})
	c := newTestClient(t, s)

	opts := []byte(`{"dt":20,"max_levels":3,"max_cycles":2,"use_svht":true,"block_columns":8,` +
		`"cold_horizon":256,"drift_window":8,"amplitude_window":16}`)
	c.must("POST", "/v1/tenants/flat", "application/json", opts, http.StatusCreated)
	for lo := 0; lo < 1280; lo += 256 {
		c.must("POST", "/v1/tenants/flat/ingest", "text/csv", csvBody(t, data, lo, lo+256), http.StatusOK)
	}

	var st TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/flat/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Options.ColdHorizon != 256 || st.Options.DriftWindow != 8 || st.Options.AmplitudeWindow != 16 {
		t.Fatalf("options lost the flat-horizon knobs: %+v", st.Options)
	}
	if st.ResidentBytes <= 0 {
		t.Fatalf("resident_bytes not reported: %d", st.ResidentBytes)
	}
	if st.RawColdCols == 0 {
		t.Fatal("raw_cold_cols = 0: cold tier never engaged")
	}
	// Cold storage halves those columns: resident must undercut all-f64.
	if allF64 := int64(48 * st.Steps * 8); st.ResidentBytes >= allF64 {
		t.Fatalf("resident_bytes %d not below the all-f64 footprint %d", st.ResidentBytes, allF64)
	}

	snap := c.must("GET", "/v1/tenants/flat/snapshot", "", nil, http.StatusOK)
	s2 := New(Config{Workers: 4, DefaultInitialCols: 512})
	c2 := newTestClient(t, s2)
	c2.must("PUT", "/v1/tenants/flat", "application/octet-stream", snap, http.StatusCreated)
	c2.must("POST", "/v1/tenants/flat/ingest", "text/csv", csvBody(t, data, 1280, 1536), http.StatusOK)
	var rst TenantStatus
	if err := json.Unmarshal(c2.must("GET", "/v1/tenants/flat/stats", "", nil, http.StatusOK), &rst); err != nil {
		t.Fatal(err)
	}
	if rst.Options.ColdHorizon != 256 || rst.Steps != 1536 || rst.RawColdCols == 0 {
		t.Fatalf("restored tenant lost tiering: %+v", rst)
	}
}

// TestServerRejects pins the client-error surface: bad options, duplicate
// ids, unknown tenants, malformed and non-finite ingest bodies, and the
// tenant cap.
func TestServerRejects(t *testing.T) {
	s := New(Config{Workers: 2, MaxTenants: 2, DefaultInitialCols: 8})
	c := newTestClient(t, s)

	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"precision":"float16"}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"block_columns":-1}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"initial_cols":1}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"unknown_knob":true}`), http.StatusBadRequest)

	c.must("POST", "/v1/tenants/a", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/a", "application/json", nil, http.StatusConflict)
	c.must("POST", "/v1/tenants/b", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/c", "application/json", nil, http.StatusTooManyRequests)

	c.must("POST", "/v1/tenants/nope/ingest", "text/csv", []byte("1,2\n3,4\n"), http.StatusNotFound)
	c.must("POST", "/v1/tenants/a/ingest", "text/csv", []byte("1,NaN\n2,3\n"), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/a/ingest", "application/json", []byte(`{"data":[[1,2],[3]]}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/a/ingest", "application/pdf", []byte("x"), http.StatusBadRequest)
	c.must("PUT", "/v1/tenants/x", "application/octet-stream", []byte("not a snapshot"), http.StatusBadRequest)
}

// TestServerConcurrentTenantsSnapshotRestore is the server acceptance
// scenario, run under -race in CI: two tenants with independent Options
// (one created with the legacy "mixed" precision, which runs the float64
// path) ingest concurrently against one engine; both are snapshotted, the process
// "restarts" (a fresh Server), both restore and continue streaming; the
// final spectra must match uninterrupted reference runs to 1e-12.
func TestServerConcurrentTenantsSnapshotRestore(t *testing.T) {
	const (
		p     = 48
		total = 1024
		seed  = 512
		step  = 64
		mid   = 768 // snapshot point, between partial fits
	)
	scen := map[string]struct {
		data *mat.Dense
		opts TenantOptions
		body string // ingest encoding: csv or json
	}{
		"sclog-f64": {
			data: bench.SCLogData(p, total, 1),
			opts: TenantOptions{DT: 20, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8, InitialCols: seed},
			body: "csv",
		},
		"gpu-mixed": {
			data: bench.GPUData(p, total, 1),
			opts: TenantOptions{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8, Precision: "mixed", InitialCols: seed},
			body: "json",
		},
	}

	s := New(Config{Workers: 4})
	c := newTestClient(t, s)
	for id, sc := range scen {
		ob, err := json.Marshal(sc.opts)
		if err != nil {
			t.Fatal(err)
		}
		c.must("POST", "/v1/tenants/"+id, "application/json", ob, http.StatusCreated)
	}

	// Phase 1: concurrent ingest to the snapshot point.
	ingestRange := func(cl *testClient, id string, lo, hi int) {
		sc := scen[id]
		for x := lo; x < hi; x += step {
			if sc.body == "csv" {
				cl.must("POST", "/v1/tenants/"+id+"/ingest", "text/csv", csvBody(t, sc.data, x, x+step), http.StatusOK)
			} else {
				cl.must("POST", "/v1/tenants/"+id+"/ingest", "application/json", jsonBody(t, sc.data, x, x+step), http.StatusOK)
			}
		}
	}
	var wg sync.WaitGroup
	for id := range scen {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			ingestRange(c, id, 0, mid)
		}(id)
	}
	// Metrics polling races the in-flight ingest, which must stay clean
	// under -race.
	pollDone := make(chan struct{})
	var pollWg sync.WaitGroup
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		for {
			select {
			case <-pollDone:
				return
			default:
			}
			for id := range scen {
				resp, err := http.Get(c.srv.URL + "/v1/tenants/" + id + "/stats")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()
	wg.Wait()
	close(pollDone)
	pollWg.Wait()

	snapshots := map[string][]byte{}
	for id := range scen {
		snapshots[id] = c.must("GET", "/v1/tenants/"+id+"/snapshot", "", nil, http.StatusOK)
	}

	// Phase 2: "restart" — fresh server, restore both, continue streaming.
	s2 := New(Config{Workers: 4})
	c2 := newTestClient(t, s2)
	for id, snap := range snapshots {
		c2.must("PUT", "/v1/tenants/"+id, "application/octet-stream", snap, http.StatusCreated)
	}
	var wg2 sync.WaitGroup
	for id := range scen {
		wg2.Add(1)
		go func(id string) {
			defer wg2.Done()
			ingestRange(c2, id, mid, total)
		}(id)
	}
	wg2.Wait()

	for id, sc := range scen {
		ref := referenceAnalyzer(t, sc.data, sc.opts, seed, step, total)
		spectraMatch(t, id, c2.must("GET", "/v1/tenants/"+id+"/spectrum", "", nil, http.StatusOK), ref, 1e-12)
		var st TenantStatus
		if err := json.Unmarshal(c2.must("GET", "/v1/tenants/"+id+"/stats", "", nil, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		if st.Steps != total {
			t.Fatalf("%s: restored tenant absorbed %d steps, want %d", id, st.Steps, total)
		}
	}
}

// TestServerLegacyShardsOption: tenant configurations written when the
// level-1 SVD could be row-sharded still create tenants. A non-negative
// "shards" value is ignored — the tenant streams bit-identically to an
// unsharded reference — while a negative value and misspelled keys stay
// rejected.
func TestServerLegacyShardsOption(t *testing.T) {
	data := bench.SCLogData(48, 768, 1)
	s := New(Config{Workers: 4, DefaultInitialCols: 512})
	c := newTestClient(t, s)

	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"dt":20,"shards":-1}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"dt":20,"shardz":2}`), http.StatusBadRequest)

	opts := []byte(`{"dt":20,"max_levels":3,"max_cycles":2,"use_svht":true,"block_columns":8,"shards":2}`)
	c.must("POST", "/v1/tenants/legacy", "application/json", opts, http.StatusCreated)
	c.must("POST", "/v1/tenants/legacy/ingest", "text/csv", csvBody(t, data, 0, 640), http.StatusOK)
	c.must("POST", "/v1/tenants/legacy/ingest", "text/csv", csvBody(t, data, 640, 768), http.StatusOK)

	ref := referenceAnalyzer(t, data, TenantOptions{DT: 20, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, BlockColumns: 8}, 512, 128, 768)
	spectraMatch(t, "legacy-shards", c.must("GET", "/v1/tenants/legacy/spectrum", "", nil, http.StatusOK), ref, 0)

	var st TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/legacy/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps != 768 || st.Options.Shards != 0 {
		t.Fatalf("legacy tenant stats: steps %d, options %+v", st.Steps, st.Options)
	}
}

// TestServerLegacyPrecisionOption: tenant configurations written when a
// float32 screening tier existed still create tenants. "mixed" and
// "float64" are ignored — the tenant streams bit-identically to a
// float64 reference — while a tier no release offered stays rejected.
func TestServerLegacyPrecisionOption(t *testing.T) {
	data := bench.SCLogData(48, 768, 1)
	s := New(Config{Workers: 4, DefaultInitialCols: 512})
	c := newTestClient(t, s)

	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"dt":20,"precision":"float16"}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"dt":20,"precision":"Mixed"}`), http.StatusBadRequest)

	ref := referenceAnalyzer(t, data, TenantOptions{DT: 20, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, BlockColumns: 8}, 512, 128, 768)
	for _, precision := range []string{"mixed", "float64"} {
		id := "legacy-" + precision
		opts := []byte(`{"dt":20,"max_levels":3,"max_cycles":2,"use_svht":true,"block_columns":8,"precision":"` + precision + `"}`)
		c.must("POST", "/v1/tenants/"+id, "application/json", opts, http.StatusCreated)
		c.must("POST", "/v1/tenants/"+id+"/ingest", "text/csv", csvBody(t, data, 0, 640), http.StatusOK)
		c.must("POST", "/v1/tenants/"+id+"/ingest", "text/csv", csvBody(t, data, 640, 768), http.StatusOK)
		spectraMatch(t, id, c.must("GET", "/v1/tenants/"+id+"/spectrum", "", nil, http.StatusOK), ref, 0)

		var st TenantStatus
		if err := json.Unmarshal(c.must("GET", "/v1/tenants/"+id+"/stats", "", nil, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		if st.Steps != 768 || st.Options.Precision != "" {
			t.Fatalf("%s tenant stats: steps %d, options %+v", id, st.Steps, st.Options)
		}
	}
}

// TestSnapshotAllRestoreDir drives the on-disk state round trip the
// serve binary uses at shutdown/boot.
func TestSnapshotAllRestoreDir(t *testing.T) {
	data := bench.SCLogData(32, 640, 1)
	dir := t.TempDir()

	s := New(Config{Workers: 2, DefaultInitialCols: 512})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/disk", "application/json", []byte(`{"dt":20,"max_levels":3,"use_svht":true}`), http.StatusCreated)
	c.must("POST", "/v1/tenants/idle", "application/json", nil, http.StatusCreated) // never seeds
	c.must("POST", "/v1/tenants/disk/ingest", "text/csv", csvBody(t, data, 0, 640), http.StatusOK)

	n, err := s.SnapshotAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("wrote %d snapshots, want 1 (unseeded tenant skipped)", n)
	}

	s2 := New(Config{Workers: 2})
	ids, err := s2.RestoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "disk" {
		t.Fatalf("restored %v", ids)
	}
	c2 := newTestClient(t, s2)
	var st TenantStatus
	if err := json.Unmarshal(c2.must("GET", "/v1/tenants/disk/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps != 640 || !st.Seeded {
		t.Fatalf("restored stats: %+v", st)
	}

	// Restoring into an occupied id conflicts rather than clobbering.
	if _, err := s2.RestoreDir(dir); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	// Missing directory is a clean no-op (fresh deployments).
	if ids, err := New(Config{}).RestoreDir(dir + "-missing"); err != nil || len(ids) != 0 {
		t.Fatalf("missing dir: %v %v", ids, err)
	}
}

// TestHealthAndList covers the fleet-facing endpoints.
func TestHealthAndList(t *testing.T) {
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	var h struct {
		Status  string `json:"status"`
		Tenants int    `json:"tenants"`
	}
	if err := json.Unmarshal(c.must("GET", "/healthz", "", nil, http.StatusOK), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Tenants != 0 {
		t.Fatalf("health: %+v", h)
	}
	for _, id := range []string{"zeta", "alpha"} {
		c.must("POST", "/v1/tenants/"+id, "application/json", nil, http.StatusCreated)
	}
	var list []TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants", "", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "alpha" || list[1].ID != "zeta" {
		t.Fatalf("list: %+v", list)
	}
	if s.Tenants() != 2 {
		t.Fatalf("Tenants() = %d", s.Tenants())
	}
}

// TestTenantIDSanitized: ids become -state-dir file names, so separators
// and dot segments must be rejected (ServeMux unescapes %2F into the
// path value — a traversal id would otherwise escape the state dir).
func TestTenantIDSanitized(t *testing.T) {
	s := New(Config{Workers: 1})
	c := newTestClient(t, s)
	for _, id := range []string{"..%2Fpwn", "%2e%2e", "a%2Fb", "a%5Cb", "sp%20ace", "na%00me"} {
		code, _ := c.do("POST", "/v1/tenants/"+id, "application/json", nil)
		if code != http.StatusBadRequest && code != http.StatusNotFound {
			t.Fatalf("id %q: status %d, want rejection", id, code)
		}
	}
	// Dot-only ids never reach the handler over HTTP (path cleaning), but
	// the validator must still refuse them for any future caller.
	for _, id := range []string{".", "..", "...", ""} {
		if validTenantID(id) {
			t.Fatalf("id %q accepted by validator", id)
		}
	}
	if s.Tenants() != 0 {
		t.Fatalf("%d hostile tenants registered", s.Tenants())
	}
	c.must("POST", "/v1/tenants/ok-1._B", "application/json", nil, http.StatusCreated)
}

// TestIngestRowMismatchPreSeed: a pre-seed batch with a different sensor
// count must return 400, not panic the handler (regression: Feeder.Push
// used to hit mat.HStack's row-mismatch panic).
func TestIngestRowMismatchPreSeed(t *testing.T) {
	s := New(Config{Workers: 1, DefaultInitialCols: 64})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/rows", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/rows/ingest", "text/csv", []byte("1,2\n3,4\n"), http.StatusOK)
	c.must("POST", "/v1/tenants/rows/ingest", "text/csv", []byte("1,2\n3,4\n5,6\n"), http.StatusBadRequest)
	// The tenant is still alive and consistent after the rejection.
	var st TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/rows/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Pending != 2 || st.Seeded {
		t.Fatalf("tenant state after rejected batch: %+v", st)
	}
}

// TestIngestFailureAbsorptionContract: the whole body decodes before any
// state is touched, so malformed or internally inconsistent bodies
// absorb NOTHING (no double-ingest risk on retry); an apply-phase
// rejection (analyzer row mismatch) reports the absorbed counts so a
// client knows exactly how far the ingest got.
func TestIngestFailureAbsorptionContract(t *testing.T) {
	data := bench.SCLogData(8, 96, 1)
	s := New(Config{Workers: 1, DefaultInitialCols: 16})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/part", "application/json", nil, http.StatusCreated)

	// Decode failure mid-body: nothing absorbed (parse happens up front,
	// before the first valid batch could have been applied).
	bad := string(jsonBody(t, data, 0, 32)) + `{"data":[[1],[2],[3]]` // truncated object
	code, _ := c.do("POST", "/v1/tenants/part/ingest", "application/json", []byte(bad))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", code)
	}
	var st TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/part/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Seeded || st.Pending != 0 {
		t.Fatalf("malformed body absorbed columns: %+v", st)
	}
	// Same for a body whose batches disagree on row count with each other.
	mixed := string(jsonBody(t, data, 0, 32)) + `{"data":[[1,2],[3,4]]}`
	c.must("POST", "/v1/tenants/part/ingest", "application/json", []byte(mixed), http.StatusBadRequest)

	// Apply-phase rejection: seed with 8 sensors, then send a well-formed
	// body with the wrong sensor count — the response carries the
	// absorbed counts (zero here) alongside the error.
	c.must("POST", "/v1/tenants/part/ingest", "application/json", jsonBody(t, data, 0, 32), http.StatusOK)
	body := c.must("POST", "/v1/tenants/part/ingest", "application/json", []byte(`{"data":[[1,2],[3,4]]}`), http.StatusBadRequest)
	var pr struct {
		Error   string `json:"error"`
		Columns int    `json:"columns_absorbed"`
		Batches int    `json:"batches_absorbed"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Error == "" || pr.Columns != 0 || pr.Batches != 0 {
		t.Fatalf("apply-failure report: %+v", pr)
	}
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/part/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps != 32 {
		t.Fatalf("steps after rejected ingest = %d want 32", st.Steps)
	}
}

// TestRestoreDirSkipsInvalidIDs: a snapshot file whose name is not a
// valid tenant id must be skipped at boot (it would register a zombie no
// request can address), reported in the returned error.
func TestRestoreDirSkipsInvalidIDs(t *testing.T) {
	data := bench.SCLogData(16, 320, 1)
	dir := t.TempDir()
	s := New(Config{Workers: 1, DefaultInitialCols: 256})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/good", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/good/ingest", "text/csv", csvBody(t, data, 0, 320), http.StatusOK)
	if _, err := s.SnapshotAll(dir); err != nil {
		t.Fatal(err)
	}
	// A well-formed snapshot under an unaddressable file name.
	snap := c.must("GET", "/v1/tenants/good/snapshot", "", nil, http.StatusOK)
	if err := os.WriteFile(filepath.Join(dir, "bad name.imrdmd"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1})
	ids, err := s2.RestoreDir(dir)
	if err == nil {
		t.Fatal("invalid-id snapshot not reported")
	}
	if len(ids) != 1 || ids[0] != "good" || s2.Tenants() != 1 {
		t.Fatalf("restored %v (%d tenants)", ids, s2.Tenants())
	}
}

// fillReader is an endless body of one repeated byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestBodyLimits: an ingest body over maxIngestBody and an options body
// over maxOptionsBody are refused with 413 and the usual JSON error, and
// absorb nothing — whether the client declared the length up front or
// streamed the body without one.
func TestBodyLimits(t *testing.T) {
	data := bench.SCLogData(8, 64, 1)
	s := New(Config{Workers: 1, DefaultInitialCols: 32})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/big", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/big/ingest", "text/csv", csvBody(t, data, 0, 40), http.StatusOK)
	status := func() TenantStatus {
		var st TenantStatus
		if err := json.Unmarshal(c.must("GET", "/v1/tenants/big/stats", "", nil, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := status()
	if !before.Seeded || before.Updates == 0 {
		t.Fatalf("tenant not streaming before the oversize bodies: %+v", before)
	}
	for _, tc := range []struct {
		name, path, ctype string
		limit             int64
		declared          bool
	}{
		{"csv streamed", "/v1/tenants/big/ingest", "text/csv", maxIngestBody, false},
		{"json streamed", "/v1/tenants/big/ingest", "application/json", maxIngestBody, false},
		{"csv declared", "/v1/tenants/big/ingest", "text/csv", maxIngestBody, true},
		{"json declared", "/v1/tenants/big/ingest", "application/json", maxIngestBody, true},
		{"options streamed", "/v1/tenants/opts", "application/json", maxOptionsBody, false},
		{"options declared", "/v1/tenants/opts", "application/json", maxOptionsBody, true},
	} {
		req := httptest.NewRequest("POST", tc.path, io.LimitReader(fillReader(' '), tc.limit+1))
		req.Header.Set("Content-Type", tc.ctype)
		if tc.declared {
			req.ContentLength = tc.limit + 1
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var body struct {
			Error string `json:"error"`
		}
		if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
			t.Fatalf("%s: status %d body %.200q, want 413 with a JSON error", tc.name, rec.Code, rec.Body.Bytes())
		}
	}
	if after := status(); after.Updates != before.Updates || after.Steps != before.Steps || after.Pending != before.Pending {
		t.Fatalf("oversize bodies changed the tenant: before %+v after %+v", before, after)
	}
	c.must("GET", "/v1/tenants/opts/stats", "", nil, http.StatusNotFound)
}
