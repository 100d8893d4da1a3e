// Command imrdmd-serve runs the streaming ingestion service: a
// long-lived HTTP server that many dashboards stream telemetry into,
// each tenant owning an incremental I-mrDMD analyzer with its own
// analysis options while every tenant's kernels share one bounded worker
// pool.
//
// Quick start:
//
//	imrdmd-serve -addr :8077 -state-dir ./state &
//	curl -X POST localhost:8077/v1/tenants/theta \
//	     -H 'Content-Type: application/json' \
//	     -d '{"dt":20,"use_svht":true,"block_columns":8,"initial_cols":512}'
//	curl -X POST localhost:8077/v1/tenants/theta/ingest \
//	     -H 'Content-Type: text/csv' --data-binary @telemetry.csv
//	curl localhost:8077/v1/tenants/theta/spectrum
//	curl localhost:8077/v1/tenants/theta/stats
//
// Ingest bodies are CSV (rows = sensors, columns = time steps) or
// concatenated JSON batch objects {"data": [[...], ...]}. Columns buffer
// until the tenant's initial_cols seed width is reached, then stream as
// partial fits batch by batch.
//
// With -state-dir set, every seeded tenant's analyzer is snapshotted
// into the directory on graceful shutdown (SIGINT/SIGTERM) and restored
// from it at the next boot, so tenants survive restarts without
// re-streaming their history. -snapshot-every additionally snapshots on
// a timer, bounding how much streamed history a crash (as opposed to a
// graceful stop) can lose. The same binary snapshots are served by
// GET /v1/tenants/{id}/snapshot and accepted by PUT /v1/tenants/{id} —
// migrating a tenant between hosts is a curl pipe.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"imrdmd/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		workers    = flag.Int("workers", 0, "compute-engine worker lanes shared by all tenants (0 = GOMAXPROCS)")
		maxTenants = flag.Int("max-tenants", 0, "tenant registry cap (0 = unlimited)")
		initial    = flag.Int("initial", 256, "default seed columns for tenants that do not set initial_cols")
		stateDir   = flag.String("state-dir", "", "directory for tenant snapshots (restore at boot, snapshot at shutdown; empty = stateless)")
		snapEvery  = flag.Duration("snapshot-every", 0, "also snapshot all tenants to -state-dir on this interval (0 = shutdown only)")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, `imrdmd-serve — streaming I-mrDMD ingestion service

Per-tenant incremental analyzers behind a chunked HTTP ingest API.
Tenants choose their own analysis options (block-column width, drift
and amplitude windows, cold horizon); all tenants share one bounded compute pool sized by -workers,
so process concurrency does not grow with tenant count.

Endpoints:
  GET    /healthz                   liveness + tenant count
  GET    /v1/tenants                tenant summaries
  POST   /v1/tenants/{id}           create (JSON options body)
  PUT    /v1/tenants/{id}           restore from a snapshot body
  DELETE /v1/tenants/{id}           drop the tenant
  POST   /v1/tenants/{id}/ingest    CSV or JSON column batches
  GET    /v1/tenants/{id}/stats     ingest/latency stats
  GET    /v1/tenants/{id}/modes     retained mode and level counts
  GET    /v1/tenants/{id}/spectrum  per-mode spectrum points
  GET    /v1/tenants/{id}/error     grid reconstruction error + drift
  GET    /v1/tenants/{id}/events    SSE push stream, one event per publish
  GET    /v1/tenants/{id}/snapshot  binary analyzer snapshot

Query endpoints are lock-free (served from the copy-on-write published
result), return strong ETags and X-Imrdmd-Version, and honor
If-None-Match with 304; /spectrum takes ?since=<version> for deltas.

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()

	s := server.New(server.Config{
		Workers:            *workers,
		MaxTenants:         *maxTenants,
		DefaultInitialCols: *initial,
	})
	if *stateDir != "" {
		ids, err := s.RestoreDir(*stateDir)
		if err != nil {
			// Per-file failures must not crash-loop the whole service —
			// the intact tenants are up; the broken files stay on disk
			// for inspection.
			log.Printf("restore %s: WARNING, some snapshots skipped: %v", *stateDir, err)
		}
		if len(ids) > 0 {
			log.Printf("restored %d tenant(s) from %s: %v", len(ids), *stateDir, ids)
		}
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("imrdmd-serve listening on %s (workers=%d)", *addr, *workers)

	// Periodic background snapshots: each tick snapshots every seeded
	// tenant through the same atomic write-temp-then-rename path the
	// shutdown snapshot uses, so a crash between ticks loses at most one
	// interval of streamed history.
	if *snapEvery > 0 && *stateDir != "" {
		go func() {
			tick := time.NewTicker(*snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					n, err := s.SnapshotAll(*stateDir)
					if err != nil {
						log.Printf("periodic snapshot to %s: WARNING: %v", *stateDir, err)
						continue
					}
					log.Printf("periodic snapshot: %d tenant(s) to %s", n, *stateDir)
				}
			}
		}()
	} else if *snapEvery > 0 {
		log.Printf("WARNING: -snapshot-every ignored without -state-dir")
	}

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	// Sever the SSE push streams first: Shutdown waits for in-flight
	// handlers, and /events handlers run until their subscription ends.
	s.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if *stateDir != "" {
		n, err := s.SnapshotAll(*stateDir)
		if err != nil {
			log.Fatalf("snapshot to %s: %v", *stateDir, err)
		}
		log.Printf("snapshotted %d tenant(s) to %s", n, *stateDir)
	}
}
