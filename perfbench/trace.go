package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opHeader carries a traced client operation's id to the server-side
// middleware, which parents its handler span under it.
const opHeader = "X-Perfbench-Op"

// span is one timed call across a layer boundary. Spans of one operation
// share Op; Parent is the span that caused this one (0 for a root).
// Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so the timed paths carry no tracing cost
// beyond one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// newOp allocates a span id, or 0 when tracing is off.
func (t *tracer) newOp() int64 {
	if !t.enabled() {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) at(tm time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(tm.Sub(t.epoch))
}

func (t *tracer) record(s span) {
	if !t.enabled() || s.ID == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span named name, child of parent within op.
func (t *tracer) timed(name string, op, parent int64, bytes int, f func()) {
	id := t.newOp()
	start := time.Now()
	f()
	t.record(span{ID: id, Parent: parent, Op: op, Name: name, Start: t.at(start), End: t.at(time.Now()), Bytes: bytes})
}

// byName returns the recorded spans with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func durationsMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms()
	}
	return out
}

// middleware wraps the server's handler with one span per request,
// parented under the client span named by opHeader.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(span{ID: t.newOp(), Parent: parent, Op: parent, Name: "server." + route(r), Start: t.at(start), End: t.at(time.Now())})
	})
}

// route classifies a request by the server endpoint it hits.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/ingest"):
		return "ingest"
	case r.Method == http.MethodGet && strings.HasSuffix(p, "/snapshot"):
		return "snapshot"
	case r.Method == http.MethodGet:
		return "read"
	case r.Method == http.MethodPut:
		return "restore"
	default:
		return "admin"
	}
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
