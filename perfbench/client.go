package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// tally is the run's failure accounting: every HTTP operation and gate
// check is attempted once; non-2xx responses, transport errors, bad
// bodies and gate mismatches count as failed.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	msg := err.Error()
	t.firstErr.CompareAndSwap(nil, &msg)
}

// client is one keep-alive connection to the server: MaxConnsPerHost
// pins it to a single TCP connection, so a workload opens exactly one
// for its writer and one for its reader.
type client struct {
	base  string
	hc    *http.Client
	tally *tally
	tr    *tracer
}

func newClient(base string, t *tally, tr *tracer) *client {
	transport := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: transport, Timeout: 60 * time.Second}, tally: t, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status int
	body   []byte
	etag   string
	sent   time.Time
	done   time.Time
}

func (r reply) ms() float64 { return float64(r.done.Sub(r.sent)) / float64(time.Millisecond) }

// do runs one request and reads its whole body. kind names the client
// span in a traced run; want lists the accepted status codes. Anything
// else — transport error or unexpected status — is counted as a failure
// and returned as an error.
func (c *client) do(kind, method, path, ctype string, body []byte, ifNoneMatch string, want ...int) (reply, error) {
	c.tally.attempted.Add(1)
	r, err := c.roundTrip(kind, method, path, ctype, body, ifNoneMatch)
	if err == nil {
		err = fmt.Errorf("%s %s: status %d: %.200s", method, path, r.status, r.body)
		for _, w := range want {
			if r.status == w {
				err = nil
			}
		}
	}
	if err != nil {
		c.tally.fail(err)
	}
	return r, err
}

func (c *client) roundTrip(kind, method, path, ctype string, body []byte, ifNoneMatch string) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	op := c.tr.newOp()
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	r := reply{sent: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return r, err
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	r.etag = resp.Header.Get("ETag")
	c.tr.record(span{ID: op, Op: op, Name: "client." + kind, Start: c.tr.at(r.sent), End: c.tr.at(r.done), Bytes: len(body)})
	return r, err
}

// ingest posts one batch body and checks the reply accounts for exactly
// the columns sent. Returns the round trip in ms, +Inf on failure.
func (c *client) ingest(tenant, ctype string, body []byte, cols int) float64 {
	r, err := c.do("ingest", "POST", "/v1/tenants/"+tenant+"/ingest", ctype, body, "", http.StatusOK)
	if err != nil {
		return math.Inf(1)
	}
	var out struct {
		Columns int `json:"columns"`
		Batches int `json:"batches"`
	}
	if err := json.Unmarshal(r.body, &out); err != nil || out.Columns != cols || out.Batches != 1 {
		c.tally.fail(fmt.Errorf("ingest %s: bad reply %.200s", tenant, r.body))
		return math.Inf(1)
	}
	return r.ms()
}

// readEndpoints is the dashboard's round-robin poll set.
var readEndpoints = []string{"spectrum", "modes", "error", "stats"}

// readerStats is what one open-loop reader saw.
type readerStats struct {
	latMs   []float64 // from each read's due time; +Inf when it failed
	lateMs  []float64 // send time minus due time
	cond    int       // reads sent with If-None-Match
	notMod  int       // 304 answers among them
	specKiB []float64 // sizes of 200 spectrum bodies
}

func (s *readerStats) merge(o readerStats) {
	s.latMs = append(s.latMs, o.latMs...)
	s.lateMs = append(s.lateMs, o.lateMs...)
	s.cond += o.cond
	s.notMod += o.notMod
	s.specKiB = append(s.specKiB, o.specKiB...)
}

// readLoop polls tenant's query endpoints on a fixed schedule of hz
// reads per second until stop closes. The schedule does not slow when
// the server does: each read is timed from when it was due, so a stall
// also charges the reads queued behind it, and lateness records how far
// behind schedule each send went out.
func (c *client) readLoop(tenant string, hz float64, stop <-chan struct{}) readerStats {
	var st readerStats
	etags := map[string]string{}
	period := time.Duration(float64(time.Second) / hz)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return st
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return st
			default:
			}
		}
		ep := readEndpoints[k%len(readEndpoints)]
		inm := etags[ep]
		if inm != "" {
			st.cond++
		}
		r, err := c.do("read", "GET", "/v1/tenants/"+tenant+"/"+ep, "", nil, inm, http.StatusOK, http.StatusNotModified)
		st.lateMs = append(st.lateMs, float64(r.sent.Sub(due))/float64(time.Millisecond))
		if err == nil && r.status == http.StatusOK && !json.Valid(r.body) {
			err = fmt.Errorf("read %s/%s: body is not JSON", tenant, ep)
			c.tally.fail(err)
		}
		if err != nil {
			st.latMs = append(st.latMs, math.Inf(1))
			continue
		}
		st.latMs = append(st.latMs, float64(r.done.Sub(due))/float64(time.Millisecond))
		if r.status == http.StatusNotModified {
			st.notMod++
			continue
		}
		etags[ep] = r.etag
		if ep == "spectrum" {
			st.specKiB = append(st.specKiB, float64(len(r.body))/1024)
		}
	}
}
