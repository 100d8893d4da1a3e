package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// seedTenants creates one tenant per dataset (ids s0, s1, …) and seeds
// it with the dataset's CSV seed body. When the call returns, every
// tenant has run InitialFit.
func seedTenants(c *client, w workloadSpec, ds []*dataset) error {
	for _, d := range ds {
		path := fmt.Sprintf("/v1/tenants/s%d", d.index)
		if _, err := c.do("admin", "POST", path, "application/json", w.tenantOptions(), "", http.StatusCreated); err != nil {
			return err
		}
		r, err := c.do("seed", "POST", path+"/ingest", "text/csv", d.seedCSV, "", http.StatusOK)
		if err != nil {
			return err
		}
		var out struct {
			Seeded bool `json:"seeded"`
			Steps  int  `json:"steps"`
		}
		if err := json.Unmarshal(r.body, &out); err != nil || !out.Seeded || out.Steps != seedCols {
			err = fmt.Errorf("seed %s: bad reply %.200s", path, r.body)
			c.tally.fail(err)
			return err
		}
	}
	return nil
}

// seedSnapshots fetches every seed tenant's snapshot, then drops the
// tenant: each round restores a fresh copy, so every round of a dataset
// streams the same columns into the same starting state.
func seedSnapshots(c *client, ds []*dataset) ([][]byte, error) {
	snaps := make([][]byte, len(ds))
	for _, d := range ds {
		path := fmt.Sprintf("/v1/tenants/s%d", d.index)
		r, err := c.do("admin", "GET", path+"/snapshot", "", nil, "", http.StatusOK)
		if err != nil {
			return nil, err
		}
		snaps[d.index] = r.body
		if _, err := c.do("admin", "DELETE", path, "", nil, "", http.StatusNoContent); err != nil {
			return nil, err
		}
	}
	return snaps, nil
}

// answers holds one tenant's query answers, captured for the gate.
type answers struct {
	modes, errBody, stats, spectrum []byte
}

// copyCheck pairs a checkpointed tenant's answers with those of the copy
// restored from its snapshot.
type copyCheck struct {
	source, copy *answers
}

// runStats aggregates the rounds of one pass. Every operation is kept.
// Each latency is scaled by its round's unstolen share (see stealClock),
// so a round the hypervisor slowed counts at the speed the program ran.
type runStats struct {
	ingestMs    []float64 // per batch round trip; +Inf for failures
	absorbed    int       // columns the server acknowledged
	unstolenSec float64   // stream wall time scaled by its unstolen share
	streamSec   float64   // stream wall time
	roundSec    []float64 // stream wall time of each round, in run order
	roundKeep   []float64 // unstolen share of each round
	reads       readerStats
	snapRestore []float64 // seconds per checkpoint; +Inf for failures
	rounds      int
	finals      []*answers   // per dataset: its last round's tenant
	copies      []*copyCheck // per dataset: its checkpointed round
}

// hooks let the traced run bracket each round's stream and checkpoint.
type hooks struct {
	streamStart, streamEnd         func()
	checkpointStart, checkpointEnd func()
}

func call(f func()) {
	if f != nil {
		f()
	}
}

// runRounds runs whole cycles of rounds — one per dataset, so every run
// pools each dataset equally — streaming for about seconds in all: after
// the first cycle it settles on the cycle count nearest seconds. Rounds
// of the first cycle also checkpoint their tenant.
func runRounds(wc, rc *client, w workloadSpec, ds []*dataset, snaps [][]byte, seconds float64, tag string, h hooks) (*runStats, error) {
	st := &runStats{finals: make([]*answers, len(ds)), copies: make([]*copyCheck, len(ds))}
	target := 1
	for cycle := 1; ; cycle++ {
		for _, d := range ds {
			id := fmt.Sprintf("%s%d", tag, st.rounds)
			if err := runRound(st, wc, rc, w, d, snaps[d.index], id, cycle == 1, h); err != nil {
				return nil, err
			}
		}
		if cycle == 1 {
			target = max(1, int(math.Round(seconds/st.streamSec)))
		}
		if cycle >= target {
			return st, nil
		}
	}
}

// runRound restores the dataset's seed snapshot into a new tenant (off
// the clock); then, on the clock, streams the round's bodies through the
// closed-loop writer while the open-loop reader polls. A checkpoint
// round then times GET /snapshot + PUT restore into a second tenant
// (snapshot_restore_s) and captures both tenants' answers. Off the
// clock, the round captures its tenant's final answers for the gate and
// deletes its tenants.
func runRound(st *runStats, wc, rc *client, w workloadSpec, d *dataset, snap []byte, id string, checkpoint bool, h hooks) error {
	path := "/v1/tenants/" + id
	if _, err := wc.do("admin", "PUT", path, "application/octet-stream", snap, "", http.StatusCreated); err != nil {
		return err
	}
	call(h.streamStart)
	stop := make(chan struct{})
	var reads readerStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = rc.readLoop(id, w.readHz, stop)
	}()
	clock := startClock()
	ingest := make([]float64, 0, len(d.bodies))
	for _, b := range d.bodies {
		ingest = append(ingest, wc.ingest(id, w.contentType(), b, w.batchCols))
	}
	sec, keep, err := clock.stop()
	close(stop)
	wg.Wait()
	call(h.streamEnd)
	if err != nil {
		return fmt.Errorf("round %s: %w", id, err)
	}
	for _, ms := range ingest {
		st.ingestMs = append(st.ingestMs, ms*keep)
		if !math.IsInf(ms, 1) {
			st.absorbed += w.batchCols
		}
	}
	for i := range reads.latMs {
		reads.latMs[i] *= keep
	}
	st.reads.merge(reads)
	st.roundSec = append(st.roundSec, sec)
	st.roundKeep = append(st.roundKeep, keep)
	st.streamSec += sec
	st.unstolenSec += sec * keep
	st.rounds++

	if checkpoint {
		call(h.checkpointStart)
		clock := startClock()
		s, err := wc.do("snapshot", "GET", path+"/snapshot", "", nil, "", http.StatusOK)
		if err == nil {
			_, err = wc.do("restore", "PUT", path+"c", "application/octet-stream", s.body, "", http.StatusCreated)
		}
		sec, keep, serr := clock.stop()
		call(h.checkpointEnd)
		if serr != nil {
			return fmt.Errorf("checkpoint %s: %w", id, serr)
		}
		if err != nil {
			st.snapRestore = append(st.snapRestore, math.Inf(1))
		} else {
			st.snapRestore = append(st.snapRestore, sec*keep)
		}
	}

	st.finals[d.index] = capture(wc, id)
	wc.do("admin", "DELETE", path, "", nil, "", http.StatusNoContent)
	if checkpoint {
		st.copies[d.index] = &copyCheck{source: st.finals[d.index], copy: capture(wc, id+"c")}
		wc.do("admin", "DELETE", path+"c", "", nil, "", http.StatusNoContent)
	}
	return nil
}

// rate is columns absorbed per second of the stream's unstolen time.
func (st *runStats) rate() float64 { return float64(st.absorbed) / st.unstolenSec }

// capture reads a tenant's query answers. Failed reads leave nil bodies,
// which the gate rejects.
func capture(c *client, id string) *answers {
	get := func(ep string) []byte {
		r, err := c.do("gate", "GET", "/v1/tenants/"+id+"/"+ep, "", nil, "", http.StatusOK)
		if err != nil {
			return nil
		}
		return r.body
	}
	return &answers{modes: get("modes"), errBody: get("error"), stats: get("stats"), spectrum: get("spectrum")}
}

// maxStealShare is the largest share of a window the hypervisor may
// steal before the window is refused as a measurement of the host.
const maxStealShare = 0.9

// stealClock times a window in wall time and reads how much of the VM's
// runnable CPU time the hypervisor stole during it. The host's speed
// follows that steal almost linearly, so every timed window — a round's
// stream, a checkpoint, a set-up — is charged only for its unstolen
// share: its latencies and times are scaled by 1 − stolen/runnable,
// where runnable is the CPU time the VM's CPUs ran or wanted to run.
// The closed-loop writer keeps one thread runnable throughout a window,
// and steal falls on it in that proportion. The correction is per
// window, never per operation, so it does not depend on how long any
// one operation took. Where the counters do not exist, nothing is
// stolen.
type stealClock struct {
	t0     time.Time
	steal0 int64
	run0   int64
}

func startClock() stealClock {
	st, run := cpuTicks()
	return stealClock{steal0: st, run0: run, t0: time.Now()}
}

// stop returns the window's wall seconds and its unstolen share.
func (c stealClock) stop() (wall, keep float64, err error) {
	wall = time.Since(c.t0).Seconds()
	st, run := cpuTicks()
	stolen, runnable := st-c.steal0, run-c.run0
	if runnable <= 0 {
		return wall, 1, nil
	}
	share := float64(stolen) / float64(runnable)
	if share >= maxStealShare {
		return wall, 0, fmt.Errorf("the hypervisor stole %.0f%% of the VM's CPU time in a %.2f s window; the host is too disturbed to measure", 100*share, wall)
	}
	return wall, 1 - share, nil
}

// cpuTicks reads, from the first line of /proc/stat, the CPU time the
// hypervisor has stolen from this VM's CPUs and the time they ran or
// wanted to run (user, nice, system, irq, softirq and steal), both
// cumulative, in ticks. Both read 0 where the counters do not exist.
func cpuTicks() (steal, runnable int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[7], v[0] + v[1] + v[2] + v[5] + v[6] + v[7]
}
