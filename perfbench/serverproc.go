package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// serverProcs is the GOMAXPROCS and -workers value of the server
	// under test, recorded with every result. One keeps run-to-run spread
	// lowest on a 2-CPU host, leaving the other CPU to the load generator.
	serverProcs = 1
)

// serverProc is one running cmd/imrdmd-serve process.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  bytes.Buffer
	done chan struct{}
	err  error
}

// running tracks started servers so an interrupt or the watchdog can
// stop them before the benchmark exits.
var running struct {
	sync.Mutex
	procs map[*serverProc]bool
}

// startServer launches the server on a free loopback port and waits
// until /healthz answers.
func startServer(bin string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &serverProc{base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port), "-workers", strconv.Itoa(serverProcs))
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	// The server dies with the generator, even if the generator crashes.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	running.Lock()
	if running.procs == nil {
		running.procs = map[*serverProc]bool{}
	}
	running.procs[s] = true
	running.Unlock()
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	hc := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}, Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("server exited during start-up: %v: %s", s.err, s.log.String())
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("server did not answer /healthz within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (the server's graceful path), waits, and kills it
// if it has not exited within ten seconds.
func (s *serverProc) stop() {
	running.Lock()
	delete(running.procs, s)
	running.Unlock()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// stopAll stops every server still running.
func stopAll() {
	running.Lock()
	list := make([]*serverProc, 0, len(running.procs))
	for s := range running.procs {
		list = append(list, s)
	}
	running.Unlock()
	for _, s := range list {
		s.stop()
	}
}

// peakRSSMiB reads the server's VmHWM (peak resident set) from /proc.
func (s *serverProc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}
