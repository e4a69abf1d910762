package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// daemon is one sfcpd child process listening on loopback.
type daemon struct {
	cmd    *exec.Cmd
	args   []string
	base   string // http://127.0.0.1:port
	log    *tailBuffer
	exited chan struct{}
	err    error // set before exited closes
}

// startDaemon execs sfcpd with -addr on a free loopback port plus extra
// flags, and returns once /healthz answers 200, together with the time
// from exec to that answer.
func startDaemon(bin string, extra []string, hc *http.Client) (*daemon, time.Duration, error) {
	var lastErr error
	for range 3 { // a port picked free can be taken before sfcpd binds it
		d, setup, err := tryStart(bin, extra, hc)
		if err == nil {
			return d, setup, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func tryStart(bin string, extra []string, hc *http.Client) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		args:   append([]string{"-addr", addr}, extra...),
		base:   "http://" + addr,
		log:    &tailBuffer{max: 16 << 10},
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// The child dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting sfcpd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := start.Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("sfcpd exited before /healthz answered (%v): %s", d.err, d.log)
		default:
		}
		if ok := d.healthy(hc); ok {
			return d, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("sfcpd did not answer /healthz within 30s: %s", d.log)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (d *daemon) healthy(hc *http.Client) bool {
	resp, err := hc.Get(d.base + "/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM, waits for the process to end, and kills it if it
// has not ended after 20s. It returns only once the process is gone.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// scrape fetches and parses /metrics.
func (d *daemon) scrape(hc *http.Client) (scrape, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseScrape(string(raw))
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// tailBuffer keeps the last max bytes written to it, for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - t.max; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(t.buf.String())
}
