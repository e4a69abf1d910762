package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sfcp"
	"sfcp/internal/server"
)

// registerBases posts each delta client's base version (binary, without
// labels in the reply), one client goroutine per base, and records the
// digests the deltas start from.
func (b *bench) registerBases() error {
	n := len(b.plan.bases)
	digests, solveMS, errs := make([]string, n), make([]float64, n), make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{hc: b.hc, base: b.d.base}
			fields, _, e := c.call(0, 0, "POST", "/instances?labels=false", sfcp.BinaryMediaType, "", b.plan.baseBin[i])
			if e != "" {
				errs[i] = fmt.Errorf("registering base %d: %s", i, e)
				return
			}
			var ir server.InstanceResponse
			if err := json.Unmarshal(fields, &ir); err != nil {
				errs[i] = fmt.Errorf("registering base %d: %w", i, err)
				return
			}
			digests[i], solveMS[i] = ir.Digest, ir.SolveMS
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	b.baseDigests = digests
	b.registerMS = append(b.registerMS, solveMS...)
	return nil
}

// warm solves every hot-set instance once, so the timed window starts
// with the hot set cached, as a long-running server would have it.
func (b *bench) warm() error {
	c := &client{hc: b.hc, base: b.d.base}
	for _, body := range b.plan.warm {
		if _, _, e := c.call(0, 0, "POST", "/solve", "application/json", "", body); e != "" {
			return fmt.Errorf("warming the hot set: %s", e)
		}
	}
	return nil
}

// watchdogAfter bounds a segment's window: past it sfcpd is killed, the
// remaining ops fail fast, and the run ends with an error well inside the
// three minutes a run may take, instead of overrunning them.
const watchdogAfter = 40 * time.Second

// timedWindow runs ops [from, to) of every client concurrently and
// records the segment: the /metrics scrapes around it, the generator's
// CPU and the host's steal time during it, and sfcpd's peak resident set.
func (b *bench) timedWindow(from, to int) (*segment, error) {
	seg := &segment{from: from, to: to, results: make([][]result, b.clients), baseDigests: b.baseDigests}
	var err error
	if seg.before, err = b.d.scrape(b.hc); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	// The generator holds every request body; a collection of that heap
	// during the window would take cores from sfcpd. What the window
	// allocates (reply fields and label sums) is small, so collect once
	// now and not again until the window ends.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu0, steal0 := cpuTime(), hostSteal()
	origin := time.Now()
	if b.trace && b.tracer == nil {
		b.tracer = newTracer(origin)
	}
	d := b.d
	dog := time.AfterFunc(watchdogAfter, func() { _ = d.cmd.Process.Kill() })
	var wg sync.WaitGroup
	for i := range b.clients {
		c := &client{id: i, hc: b.hc, base: d.base, tr: b.tracer, origin: origin}
		if len(b.baseDigests) > i {
			c.digest = b.baseDigests[i]
		}
		seg.results[i] = make([]result, to-from)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(b.plan.clients[i][from:to], seg.results[i], from)
		}()
	}
	wg.Wait()
	seg.window = time.Since(origin)
	seg.cpu = cpuTime() - cpu0
	seg.steal = hostSteal() - steal0
	dog.Stop()
	if seg.after, err = d.scrape(b.hc); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if seg.peakMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	return seg, nil
}

// cpuTime is the benchmark process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the time the hypervisor ran other guests while this host's
// CPUs wanted to run (the steal column of /proc/stat, in USER_HZ ticks of
// 10ms); the record keeps its growth over the window as a sign of noisy
// neighbours.
func hostSteal() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}
