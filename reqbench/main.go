// Command reqbench is sfcp's request-level benchmark. It builds nothing
// itself (run.sh builds sfcpd and this command), starts the sfcpd binary
// as a child process on loopback at its zero-config defaults, and drives
// it from one generator process with up to two closed-loop request
// goroutines, each on its own keep-alive connection.
//
//	reqbench -sfcpd path -out dir --workload small_json --seed 1 --seconds 5 --trace 0
//
// Each run is a fixed op sequence generated from the seed before timing
// (its length is --seconds times the workload's nominal rate, so a faster
// sfcpd finishes the same work sooner) and verified after timing against
// the linear solver. The sequence runs in three segments, each against a
// freshly started sfcpd, and every timed-window metric is the median of
// its three segment values: on a shared host whose hypervisor takes the
// CPUs away for seconds at a time, the median keeps one stolen segment
// from moving the result. setup_s is the median of nine start-ups made
// back to back before the segments. The last line of standard output is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1. A
// traced run adds client spans and, once the HTTP phase is over, replays
// the ops' inputs through each layer's public functions. Each run also
// writes a record (host, flags, generator CPU, steal, op property shares)
// under <out>/runs and, when traced, its spans under <out>/traces.
//
// Seeds 1-1000 are for tuning and regular runs; holdoutSeed is kept out
// of them so a claimed gain can be re-checked on a seed nobody tuned on.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

const holdoutSeed = 1_000_003

// workloadDef is one traffic mix. rate is the generator's nominal ops/s
// on the reference host (2-core Xeon); it only sizes the fixed sequence.
type workloadDef struct {
	name    string
	rate    float64
	gen     func(seed uint64, clients, perSeg int) *plan
	durable bool // sfcpd gets -data-dir <fresh dir>
}

var workloads = []workloadDef{
	{name: "small_json", rate: 700, gen: genSmallJSON},
	{name: "large_binary", rate: 18, gen: genLargeBinary},
	{name: "delta_stream", rate: 46, gen: genDeltaStream},
	{name: "jobs_durable", rate: 36, gen: genJobsDurable, durable: true},
}

const (
	segments  = 3   // fresh sfcpd runs per run; metrics are medians over them
	setupRuns = 9   // back-to-back start-ups before the segments; setup_s is their median
	minSegOps = 100 // p90 of a segment needs 10 samples beyond it

	// A segment during which the hypervisor stole more than stealLimit of
	// the host's CPU time is run again, against a fresh sfcpd, and the
	// less-stolen attempt is kept; at most maxRetries times per run, and
	// none that would start past retryWindow into the run, which keeps a
	// run well inside its three minutes. Every attempt is verified, and
	// counted in attempted and failed.
	stealLimit  = 0.08
	maxRetries  = 4
	retryWindow = 75 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reqbench:", err)
		if errors.Is(err, errWrongAnswers) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 5, "nominal length of the timed window")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin     = flag.String("sfcpd", "", "sfcpd binary")
		outDir  = flag.String("out", ".bench_build", "directory for temp dirs, run records and spans")
	)
	flag.Parse()
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case *bin == "":
		return fmt.Errorf("-sfcpd is required")
	case *seconds < 1:
		return fmt.Errorf("--seconds must be at least 1")
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	clients := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(clients)

	// Ops per client per segment, a multiple of 8 so the 1-in-8 and
	// 4-family rotations fill whole blocks.
	perSeg := int(math.Ceil(float64(*seconds) * w.rate / float64(clients*segments)))
	perSeg = max(perSeg, (minSegOps+clients-1)/clients)
	perSeg = (perSeg + 7) / 8 * 8

	b := &bench{w: w, seed: *seed, bin: *bin, out: *outDir, clients: clients, perSeg: perSeg, trace: *traced == 1}
	// Stop sfcpd on SIGINT/SIGTERM before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		b.stopDaemon()
		os.Exit(130)
	}()
	defer b.stopDaemon()

	genStart := time.Now()
	b.plan = w.gen(*seed, clients, perSeg)
	b.genTime = time.Since(genStart)
	out, err := b.run()
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errWrongAnswers
	}
	return nil
}

var errWrongAnswers = errors.New("some ops failed or returned wrong answers")

// bench is one run's state.
type bench struct {
	w       *workloadDef
	seed    uint64
	bin     string
	out     string
	clients int
	perSeg  int // ops per client per segment
	trace   bool

	plan    *plan
	genTime time.Duration
	hc      *http.Client

	mu      sync.Mutex
	d       *daemon
	dataDir string
	flags   []string

	setups      []float64  // seconds, one per dedicated start-up
	segSetups   []float64  // seconds, one per segment's start-up (recorded, not in setup_s)
	registerMS  []float64  // delta_stream: server solve_ms of each base registration
	baseDigests []string   // delta_stream: the digests the latest start-up registered
	segs        []*segment // the kept attempt of each segment
	discarded   []*segment // attempts replaced by a less-stolen one
	tracer      *tracer
}

// segment is one timed attempt at a stretch of the op sequence against
// its own sfcpd.
type segment struct {
	from, to    int        // op index range of every client
	results     [][]result // per client, ops [from, to)
	baseDigests []string   // delta_stream: the versions the deltas start from
	window      time.Duration
	cpu         time.Duration // generator CPU during the window
	steal       time.Duration // hypervisor steal time during the window
	before      scrape
	after       scrape
	peakMB      float64 // sfcpd's VmHWM at the end of the segment
}

// stealShare is the share of the host's CPU time the hypervisor gave to
// other guests during the window.
func (s *segment) stealShare() float64 {
	return ratio(s.steal.Seconds(), s.window.Seconds()*float64(runtime.NumCPU()))
}

// each calls fn on every op of the segment and its result.
func (b *bench) each(s *segment, fn func(o *op, r *result)) {
	for c, rs := range s.results {
		for j := range rs {
			fn(&b.plan.clients[c][s.from+j], &rs[j])
		}
	}
}

// attempts returns every timed attempt of the run, kept or not.
func (b *bench) attempts() []*segment { return append(slices.Clone(b.segs), b.discarded...) }

func (b *bench) stopDaemon() {
	b.mu.Lock()
	d := b.d
	b.d = nil
	b.mu.Unlock()
	d.stop()
	if b.dataDir != "" {
		os.RemoveAll(b.dataDir)
	}
}

func (b *bench) run() (*output, error) {
	b.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: b.clients,
		MaxConnsPerHost:     b.clients,
		DisableCompression:  true,
	}}
	if err := os.MkdirAll(filepath.Join(b.out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	for range setupRuns {
		d, err := b.setup()
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, d.Seconds())
		b.stopDaemon()
	}
	start, retries := time.Now(), 0
	for s := range segments {
		seg, err := b.runSegment(s*b.perSeg, (s+1)*b.perSeg)
		if err != nil {
			return nil, err
		}
		for seg.stealShare() > stealLimit && retries < maxRetries && time.Since(start) < retryWindow {
			retries++
			again, err := b.runSegment(seg.from, seg.to)
			if err != nil {
				return nil, err
			}
			if again.stealShare() < seg.stealShare() {
				seg, again = again, seg
			}
			b.discarded = append(b.discarded, again)
		}
		b.segs = append(b.segs, seg)
	}

	verifyStart := time.Now()
	b.verify()
	verifyTime := time.Since(verifyStart)

	attempted, failed := 0, 0
	for _, s := range b.attempts() {
		b.each(s, func(_ *op, r *result) {
			attempted++
			if !r.ok() {
				failed++
				if failed <= 5 {
					fmt.Fprintln(os.Stderr, "reqbench: failed op:", r.err)
				}
			}
		})
	}
	out := &output{Correct: failed == 0, Attempted: attempted, Failed: failed}
	e2e := b.endToEnd()
	rec := b.record(e2e, attempted, failed)
	rec["verify_s"] = verifyTime.Seconds()
	if b.trace {
		layers, spansPath, err := b.perLayer()
		if err != nil {
			return nil, err
		}
		rec["per_layer"] = layers
		rec["spans_file"] = spansPath
		rec["tracing_overhead"] = tracingOverhead(b.out, b.w.name, b.seed, layers["trace.ops_per_s"].Value)
		out.Metrics = layers
	} else {
		out.Metrics = e2e
	}
	if err := writeRecord(b.out, b.w.name, b.seed, b.trace, rec); err != nil {
		return nil, err
	}
	return out, nil
}

// runSegment starts a fresh sfcpd, warms it, runs ops [from, to) of
// every client against it, and stops it.
func (b *bench) runSegment(from, to int) (*segment, error) {
	d, err := b.setup()
	if err != nil {
		return nil, err
	}
	b.segSetups = append(b.segSetups, d.Seconds())
	if err := b.warm(); err != nil {
		return nil, err
	}
	seg, err := b.timedWindow(from, to)
	b.stopDaemon()
	return seg, err
}

// setup starts sfcpd once (in a fresh data dir for durable workloads)
// and, for delta_stream, registers each client's base version. It
// returns the set-up time: exec to the first 200 from /healthz, plus the
// registrations.
func (b *bench) setup() (time.Duration, error) {
	var extra []string
	if b.w.durable {
		dir, err := os.MkdirTemp(filepath.Join(b.out, "tmp"), "sfcpd-data-")
		if err != nil {
			return 0, err
		}
		b.dataDir = dir
		extra = []string{"-data-dir", dir}
	}
	d, setup, err := startDaemon(b.bin, extra, b.hc)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.d = d
	b.mu.Unlock()
	b.flags = d.args
	if len(b.plan.bases) > 0 {
		start := time.Now()
		if err := b.registerBases(); err != nil {
			return 0, err
		}
		setup += time.Since(start)
	}
	return setup, nil
}
