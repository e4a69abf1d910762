// Command sfcp solves single function coarsest partition instances.
//
// Input (stdin or -in file) is auto-detected: a stream beginning with the
// "SFCP" magic is decoded as the binary wire format of internal/codec
// (as emitted by sfcpgen -format bin), anything else parses as the
// whitespace text format:
//
//	n
//	f(0) f(1) ... f(n-1)      (0-based)
//	b(0) b(1) ... b(n-1)
//
// Output: one line with the n dense Q-labels, plus a summary on stderr.
//
// With -submit the instance is not solved locally: it is shipped (always
// as the binary wire format) to an sfcpd server's async job API. Alone,
// -submit prints the job id and returns immediately; with -wait the job is
// polled to a terminal state and its labels are fetched and printed
// exactly like a local solve (failed and cancelled jobs exit non-zero).
//
// Usage:
//
//	sfcp [-algo auto|moore|hopcroft|linear|parallel-pram|doubling-hash|doubling-sort]
//	     [-in file] [-stats] [-explain] [-workers n] [-seed s]
//	     [-submit -server http://host:8080 [-wait] [-poll 250ms] [-priority p]]
//
// The default -algo auto defers to the planner, which resolves it to the
// sequential linear-time solver; the summary's ran= field reports the
// resolved choice and -explain prints the full plan (workers, reason,
// stage timings).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"sfcp"
)

func main() {
	algoName := flag.String("algo", "auto", "solver algorithm")
	inPath := flag.String("in", "", "input file (default stdin)")
	stats := flag.Bool("stats", false, "print PRAM complexity counters to stderr")
	explain := flag.Bool("explain", false, "print the resolved execution plan (algorithm, workers, reason, stage timings) to stderr")
	workers := flag.Int("workers", 0, "host goroutines for the parallel solvers (0 = NumCPU)")
	seed := flag.Uint64("seed", 0, "simulator seed for the PRAM algorithms")
	server := flag.String("server", "", "sfcpd base URL for -submit (e.g. http://localhost:8080)")
	submit := flag.Bool("submit", false, "submit the instance as an async job to -server instead of solving locally")
	wait := flag.Bool("wait", false, "with -submit: poll the job and print its labels when done")
	poll := flag.Duration("poll", 250*time.Millisecond, "status polling interval for -wait")
	priority := flag.Int("priority", 0, "job priority for -submit (higher runs sooner)")
	flag.Parse()

	// Usage mistakes are reported before any input is read: a bad flag
	// combination must not block on stdin or decode a multi-GB file first.
	if *submit && *server == "" {
		fatal(errors.New("-submit requires -server"))
	}
	if *wait && !*submit {
		fatal(errors.New("-wait requires -submit"))
	}
	algo, err := parseAlgo(*algoName)
	if err != nil {
		fatal(err)
	}

	var in io.Reader = os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	ins, err := readAny(in)
	if err != nil {
		fatal(err)
	}

	if *submit {
		var seedOverride *uint64
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedOverride = seed
			}
		})
		c := &jobClient{
			base:     strings.TrimRight(*server, "/"),
			http:     http.DefaultClient,
			poll:     *poll,
			algo:     algo.String(),
			seed:     seedOverride,
			priority: *priority,
		}
		if err := runClient(c, ins, *wait, os.Stdout, os.Stderr); err != nil {
			fatal(err)
		}
		return
	}

	start := time.Now()
	res, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: algo, Workers: *workers, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	writeLabels(os.Stdout, res.Labels)

	ran := algo.String()
	if res.Plan != nil {
		ran = res.Plan.Algorithm.String()
	}
	fmt.Fprintf(os.Stderr, "n=%d classes=%d algo=%s ran=%s wall=%v\n",
		len(res.Labels), res.NumClasses, algo, ran, elapsed.Round(time.Microsecond))
	if *explain && res.Plan != nil {
		explainPlan(os.Stderr, algo, res)
	}
	if *stats {
		if res.Stats != nil {
			fmt.Fprintf(os.Stderr, "rounds=%d work=%d maxprocs=%d reads=%d writes=%d cells=%d\n",
				res.Stats.Rounds, res.Stats.Work, res.Stats.MaxProcs,
				res.Stats.Reads, res.Stats.Writes, res.Stats.Cells)
		} else {
			fmt.Fprintf(os.Stderr, "sfcp: -stats: algorithm %s reports no simulator stats (use parallel-pram, doubling-hash or doubling-sort)\n", algo)
		}
	}
}

// explainPlan prints the resolved execution plan: what the planner chose,
// why, and where the time went.
func explainPlan(out io.Writer, requested sfcp.Algorithm, res sfcp.Result) {
	p := res.Plan
	fmt.Fprintf(out, "plan: requested=%s resolved=%s workers=%d\n", requested, p.Algorithm, p.Workers)
	fmt.Fprintf(out, "reason: %s\n", p.Reason)
	fmt.Fprintf(out, "timings: plan=%v solve=%v\n",
		res.Timings.Plan.Round(time.Microsecond), res.Timings.Solve.Round(time.Microsecond))
}

// writeLabels prints the dense Q-labels as one space-separated line.
func writeLabels(out io.Writer, labels []int) {
	w := bufio.NewWriter(out)
	for i, l := range labels {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprint(w, l)
	}
	fmt.Fprintln(w)
	w.Flush()
}

func parseAlgo(name string) (sfcp.Algorithm, error) {
	a, err := sfcp.ParseAlgorithm(name)
	if err != nil {
		// fatal() prefixes "sfcp:" already; drop the library's.
		return 0, errors.New(strings.TrimPrefix(err.Error(), "sfcp: "))
	}
	return a, nil
}

// readAny sniffs the input format: the binary wire format is recognized by
// its 4-byte magic and streamed through the chunked decoder, anything else
// is parsed as the whitespace text format.
func readAny(r io.Reader) (sfcp.Instance, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	prefix, err := br.Peek(4)
	if err == nil && sfcp.DetectBinary(prefix) {
		return sfcp.DecodeBinary(br)
	}
	return readInstance(br)
}

func readInstance(r io.Reader) (sfcp.Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	sc.Split(bufio.ScanWords)
	next := func() (int, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return 0, err
			}
			return 0, io.ErrUnexpectedEOF
		}
		return strconv.Atoi(sc.Text())
	}
	n, err := next()
	if err != nil {
		return sfcp.Instance{}, fmt.Errorf("reading n: %w", err)
	}
	// Guard the allocation: a malformed header must error like any other
	// bad input, not panic makeslice or attempt an absurd allocation.
	// The bound fits a 32-bit int so the comparison compiles everywhere.
	const maxN = 1<<31 - 1
	if n < 0 || n > maxN {
		return sfcp.Instance{}, fmt.Errorf("n = %d out of range [0, %d]", n, maxN)
	}
	ins := sfcp.Instance{F: make([]int, n), B: make([]int, n)}
	for i := 0; i < n; i++ {
		if ins.F[i], err = next(); err != nil {
			return sfcp.Instance{}, fmt.Errorf("reading f(%d): %w", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if ins.B[i], err = next(); err != nil {
			return sfcp.Instance{}, fmt.Errorf("reading b(%d): %w", i, err)
		}
	}
	return ins, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sfcp:", err)
	os.Exit(1)
}
