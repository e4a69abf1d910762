// Command sfcpbench regenerates the experiments of internal/bench.
//
// Usage:
//
//	sfcpbench -exp E1          # one experiment
//	sfcpbench -all             # everything
//	sfcpbench -all -quick      # smaller sweeps
//	sfcpbench -list            # show available experiments
//	sfcpbench -exp A8 -out BENCH_A8.json        # machine-readable delta re-solve data
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sfcp/internal/bench"
)

// errTrackWriter remembers the first write failure. The experiments write
// through fmt/tabwriter/json, which all discard errors — without this, a
// full disk would leave a truncated BENCH_*.json and still exit 0.
type errTrackWriter struct {
	w   io.Writer
	err error
}

func (e *errTrackWriter) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if err != nil && e.err == nil {
		e.err = err
	}
	return n, err
}

func main() {
	exp := flag.String("exp", "", "experiment id (E1..E10, A1..A8)")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "smaller sweeps")
	list := flag.Bool("list", false, "list experiments")
	seed := flag.Int64("seed", 1993, "workload seed")
	outPath := flag.String("out", "", "write results to this file instead of stdout (e.g. BENCH_A8.json for -exp A8)")
	flag.Parse()

	out := &errTrackWriter{w: os.Stdout}
	var sink *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sfcpbench:", err)
			os.Exit(1)
		}
		sink = f
		out.w = f
	}
	finish := func() {
		err := out.err
		if sink != nil {
			if cerr := sink.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sfcpbench: writing results:", err)
			os.Exit(1)
		}
	}
	cfg := bench.Config{Out: out, Quick: *quick, Seed: *seed}
	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
	case *all:
		bench.RunAll(cfg)
	case *exp != "":
		e, ok := bench.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "sfcpbench: unknown experiment %q; -list shows the catalogue\n", *exp)
			os.Exit(1)
		}
		e.Run(cfg)
	default:
		flag.Usage()
		os.Exit(2)
	}
	finish()
}
