// Command sfcpbench regenerates the experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	sfcpbench -exp E1          # one experiment
//	sfcpbench -all             # everything
//	sfcpbench -all -quick      # smaller sweeps
//	sfcpbench -list            # show available experiments
//	sfcpbench -exp A6 -out BENCH_A6.json        # machine-readable calibration data
//	sfcpbench -calibrate -out profile.json      # fit this host's planner profile
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sfcp/internal/bench"
	"sfcp/internal/calib"
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
	outPath := flag.String("out", "", "write results to this file instead of stdout (e.g. BENCH_A6.json for -exp A6)")
	calibrate := flag.Bool("calibrate", false, "fit the delta planner's calibration profile on this host and write it as JSON (-out profile.json)")
	calibBudget := flag.Duration("calibrate-budget", 3*time.Second, "wall-clock budget for -calibrate (-quick shrinks it to 750ms)")
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
	case *calibrate:
		budget := *calibBudget
		if *quick {
			budget = 750 * time.Millisecond
		}
		rep, err := calib.Calibrate(context.Background(), calib.Options{
			Budget: budget, Seed: *seed, Log: os.Stderr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sfcpbench:", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(rep.Profile, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sfcpbench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(out, string(data))
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
		bench.RunOne(e, cfg)
	default:
		flag.Usage()
		os.Exit(2)
	}
	finish()
}
