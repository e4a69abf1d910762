package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"sfcp"
	"sfcp/internal/jobs"
	"sfcp/internal/server"
)

// answer is the oracle's result for one instance: a full solve with the
// sequential linear solver, whose normalized labels every sfcpd reply
// must match exactly.
type answer struct {
	sum     labelSum
	classes int
	err     error
}

func solveOracle(ins sfcp.Instance) answer {
	res, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
	if err != nil {
		return answer{err: err}
	}
	return answer{sum: sumLabels(res.Labels), classes: res.NumClasses}
}

// verify checks every op after the timed window and turns wrong answers
// into failed ops. sfcpd is stopped by then, so the oracle has the cores.
func (b *bench) verify() {
	if len(b.plan.bases) > 0 {
		b.verifyDeltas()
		return
	}
	answers := b.oracleAnswers()
	for _, s := range b.attempts() {
		b.each(s, func(o *op, r *result) {
			if r.ok() {
				if err := checkSolve(o, r, answers); err != nil {
					r.err = err.Error()
				}
			}
		})
	}
}

// oracleAnswers solves every spec an op references, on as many
// goroutines as the generator has cores.
func (b *bench) oracleAnswers() []answer {
	need := make([]bool, len(b.plan.specs))
	for _, ops := range b.plan.clients {
		for _, o := range ops {
			for _, id := range o.members {
				need[id] = true
			}
		}
	}
	answers := make([]answer, len(b.plan.specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range next {
				answers[id] = solveOracle(b.plan.specs[id].build())
			}
		}()
	}
	for id, ok := range need {
		if ok {
			next <- id
		}
	}
	close(next)
	wg.Wait()
	return answers
}

func checkSolve(o *op, r *result, answers []answer) error {
	if len(r.sums) != len(o.members) {
		return fmt.Errorf("%s: %d label arrays in the reply, want %d", kindNames[o.kind], len(r.sums), len(o.members))
	}
	classes := make([]int, len(o.members))
	switch o.kind {
	case opBatchJSON:
		var br server.BatchResponse
		if err := json.Unmarshal(r.fields, &br); err != nil {
			return fmt.Errorf("batch: decoding reply: %w", err)
		}
		if br.Errors != 0 || len(br.Results) != len(o.members) {
			return fmt.Errorf("batch: %d errors over %d results, want 0 over %d", br.Errors, len(br.Results), len(o.members))
		}
		for i, m := range br.Results {
			classes[i] = m.NumClasses
		}
	case opJob:
		var snap jobs.Snapshot
		if err := json.Unmarshal(r.fields, &snap); err != nil {
			return fmt.Errorf("job: decoding snapshot: %w", err)
		}
		classes[0] = snap.NumClasses
	default:
		var sr server.SolveResponse
		if err := json.Unmarshal(r.fields, &sr); err != nil {
			return fmt.Errorf("solve: decoding reply: %w", err)
		}
		classes[0] = sr.NumClasses
	}
	for i, id := range o.members {
		want := answers[id]
		switch {
		case want.err != nil:
			return fmt.Errorf("oracle failed on member %d: %w", i, want.err)
		case r.sums[i] != want.sum:
			return fmt.Errorf("%s: member %d: wrong labels (n=%d, hash %016x, want n=%d, hash %016x)",
				kindNames[o.kind], i, r.sums[i].N, r.sums[i].H, want.sum.N, want.sum.H)
		case classes[i] != want.classes:
			return fmt.Errorf("%s: member %d: num_classes %d, want %d", kindNames[o.kind], i, classes[i], want.classes)
		}
	}
	return nil
}

// verifyDeltas replays each client's deltas on the benchmark's own copy
// of its base and checks every child digest against the copy's, and the
// labels of the label-reading deltas against the oracle. Each segment's
// sfcpd starts from the base again, and so does the copy. A chain is
// only meaningful up to its first failure: later ops of the segment are
// failed with it.
func (b *bench) verifyDeltas() {
	var wg sync.WaitGroup
	for c := range b.plan.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := b.plan.bases[c].build()
			baseDigest := base.Digest()
			for _, seg := range b.attempts() {
				ins := sfcp.Instance{F: slices.Clone(base.F), B: slices.Clone(base.B)}
				parent, broken := baseDigest, ""
				if seg.baseDigests[c] != baseDigest {
					broken = fmt.Sprintf("base registered as %s, want %s", seg.baseDigests[c], baseDigest)
				}
				for i := seg.from; i < seg.to; i++ {
					o, r := &b.plan.clients[c][i], &seg.results[c][i-seg.from]
					if broken != "" {
						if r.ok() {
							r.err = "after a failed delta in the same chain: " + broken
						}
						continue
					}
					if !r.ok() {
						broken = r.err
						continue
					}
					applyEdits(ins, o.edits)
					if err := checkDelta(o, r, ins, parent); err != nil {
						r.err = err.Error()
						broken = r.err
						continue
					}
					parent = r.digest
				}
			}
		}()
	}
	wg.Wait()
}

func checkDelta(o *op, r *result, ins sfcp.Instance, parent string) error {
	var dr server.DeltaResponse
	if err := json.Unmarshal(r.fields, &dr); err != nil {
		return fmt.Errorf("delta: decoding reply: %w", err)
	}
	if want := ins.Digest(); dr.Digest != want || dr.ParentDigest != parent {
		return fmt.Errorf("delta: child %s of parent %s, want child %s of parent %s", dr.Digest, dr.ParentDigest, want, parent)
	}
	if !o.labels {
		if len(r.sums) != 0 {
			return fmt.Errorf("delta: labels in a ?labels=false reply")
		}
		return nil
	}
	want := solveOracle(ins)
	switch {
	case want.err != nil:
		return fmt.Errorf("oracle failed: %w", want.err)
	case len(r.sums) != 1 || r.sums[0] != want.sum:
		return fmt.Errorf("delta: wrong labels for child %s", dr.Digest)
	case dr.NumClasses != want.classes:
		return fmt.Errorf("delta: num_classes %d, want %d", dr.NumClasses, want.classes)
	}
	return nil
}
