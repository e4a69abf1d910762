package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sfcp"
	"sfcp/internal/jobs"
	"sfcp/internal/server"
	"sfcp/internal/store"
)

// cost accumulates replayed time against a unit of work (elements or ops).
type cost struct {
	d     time.Duration
	units float64
}

func (c *cost) add(d time.Duration, units int) { c.d += d; c.units += float64(units) }

// per returns the time per unit in the given duration unit.
func (c cost) per(unit time.Duration) float64 { return ratio(float64(c.d)/float64(unit), c.units) }

// replayBudget bounds the elements of full-instance replay per run. Ops
// are sampled in whole family-rotation groups so every family stays in.
const replayBudget = 8 << 20

// snapshotEvery samples delta_stream's O(n) version snapshot replay.
const snapshotEvery = 4

// replayer times each layer's public functions on the run's own inputs,
// after the HTTP phase, and records a span per call.
type replayer struct {
	tr     *tracer
	blobs  *store.FileBlobStore
	jour   *store.FileJobStore
	solver *sfcp.Solver

	jsonDecode, jsonEncode, decode, digest, validate  cost
	labelsEncode, labelsDecode, deltaDecode, snapshot cost
	plan, batchSolve, blobPut, blobGet, journalPut    cost
	solve                                             [numFamilies]cost
	allocBytes, allocElems                            float64
}

// timed runs fn, records a span for it and returns its duration.
func (rp *replayer) timed(opID int, parent int64, stage, fn string, elems int, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	rp.tr.add(span{Parent: parent, OpID: opID, Name: stage, Fn: fn, Start: rp.tr.since(t0), End: rp.tr.since(t1), Elems: elems})
	return t1.Sub(t0)
}

// perLayer derives the per-layer metrics from replies, /metrics deltas
// and client spans, replays the inputs, and writes the spans.
func (b *bench) perLayer() (map[string]metric, string, error) {
	dir, err := os.MkdirTemp(filepath.Join(b.out, "tmp"), "replay-store-")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(dir)
	jour, err := store.OpenFileJobStore(filepath.Join(dir, "jobs.journal"), func(string, ...any) {})
	if err != nil {
		return nil, "", err
	}
	defer jour.Close()
	blobs, err := store.OpenFileBlobStore(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, "", err
	}
	rp := &replayer{tr: b.tracer, blobs: blobs, jour: jour,
		solver: sfcp.NewSolver(sfcp.Options{Algorithm: sfcp.AlgorithmLinear})}
	if err := b.replay(rp); err != nil {
		return nil, "", err
	}

	m := b.httpLayers()
	add := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	add("server.json_decode_ns_per_elem", "ns/elem", rp.jsonDecode.per(time.Nanosecond))
	add("server.json_encode_ns_per_elem", "ns/elem", rp.jsonEncode.per(time.Nanosecond))
	add("sfcp.digest_ns_per_elem", "ns/elem", rp.digest.per(time.Nanosecond))
	add("sfcp.validate_ns_per_elem", "ns/elem", rp.validate.per(time.Nanosecond))
	add("sfcp.version_snapshot_us_per_op", "us/op", rp.snapshot.per(time.Microsecond))
	add("codec.decode_ns_per_elem", "ns/elem", rp.decode.per(time.Nanosecond))
	add("codec.labels_encode_ns_per_elem", "ns/elem", rp.labelsEncode.per(time.Nanosecond))
	add("codec.labels_decode_ns_per_elem", "ns/elem", rp.labelsDecode.per(time.Nanosecond))
	add("codec.delta_decode_us_per_op", "us/op", rp.deltaDecode.per(time.Microsecond))
	add("engine.plan_us_per_op", "us/op", rp.plan.per(time.Microsecond))
	for f := range numFamilies {
		add("coarsest.solve_ns_per_elem."+familyNames[f], "ns/elem", rp.solve[f].per(time.Nanosecond))
	}
	add("coarsest.batch_solve_ns_per_elem", "ns/elem", rp.batchSolve.per(time.Nanosecond))
	add("coarsest.alloc_bytes_per_elem", "B/elem", ratio(rp.allocBytes, rp.allocElems))
	add("store.blob_put_us_per_op", "us/op", rp.blobPut.per(time.Microsecond))
	add("store.blob_get_us_per_op", "us/op", rp.blobGet.per(time.Microsecond))
	add("store.journal_put_us_per_op", "us/op", rp.journalPut.per(time.Microsecond))

	if err := os.MkdirAll(filepath.Join(b.out, "traces"), 0o755); err != nil {
		return nil, "", err
	}
	path := filepath.Join(b.out, "traces", fmt.Sprintf("%s-s%d-%d.jsonl", b.w.name, b.seed, time.Now().UnixNano()))
	if err := b.tracer.write(path); err != nil {
		return nil, "", err
	}
	return m, path, nil
}

// httpLayers computes the per-layer metrics that come from the HTTP
// phase: reply fields (R), /metrics deltas (M) and client spans (S).
func (b *bench) httpLayers() map[string]metric {
	d := b.metricDelta()
	var overhead, poolWait, resolveUS, dirty, queueWait, run, fetch, polls []float64
	elems, ops := 0.0, 0.0
	for _, s := range b.segs {
		b.each(s, func(o *op, r *result) {
			elems += float64(o.elems)
			ops++
			if !r.ok() {
				return
			}
			span := ms(r.end - r.start)
			switch o.kind {
			case opSolveJSON, opSolveBinary:
				var sr server.SolveResponse
				if json.Unmarshal(r.fields, &sr) != nil {
					return
				}
				overhead = append(overhead, (span-sr.ElapsedMS)*1e3)
				if !sr.Cached && sr.Coalesced == 0 {
					poolWait = append(poolWait, sr.ElapsedMS-sr.SolveMS)
				}
			case opDelta:
				var dr server.DeltaResponse
				if json.Unmarshal(r.fields, &dr) != nil || dr.Resolve == nil {
					return
				}
				overhead = append(overhead, (span-dr.ResolveMS)*1e3)
				resolveUS = append(resolveUS, float64(dr.Resolve.Duration)/1e3)
				dirty = append(dirty, dr.Resolve.DirtyFrac)
			case opJob:
				var snap jobs.Snapshot
				if json.Unmarshal(r.fields, &snap) != nil || snap.StartedAt == nil || snap.FinishedAt == nil {
					return
				}
				life := ms(snap.FinishedAt.Sub(snap.SubmittedAt))
				overhead = append(overhead, (span-life)*1e3)
				queueWait = append(queueWait, ms(snap.StartedAt.Sub(snap.SubmittedAt)))
				run = append(run, ms(snap.FinishedAt.Sub(*snap.StartedAt)))
				fetch = append(fetch, ms(r.fetch))
				polls = append(polls, float64(r.polls))
			}
		})
	}
	flushes := d.sum(mFlushes)
	var window, cpu time.Duration
	for _, s := range b.segs {
		window, cpu = window+s.window, cpu+s.cpu
	}
	return map[string]metric{
		"server.overhead_us_per_op":       {mean(overhead), "us/op"},
		"server.cache_hit_frac":           {ratio(d.get(mCacheHits), d.get(mCacheHits)+d.get(mCacheMisses)), "frac"},
		"server.cache_mb":                 {d.get(mCacheBytes) / (1 << 20), "MiB"},
		"server.pool_wait_ms":             {mean(poolWait), "ms"},
		"server.ingest_bytes_per_elem":    {ratio(d.sum(mIngestBytes), elems), "B/elem"},
		"server.errors":                   {d.sum(mErrors), "count"},
		"batcher.members_per_flush":       {ratio(d.get(mCoalesced), flushes), "count"},
		"batcher.queue_us_per_member":     {ratio(d.get(mQueueSecondsSum)*1e6, d.get(mQueueSecondsCnt)), "us"},
		"batcher.deadline_flush_frac":     {ratio(d.get(mFlushes, "reason", "deadline"), flushes), "frac"},
		"engine.linear_frac":              {ratio(d.get(mPlanAlgorithm, "algorithm", "linear"), d.sum(mPlanAlgorithm)), "frac"},
		"incr.resolve_us_per_op":          {mean(resolveUS), "us/op"},
		"incr.dirty_frac":                 {mean(dirty), "frac"},
		"incr.full_fallback_frac":         {ratio(d.get(mResolve, "mode", "full_fallback"), d.sum(mResolve)), "frac"},
		"incr.register_ms":                {mean(b.registerMS), "ms"},
		"jobs.queue_wait_ms":              {mean(queueWait), "ms"},
		"jobs.run_ms":                     {mean(run), "ms"},
		"jobs.fetch_ms":                   {mean(fetch), "ms"},
		"jobs.polls_per_op":               {mean(polls), "count"},
		"store.blob_write_bytes_per_elem": {ratio(d.get(mBlobWriteBytes), elems), "B/elem"},
		"store.blob_read_bytes_per_elem":  {ratio(d.get(mBlobReadBytes), elems), "B/elem"},
		"store.spilled_per_op":            {ratio(d.get(mSpilled), ops), "count"},
		"trace.ops_per_s":                 {b.endToEnd()["ops_per_s"].Value, "1/s"},
		"client.cpu_share":                {ratio(cpu.Seconds(), window.Seconds()*float64(runtime.NumCPU())), "frac"},
	}
}

// replay runs every sampled op's input through the layers' public
// functions, on one goroutine, with sfcpd already stopped.
func (b *bench) replay(rp *replayer) error {
	total := 0
	for _, ops := range b.plan.clients {
		for _, o := range ops {
			if o.kind != opDelta {
				total += o.elems
			}
		}
	}
	stride := max(1, (total+replayBudget-1)/replayBudget)
	for c, ops := range b.plan.clients {
		if len(b.plan.bases) > 0 {
			if err := b.replayDeltas(rp, c); err != nil {
				return err
			}
			continue
		}
		for i := range ops {
			if (i/int(numFamilies))%stride != 0 {
				continue
			}
			if err := b.replayOp(rp, &ops[i], c*opIDStride+i); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayOp replays one instance-carrying op: its members through decode,
// digest, validate, plan, solve and encode; a batch additionally as one
// planned batch; and its request body through the blob tier and journal.
func (b *bench) replayOp(rp *replayer, o *op, opID int) error {
	root := rp.tr.id()
	t0 := time.Now()
	members := make([]sfcp.Instance, len(o.members))
	for j, id := range o.members {
		s := b.plan.specs[id]
		ins := s.build()
		members[j] = ins
		if err := rp.instance(opID, root, s.fam, ins); err != nil {
			return err
		}
	}
	if o.kind == opBatchJSON {
		var plan sfcp.Plan
		var err error
		var errs []error
		d := rp.timed(opID, root, "plan", "PlanBatch", o.elems, func() {
			plan, err = sfcp.PlanBatch(members, sfcp.Options{Algorithm: sfcp.AlgorithmAuto})
		})
		if err != nil {
			return err
		}
		d += rp.timed(opID, root, "solve", "Solver.SolveBatchPlanned", o.elems, func() {
			_, errs = rp.solver.SolveBatchPlanned(context.Background(), members, plan)
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		rp.batchSolve.add(d, o.elems)
	}
	if err := rp.store(opID, root, o.body); err != nil {
		return err
	}
	rp.tr.add(span{ID: root, OpID: opID, Name: "replay", Fn: kindNames[o.kind], Start: rp.tr.since(t0), End: rp.tr.since(time.Now()), Elems: o.elems})
	return nil
}

// instance replays one instance through every per-element layer.
func (rp *replayer) instance(opID int, parent int64, fam family, ins sfcp.Instance) error {
	n := len(ins.F)
	js := appendInstanceJSON(nil, ins)
	bin := encodeBinary(ins)
	var err error
	var req server.SolveRequest
	rp.jsonDecode.add(rp.timed(opID, parent, "decode", "json.Unmarshal(server.SolveRequest)", n, func() {
		err = json.Unmarshal(js, &req)
	}), n)
	if err != nil {
		return err
	}
	rp.decode.add(rp.timed(opID, parent, "decode", "DecodeBinary", n, func() {
		_, err = sfcp.DecodeBinary(bytes.NewReader(bin))
	}), n)
	if err != nil {
		return err
	}
	rp.digest.add(rp.timed(opID, parent, "digest", "Instance.Digest", n, func() { _ = ins.Digest() }), n)
	rp.validate.add(rp.timed(opID, parent, "validate", "Instance.Validate", n, func() { err = ins.Validate() }), n)
	if err != nil {
		return err
	}
	var plan sfcp.Plan
	rp.plan.add(rp.timed(opID, parent, "plan", "PlanWith", n, func() {
		plan, err = sfcp.PlanWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmAuto})
	}), 1)
	if err != nil {
		return err
	}
	var res sfcp.Result
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rp.solve[fam].add(rp.timed(opID, parent, "solve", "SolvePlanned", n, func() {
		res, err = sfcp.SolvePlanned(context.Background(), ins, plan, sfcp.Options{})
	}), n)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	rp.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
	rp.allocElems += float64(n)
	rp.jsonEncode.add(rp.timed(opID, parent, "encode", "json.Marshal(server.SolveResponse)", n, func() {
		_, err = json.Marshal(server.SolveResponse{Algorithm: "auto", ResolvedAlgorithm: plan.Algorithm.String(), Labels: res.Labels, NumClasses: res.NumClasses})
	}), n)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	rp.labelsEncode.add(rp.timed(opID, parent, "encode", "EncodeLabelsBinary", n, func() {
		err = sfcp.EncodeLabelsBinary(&buf, res.Labels)
	}), n)
	if err != nil {
		return err
	}
	rp.labelsDecode.add(rp.timed(opID, parent, "decode", "DecodeLabelsBinary", n, func() {
		_, err = sfcp.DecodeLabelsBinary(&buf)
	}), n)
	return err
}

// store writes an op's request body to the blob tier, reads it back, and
// journals one job record, as sfcpd's durable tier would.
func (rp *replayer) store(opID int, parent int64, body []byte) error {
	sum := sha256.Sum256(body)
	key := hex.EncodeToString(sum[:])
	var err error
	rp.blobPut.add(rp.timed(opID, parent, "cache/tier", "FileBlobStore.Put", 0, func() {
		_, err = rp.blobs.Put(key, bytes.NewReader(body))
	}), 1)
	if err != nil {
		return err
	}
	rp.blobGet.add(rp.timed(opID, parent, "cache/tier", "FileBlobStore.Get", 0, func() {
		var rc io.ReadCloser
		if rc, err = rp.blobs.Get(key); err == nil {
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
		}
	}), 1)
	if err != nil {
		return err
	}
	now := time.Now()
	rec := store.JobRecord{ID: fmt.Sprintf("op%d", opID), Seq: uint64(opID) + 1, Algorithm: "auto", State: "done",
		SubmittedAt: now, StartedAt: now, FinishedAt: now, InstanceDigest: key}
	rp.journalPut.add(rp.timed(opID, parent, "cache/tier", "FileJobStore.Put", 0, func() { err = rp.jour.Put(rec) }), 1)
	return err
}

// replayDeltas replays one delta client: its base through the
// per-element layers, then each delta through the binary delta decoder
// and a library session (sfcp.Resolve), with the child-version snapshot
// and digest on every snapshotEvery-th delta.
func (b *bench) replayDeltas(rp *replayer, c int) error {
	base := b.plan.bases[c]
	ins := base.build()
	baseOp := c*opIDStride + opIDStride - 1
	if err := rp.instance(baseOp, 0, base.fam, ins); err != nil {
		return err
	}
	var inc *sfcp.Incremental
	var err error
	rp.timed(baseOp, 0, "solve", "NewIncremental", base.n, func() { inc, err = sfcp.NewIncremental(ins) })
	if err != nil {
		return err
	}
	for i := range b.plan.clients[c] {
		o, opID := &b.plan.clients[c][i], c*opIDStride+i
		root := rp.tr.id()
		t0 := time.Now()
		var delta sfcp.Delta
		rp.deltaDecode.add(rp.timed(opID, root, "decode", "DecodeDeltaBinary", o.elems, func() {
			delta, err = sfcp.DecodeDeltaBinary(bytes.NewReader(o.body))
		}), 1)
		if err != nil {
			return err
		}
		var res sfcp.Result
		rp.timed(opID, root, "solve", "Resolve", o.elems, func() { res, err = sfcp.Resolve(inc, delta) })
		if err != nil {
			return err
		}
		if i%snapshotEvery == 0 {
			var child sfcp.Instance
			d := rp.timed(opID, root, "digest", "Incremental.Instance", base.n, func() { child = inc.Instance() })
			d += rp.timed(opID, root, "digest", "Instance.Digest", base.n, func() { _ = child.Digest() })
			rp.snapshot.add(d, 1)
		}
		if o.labels {
			rp.jsonEncode.add(rp.timed(opID, root, "encode", "json.Marshal(server.DeltaResponse)", base.n, func() {
				_, err = json.Marshal(server.DeltaResponse{Labels: res.Labels, NumClasses: res.NumClasses, Resolve: res.Resolve})
			}), base.n)
			if err != nil {
				return err
			}
		}
		if err := rp.store(opID, root, o.body); err != nil {
			return err
		}
		rp.tr.add(span{ID: root, OpID: opID, Name: "replay", Fn: kindNames[o.kind], Start: rp.tr.since(t0), End: rp.tr.since(time.Now()), Elems: o.elems})
	}
	return nil
}
