package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sfcp"
	"sfcp/internal/jobs"
	"sfcp/internal/store"
	"sfcp/internal/workload"
)

// A7TieredStorage measures what the durable tier costs and buys: the
// blob store's spill (encode+write) and read-back (open+decode)
// throughput against the in-memory store on the same payloads, and the
// cold-start cost of journal replay plus manager recovery over a
// realistically mixed job population. Emits one JSON document (like
// A8) for BENCH_A7.json trajectory tracking.
func A7TieredStorage(cfg Config) {
	type blobRow struct {
		N           int     `json:"n"`
		WireBytes   int64   `json:"wire_bytes"`
		FilePutNS   int64   `json:"file_put_ns"`
		FileGetNS   int64   `json:"file_get_ns"`
		MemPutNS    int64   `json:"mem_put_ns"`
		MemGetNS    int64   `json:"mem_get_ns"`
		FilePutMBps float64 `json:"file_put_mb_s"`
		FileGetMBps float64 `json:"file_get_mb_s"`
	}
	type recoveryRow struct {
		Jobs         int   `json:"jobs"`
		Queued       int   `json:"queued"`
		Done         int   `json:"done"`
		JournalBytes int64 `json:"journal_bytes"`
		OpenNS       int64 `json:"journal_open_ns"`
		RecoverNS    int64 `json:"manager_recover_ns"`
		Requeued     int64 `json:"requeued"`
		Restored     int64 `json:"restored"`
	}
	doc := struct {
		Experiment string          `json:"experiment"`
		Title      string          `json:"title"`
		GOMAXPROCS int             `json:"gomaxprocs"`
		Host       HostFingerprint `json:"host"`
		Blob       []blobRow       `json:"blob_rows"`
		Recovery   []recoveryRow   `json:"recovery_rows"`
	}{
		Experiment: "A7",
		Title:      "tiered storage: blob spill/read throughput and cold-start recovery",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       Fingerprint(),
	}
	fail := func(err error) {
		fmt.Fprintf(cfg.Out, "{\"experiment\":\"A7\",\"error\":%q}\n", err.Error())
	}

	dir, err := os.MkdirTemp("", "sfcp-a7-*")
	if err != nil {
		fail(err)
		return
	}
	defer os.RemoveAll(dir)

	// Part 1: spill and read-back throughput, file vs memory, over the
	// payload sizes the spill threshold actually sees (SpillN defaults
	// to 1<<16). Min-of-reps per op sheds scheduler and page-cache
	// warmup noise; the wire bytes are what actually crossed the store.
	fileBlobs, err := store.OpenFileBlobStore(filepath.Join(dir, "blobs"))
	if err != nil {
		fail(err)
		return
	}
	memBlobs := store.NewMemBlobStore()
	reps := 5
	if cfg.Quick {
		reps = 3
	}
	for _, n := range sizes(cfg, []int{1 << 16, 1 << 18, 1 << 20, 1 << 22}, []int{1 << 14, 1 << 16}) {
		wl := workload.RandomFunction(cfg.Seed+int64(n), n, 3)
		ins := sfcp.Instance{F: wl.F, B: wl.B}
		key := ins.Digest()

		measure := func(op func() error) (time.Duration, error) {
			best := time.Duration(1<<63 - 1)
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				if err := op(); err != nil {
					return 0, err
				}
				if d := time.Since(t0); d < best {
					best = d
				}
			}
			return best, nil
		}
		put := func(dst store.BlobStore) (written int64, err error) {
			pr, pw := io.Pipe()
			go func() { pw.CloseWithError(ins.EncodeBinary(pw)) }()
			return dst.Put(key, pr)
		}
		get := func(src store.BlobStore) error {
			rc, err := src.Get(key)
			if err != nil {
				return err
			}
			defer rc.Close()
			_, err = sfcp.DecodeBinary(rc)
			return err
		}

		var wire int64
		filePut, err := measure(func() error { n, err := put(fileBlobs); wire = n; return err })
		if err != nil {
			fail(err)
			return
		}
		fileGet, err := measure(func() error { return get(fileBlobs) })
		if err != nil {
			fail(err)
			return
		}
		memPut, err := measure(func() error { _, err := put(memBlobs); return err })
		if err != nil {
			fail(err)
			return
		}
		memGet, err := measure(func() error { return get(memBlobs) })
		if err != nil {
			fail(err)
			return
		}
		doc.Blob = append(doc.Blob, blobRow{
			N:           n,
			WireBytes:   wire,
			FilePutNS:   int64(filePut),
			FileGetNS:   int64(fileGet),
			MemPutNS:    int64(memPut),
			MemGetNS:    int64(memGet),
			FilePutMBps: float64(wire) / filePut.Seconds() / 1e6,
			FileGetMBps: float64(wire) / fileGet.Seconds() / 1e6,
		})
	}

	// Part 2: cold-start recovery. Build a journal holding a mixed
	// population — three quarters terminal, one quarter stranded
	// non-terminal with persisted payloads — then time exactly what a
	// daemon restart pays: journal replay (open) and manager recovery
	// (scan, requeue, restore).
	jobsTotal := 1000
	if cfg.Quick {
		jobsTotal = 200
	}
	journalPath := filepath.Join(dir, "jobs.journal")
	journal, err := store.OpenFileJobStore(journalPath, nil)
	if err != nil {
		fail(err)
		return
	}
	const insN = 64
	wl := workload.RandomFunction(cfg.Seed, insN, 3)
	queuedIns := sfcp.Instance{F: wl.F, B: wl.B}
	digest := queuedIns.Digest()
	if _, err := fileBlobs.Put(digest, pipeEncode(queuedIns)); err != nil {
		fail(err)
		return
	}
	queued, done := 0, 0
	for i := 0; i < jobsTotal; i++ {
		rec := store.JobRecord{
			ID:          fmt.Sprintf("a7-%05d", i),
			Seq:         uint64(i + 1),
			Algorithm:   sfcp.AlgorithmLinear.String(),
			N:           insN,
			State:       "queued",
			SubmittedAt: time.Now(),
		}
		if i%4 == 0 {
			rec.InstanceDigest = digest
			queued++
		} else {
			rec.State = "done"
			rec.FinishedAt = time.Now()
			rec.NumClasses = 3
			rec.ResultKey = store.ResultKey(rec.Algorithm, 0, digest)
			done++
		}
		if err := journal.Put(rec); err != nil {
			fail(err)
			return
		}
	}
	if err := journal.Close(); err != nil {
		fail(err)
		return
	}
	st, err := os.Stat(journalPath)
	if err != nil {
		fail(err)
		return
	}

	t0 := time.Now()
	journal2, err := store.OpenFileJobStore(journalPath, nil)
	if err != nil {
		fail(err)
		return
	}
	openDur := time.Since(t0)
	t1 := time.Now()
	m := jobs.New(jobs.Config{
		Journal:                 journal2,
		Blobs:                   fileBlobs,
		DispatchersPerAlgorithm: 1,
	}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		res, err := sfcp.SolveWith(ins, sfcp.Options{Algorithm: sfcp.AlgorithmLinear})
		return res, false, err
	})
	recoverDur := time.Since(t1)
	counts := m.Counts()
	m.Close()
	journal2.Close()
	doc.Recovery = append(doc.Recovery, recoveryRow{
		Jobs:         jobsTotal,
		Queued:       queued,
		Done:         done,
		JournalBytes: st.Size(),
		OpenNS:       int64(openDur),
		RecoverNS:    int64(recoverDur),
		Requeued:     counts.Requeued,
		Restored:     counts.Restored,
	})

	enc := json.NewEncoder(cfg.Out)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// pipeEncode streams an instance's wire encoding as a reader, the same
// shape the job manager uses to spill payloads.
func pipeEncode(ins sfcp.Instance) io.Reader {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(ins.EncodeBinary(pw)) }()
	return pr
}
