// Command sfcpd serves single function coarsest partition solving over
// HTTP. Every solve — synchronous, batched or async — runs four stages:
// resolve (the planner turns "auto" into the linear solver), lookup
// (results are cached by resolved algorithm, seed and instance digest,
// in RAM and, with -data-dir, on disk), execute (every solve takes one of
// -pool-workers slots of its algorithm's lane and runs on the goroutine
// that asked) and fill (metrics, cache, write-through).
// Every response reports its own request's plan, cache hits included.
//
// Endpoints:
//
//	POST   /solve            {"algorithm":"auto","f":[1,0],"b":[0,1],"seed":0}
//	POST   /solve/batch      {"algorithm":"auto","instances":[{...},...]}
//	POST   /jobs             async submit (same body plus "priority") -> 202 + job id
//	GET    /jobs/{id}        job status: queued|running|done|failed|cancelled
//	GET    /jobs/{id}/result labels (JSON, or binary with Accept: application/x-sfcp)
//	DELETE /jobs/{id}        cooperative cancel
//	POST   /instances        register a versioned instance -> digest + labels
//	POST   /instances/{digest}/delta  incremental re-solve of an edited version
//	GET    /healthz
//	GET    /metrics
//
// The POST routes also accept Content-Type: application/x-sfcp bodies in
// the binary wire format (sfcpgen -format bin emits it), with ?algorithm=,
// ?seed= (and for /jobs ?priority=) query parameters; /solve/batch takes
// concatenated instances and shards them into batch members as the upload
// streams. Jobs queue by priority per lane (the algorithm they resolve
// to, so "auto" and "linear" jobs share one queue), take the same slots
// as synchronous requests, and are evicted -job-ttl after finishing.
//
// Usage:
//
//	sfcpd [-addr :8080] [-pool-workers 2] [-cache 1024]
//	      [-cache-bytes 0] [-max-n 1048576] [-max-batch 256]
//	      [-max-body 67108864] [-workers 0] [-seed 0] [-job-ttl 10m]
//	      [-job-queue 1024] [-data-dir path] [-spill-n 65536]
//	      [-instance-sessions 32]
//
// Versioned instances give long-lived sessions sub-linear latency:
// POST /instances solves once and addresses the result by the
// instance's content address, the root of a SHA-256 hash tree over
// fixed element ranges of F and of B; POST /instances/{digest}/delta
// applies a batch of point edits (JSON {"edits":[{"node":0,"f":1,"b":2},...]}
// or the binary delta frame, Content-Type: application/x-sfcp-delta),
// re-solving only the dirty components unless the session's valve
// re-founds the whole decomposition, and re-registers the session under
// the child's address, which the session keeps current by rehashing
// only the ranges the edits touched. Up to -instance-sessions sessions
// stay resident, each costing n × about 33-64 bytes (README,
// "Incremental re-solve"); evicted or restart-lost versions rebuild from
// the blob tier when -data-dir is set. Instance builds and deltas run in
// a slot of the linear lane, so they share its -pool-workers bound with
// every linear solve, small or large.
//
// -data-dir opts into tiered durable storage: async jobs journal to
// <dir>/jobs.journal, and instance payloads plus solved results persist
// content-addressed under <dir>/blobs. A restart over the same
// directory re-queues interrupted jobs and serves finished results from
// disk; instances of -spill-n or more elements release their payloads
// from RAM once persisted. Without -data-dir everything stays in memory
// exactly as before.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sfcp/internal/server"
	"sfcp/internal/store"
)

// parseFlags binds sfcpd's command line to a listen address, a data
// directory (empty = in-memory only) and a server configuration. The
// caller opens the stores; this stays a pure flag mapping.
func parseFlags(fs *flag.FlagSet, args []string) (addr, dataDir string, cfg server.Config, err error) {
	a := fs.String("addr", ":8080", "listen address")
	poolWorkers := fs.Int("pool-workers", 2, "concurrent solves per algorithm, of any size; more wait for a slot")
	cacheSize := fs.Int("cache", 1024, "result cache entries (negative disables)")
	maxN := fs.Int("max-n", 1<<20, "largest accepted instance size")
	maxBatch := fs.Int("max-batch", 256, "largest accepted batch")
	workers := fs.Int("workers", 0, "host goroutines per solve (0 = NumCPU)")
	seed := fs.Uint64("seed", 0, "default simulator seed")
	maxBody := fs.Int64("max-body", 64<<20, "largest accepted request body in bytes")
	jobTTL := fs.Duration("job-ttl", 10*time.Minute, "how long finished async jobs are retained")
	jobQueue := fs.Int("job-queue", 1024, "largest accepted async job backlog")
	dir := fs.String("data-dir", "", "directory for the durable job journal and blob tier (empty = in-memory only)")
	spillN := fs.Int("spill-n", 0, "instance size at which payloads and results spill to the blob tier (0 = 65536 default; needs -data-dir)")
	cacheBytes := fs.Int64("cache-bytes", 0, "result cache byte budget (0 = entry-count bound only)")
	instSessions := fs.Int("instance-sessions", 0, "resident incremental solve sessions, each holding about 33-64 bytes per element (0 = 32 default, negative disables residency)")
	if err := fs.Parse(args); err != nil {
		return "", "", server.Config{}, err
	}
	return *a, *dir, server.Config{
		WorkersPerAlgorithm: *poolWorkers,
		CacheSize:           *cacheSize,
		MaxN:                *maxN,
		MaxBatch:            *maxBatch,
		Workers:             *workers,
		Seed:                *seed,
		MaxBodyBytes:        *maxBody,
		JobTTL:              *jobTTL,
		JobMaxQueued:        *jobQueue,
		SpillN:              *spillN,
		CacheBytes:          *cacheBytes,
		InstanceSessions:    *instSessions,
	}, nil
}

// openDataDir opens (creating as needed) the durable stores under dir:
// the append-only job journal and the content-addressed blob tier. The
// journal's Close flushes its file handle; the blob store needs no
// close (every write is temp+rename).
func openDataDir(dir string, logf func(string, ...any)) (*store.FileJobStore, *store.FileBlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	journal, err := store.OpenFileJobStore(filepath.Join(dir, "jobs.journal"), logf)
	if err != nil {
		return nil, nil, err
	}
	blobs, err := store.OpenFileBlobStore(filepath.Join(dir, "blobs"))
	if err != nil {
		journal.Close()
		return nil, nil, err
	}
	return journal, blobs, nil
}

func main() {
	addr, dataDir, cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	var journal *store.FileJobStore
	if dataDir != "" {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sfcpd: "+format+"\n", args...)
		}
		j, blobs, err := openDataDir(dataDir, cfg.Logf)
		if err != nil {
			fatal(err)
		}
		journal = j
		cfg.JobStore, cfg.BlobStore = journal, blobs
		fmt.Fprintf(os.Stderr, "sfcpd: durable storage at %s\n", dataDir)
	}
	srv := server.New(cfg)
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errC := make(chan error, 1)
	go func() { errC <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "sfcpd: listening on %s\n", addr)

	select {
	case err := <-errC:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "sfcpd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	srv.Close()
	if journal != nil {
		if err := journal.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sfcpd:", err)
	os.Exit(1)
}
