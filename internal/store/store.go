// Package store is sfcpd's pluggable persistence seam: two narrow
// interfaces — JobStore for job metadata records and BlobStore for
// content-addressed binary payloads — each shipped with an in-memory
// implementation (for tests and benchmarks) and a durable file-backed
// one (what -data-dir selects). The zero-config sfcpd configures
// neither: it journals nothing and has no blob tier.
//
// The split mirrors the layering the storage-backed services in the
// related work use: metadata records travel through a journal with an
// ordered scan for recovery, while bulk payloads (instance arrays,
// result labels) live in a blob tier keyed by content addresses (the
// instance digest, or a key derived from it). The bytes on disk are the
// wire format, so the codec's XXH64 trailer makes integrity checking
// free on every read. The same seam is what a future multi-node mode
// will reuse: peer-fetching a cached result is a BlobStore.Get against a
// remote tier.
//
// Durability policy is deliberately lenient on the read side: a corrupt
// journal entry or an unreadable blob is logged and skipped, never a
// boot failure — a host that lost part of its state must come back up
// and keep serving what survived.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// JobRecord is the persisted view of one async job: everything a
// restart needs to re-queue a non-terminal job or serve a terminal
// one's snapshot, with bulk payloads held as blob keys rather than
// inline arrays. It is the journal's unit of write — one record per
// state transition, latest record per id wins.
type JobRecord struct {
	ID string `json:"id"`
	// Deleted marks a tombstone: the job was evicted or explicitly
	// deleted, and recovery must forget it. Tombstones carry no other
	// fields.
	Deleted bool `json:"deleted,omitempty"`
	// Seq preserves FIFO ordering within a priority across restarts.
	Seq       uint64  `json:"seq,omitempty"`
	Algorithm string  `json:"algorithm,omitempty"`
	Seed      *uint64 `json:"seed,omitempty"`
	Priority  int     `json:"priority,omitempty"`
	N         int     `json:"n,omitempty"`
	State     string  `json:"state,omitempty"`

	SubmittedAt time.Time `json:"submitted_at,omitzero"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`

	Error             string `json:"error,omitempty"`
	NumClasses        int    `json:"num_classes,omitempty"`
	Cached            bool   `json:"cached,omitempty"`
	ResolvedAlgorithm string `json:"resolved_algorithm,omitempty"`
	PlanReason        string `json:"plan_reason,omitempty"`
	PlanWorkers       int    `json:"plan_workers,omitempty"`

	// InstanceDigest is the blob key of the submitted instance (the
	// SHA-256 content address the result cache already uses); ResultKey
	// is the blob key of the finished labels (see ResultKey).
	InstanceDigest string `json:"instance_digest,omitempty"`
	ResultKey      string `json:"result_key,omitempty"`
}

// Terminal reports whether the recorded state will never change again.
func (r JobRecord) Terminal() bool {
	switch r.State {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// JobStore journals job records. Put appends (or supersedes) the record
// for rec.ID; Delete writes a tombstone; Scan visits the surviving
// records in submission order (ascending Seq) — the recovery walk.
// CorruptSkipped reports how many journal entries lenient recovery
// dropped at open (always 0 for the in-memory store); it is part of the
// interface because skipping corruption silently would defeat the
// logged-and-counted recovery contract the metrics expose.
type JobStore interface {
	Put(rec JobRecord) error
	Delete(id string) error
	Scan(fn func(JobRecord) error) error
	CorruptSkipped() int64
}

// BlobStore holds content-addressed binary payloads. Keys are lowercase
// hex digests (ValidKey); values stream through readers so a
// 10^8-element payload never needs a second in-memory copy. Put is
// idempotent for a given key — content addressing makes re-writing the
// same bytes harmless — and returns the byte count written. Get returns
// ErrNotFound (wrapped) for unknown keys.
type BlobStore interface {
	Put(key string, r io.Reader) (int64, error)
	Get(key string) (io.ReadCloser, error)
	Has(key string) (bool, error)
	Delete(key string) error
}

// ErrNotFound reports a Get/Delete against a key the store does not hold.
var ErrNotFound = errors.New("store: blob not found")

// ErrBadKey reports a key that is not a lowercase hex digest — the only
// shape the stores accept, which keeps file-backed keys path-safe by
// construction.
var ErrBadKey = errors.New("store: invalid blob key")

// ValidKey reports whether key is a plausible content-address: 16 to 64
// lowercase hex characters (XXH64 through SHA-256 sized digests).
func ValidKey(key string) bool {
	if len(key) < 16 || len(key) > 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func checkKey(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	return nil
}

// ResultKey derives the blob key under which a solve result's labels are
// stored: a SHA-256 over (resolved algorithm, effective seed, instance
// content address). It is the durable twin of the server's in-memory
// cache key — the jobs manager persisting a result and the server
// consulting the blob tier before solving compute the same key, so each
// tier can serve the other's writes.
func ResultKey(algorithm string, seed uint64, instanceDigest string) string {
	h := sha256.New()
	io.WriteString(h, "sfcp-result\x00")
	io.WriteString(h, algorithm)
	h.Write([]byte{0})
	io.WriteString(h, strconv.FormatUint(seed, 10))
	h.Write([]byte{0})
	io.WriteString(h, instanceDigest)
	return hex.EncodeToString(h.Sum(nil))
}

// VersionKey derives the blob key under which a registered instance
// version's payload is stored: a SHA-256 over its content address. Job
// payloads use the plain address and are deleted when their last job
// finishes; a version must stay addressable, so it has a key of its own.
func VersionKey(instanceDigest string) string {
	h := sha256.New()
	io.WriteString(h, "sfcp-version\x00")
	io.WriteString(h, instanceDigest)
	return hex.EncodeToString(h.Sum(nil))
}
