package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// maxJournalLine bounds one journal entry; records are a few hundred
// bytes, so a line past this is corruption, not data.
const maxJournalLine = 1 << 20

// FileJobStore is the durable JobStore: an append-only JSONL journal,
// one record per line, latest record per id wins. Open replays the
// journal leniently — a torn or corrupt line is logged, counted and
// skipped, never a boot failure — and then compacts it (atomic
// temp+rename, like the blob tier's writes) so dead
// transitions do not accumulate across restarts. Appends during serving
// are compacted in place once the dead:live ratio grows large.
type FileJobStore struct {
	path string
	logf func(format string, args ...any)

	mu      sync.Mutex
	f       *os.File
	recs    map[string]JobRecord
	appends int64 // journal lines written since the last compaction

	skipped atomic.Int64
}

// OpenFileJobStore opens (creating if absent) the journal at path,
// replays and compacts it. logf receives one line per skipped corrupt
// entry (nil discards).
func OpenFileJobStore(path string, logf func(format string, args ...any)) (*FileJobStore, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: journal dir: %w", err)
	}
	s := &FileJobStore{path: path, logf: logf, recs: map[string]JobRecord{}}
	if err := s.replay(); err != nil {
		return nil, err
	}
	if err := s.compactLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// replay reads every journal line into the record map, skipping (and
// counting) lines that do not parse — the torn tail a kill -9 leaves,
// or bit rot anywhere else.
func (s *FileJobStore) replay() error {
	f, err := os.Open(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: opening journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxJournalLine)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec JobRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.ID == "" {
			s.skipped.Add(1)
			s.logf("store: journal %s line %d unreadable; skipping (%v)", s.path, line, err)
			continue
		}
		if rec.Deleted {
			delete(s.recs, rec.ID)
			continue
		}
		s.recs[rec.ID] = rec
	}
	if err := sc.Err(); err != nil {
		// An overlong or unreadable tail: everything before it replayed.
		s.skipped.Add(1)
		s.logf("store: journal %s truncated scan after line %d; keeping %d records (%v)", s.path, line, len(s.recs), err)
	}
	return nil
}

// compactLocked rewrites the journal to exactly the live records
// (ascending Seq) via a temporary sibling and an atomic rename, then
// reopens it for appending. Callers hold s.mu (or, at Open, have
// exclusive access).
func (s *FileJobStore) compactLocked() error {
	recs := make([]JobRecord, 0, len(s.recs))
	for _, r := range s.recs {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	tmp, err := os.CreateTemp(filepath.Dir(s.path), filepath.Base(s.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: compacting journal: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, r := range recs {
		data, err := json.Marshal(r)
		if err == nil {
			_, err = w.Write(append(data, '\n')) //sfcpvet:ignore lockhold -- compaction must rewrite under the journal mutex to keep appenders from racing the rename
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("store: compacting journal: %w", err)
		}
	}
	err = w.Flush() //sfcpvet:ignore lockhold -- part of the same locked compaction rewrite
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: compacting journal: %w", err)
	}
	if s.f != nil {
		s.f.Close()
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening journal: %w", err)
	}
	s.f, s.appends = f, 0
	return nil
}

// appendLocked writes one journal line. Callers hold s.mu: the append
// order is the recovery order, so writes must serialize under the same
// lock that updates the record map.
func (s *FileJobStore) appendLocked(rec JobRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	_, err = s.f.Write(append(data, '\n')) //sfcpvet:ignore lockhold -- journal appends must serialize under the mutex so recovery replays transitions in order
	if err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	s.appends++
	// Compact once the dead:live ratio is clearly wasteful; the floor
	// keeps small stores from rewriting on every handful of puts.
	if s.appends > 1024 && s.appends > 8*int64(len(s.recs)) {
		return s.compactLocked()
	}
	return nil
}

// Put journals rec as the latest record for rec.ID.
func (s *FileJobStore) Put(rec JobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[rec.ID] = rec
	return s.appendLocked(rec)
}

// Delete journals a tombstone for id (idempotent).
func (s *FileJobStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recs[id]; !ok {
		return nil
	}
	delete(s.recs, id)
	return s.appendLocked(JobRecord{ID: id, Deleted: true})
}

// Scan visits the live records in ascending Seq order. The snapshot is
// taken under the lock and visited outside it.
func (s *FileJobStore) Scan(fn func(JobRecord) error) error {
	s.mu.Lock()
	recs := make([]JobRecord, 0, len(s.recs))
	for _, r := range s.recs {
		recs = append(recs, r)
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// CorruptSkipped reports journal entries dropped by lenient replay.
func (s *FileJobStore) CorruptSkipped() int64 { return s.skipped.Load() }

// Close flushes and closes the journal file.
func (s *FileJobStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// FileBlobStore is the durable BlobStore: one file per blob under
// two-hex-character fanout directories keyed by the digest prefix
// (root/ab/abcdef…), so a directory never accumulates the whole
// keyspace. Writes go to a temporary sibling and rename into place —
// a crash mid-Put leaves a stray temp file, never a half-written blob
// under a valid key — and reads stream straight off the file, so the
// codec's digest trailer re-verifies content integrity on every
// decode.
type FileBlobStore struct {
	root string
}

// OpenFileBlobStore opens (creating if absent) a blob tier rooted at dir
// and sweeps temp files a previous crash may have stranded.
func OpenFileBlobStore(dir string) (*FileBlobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: blob root: %w", err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	for _, m := range matches {
		os.Remove(m)
	}
	return &FileBlobStore{root: dir}, nil
}

// blobPath maps a validated key to its fanout location.
func (s *FileBlobStore) blobPath(key string) string {
	return filepath.Join(s.root, key[:2], key)
}

// Put streams r into a temp file and renames it to the key's fanout
// path. Re-putting an existing key atomically replaces it with
// identical bytes (keys are content addresses).
func (s *FileBlobStore) Put(key string, r io.Reader) (int64, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(s.root, ".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("store: blob temp: %w", err)
	}
	n, err := io.Copy(tmp, r)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if err = os.MkdirAll(filepath.Join(s.root, key[:2]), 0o755); err == nil {
			err = os.Rename(tmp.Name(), s.blobPath(key))
		}
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("store: writing blob %s: %w", key, err)
	}
	return n, nil
}

// Get opens the blob for streaming; the caller closes it.
func (s *FileBlobStore) Get(key string) (io.ReadCloser, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	f, err := os.Open(s.blobPath(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading blob %s: %w", key, err)
	}
	return f, nil
}

// Has reports whether the blob exists without opening it.
func (s *FileBlobStore) Has(key string) (bool, error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	_, err := os.Stat(s.blobPath(key))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: probing blob %s: %w", key, err)
	}
	return true, nil
}

// Delete removes the blob (idempotent).
func (s *FileBlobStore) Delete(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	err := os.Remove(s.blobPath(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: deleting blob %s: %w", key, err)
	}
	return nil
}
