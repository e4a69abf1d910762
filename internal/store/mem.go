package store

import (
	"bytes"
	"io"
	"sort"
	"sync"
)

// MemJobStore is the in-memory JobStore: a map of latest records. The
// jobs manager journals to it exactly as to the durable one, so tests
// can exercise recovery without a disk, while it survives nothing, by
// design. The zero-config sfcpd does not use it: server.New passes a nil
// journal, and nothing is journaled.
type MemJobStore struct {
	mu   sync.Mutex
	recs map[string]JobRecord
}

// NewMemJobStore returns an empty in-memory job store.
func NewMemJobStore() *MemJobStore {
	return &MemJobStore{recs: map[string]JobRecord{}}
}

// Put stores rec as the latest record for rec.ID.
func (s *MemJobStore) Put(rec JobRecord) error {
	s.mu.Lock()
	s.recs[rec.ID] = rec
	s.mu.Unlock()
	return nil
}

// Delete forgets the record for id (idempotent).
func (s *MemJobStore) Delete(id string) error {
	s.mu.Lock()
	delete(s.recs, id)
	s.mu.Unlock()
	return nil
}

// Scan visits the stored records in ascending Seq order. The snapshot
// is taken under the lock and visited outside it, so fn may call back
// into the store.
func (s *MemJobStore) Scan(fn func(JobRecord) error) error {
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

// CorruptSkipped is always 0: memory does not rot.
func (s *MemJobStore) CorruptSkipped() int64 { return 0 }

// Len reports the number of stored records.
func (s *MemJobStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// MemBlobStore is the in-memory BlobStore: a map of byte slices. It
// backs tests and any deployment that wants payload spill semantics
// (RAM release on the job payload, re-load at dispatch) without a disk.
type MemBlobStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

// NewMemBlobStore returns an empty in-memory blob store.
func NewMemBlobStore() *MemBlobStore {
	return &MemBlobStore{blobs: map[string][]byte{}}
}

// Put reads r to completion and stores the bytes under key.
func (s *MemBlobStore) Put(key string, r io.Reader) (int64, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.blobs[key] = data
	s.mu.Unlock()
	return int64(len(data)), nil
}

// Get returns a reader over the stored bytes.
func (s *MemBlobStore) Get(key string) (io.ReadCloser, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	s.mu.Lock()
	data, ok := s.blobs[key]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// Has reports whether key is stored.
func (s *MemBlobStore) Has(key string) (bool, error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	s.mu.Lock()
	_, ok := s.blobs[key]
	s.mu.Unlock()
	return ok, nil
}

// Delete forgets key (idempotent).
func (s *MemBlobStore) Delete(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.blobs, key)
	s.mu.Unlock()
	return nil
}

// Len reports the number of stored blobs.
func (s *MemBlobStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs)
}
