package jobs

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sfcp"
	"sfcp/internal/store"
)

// modSolve labels element i with i%3 — deterministic and a function of
// the instance, so a re-solved job reproduces its labels exactly.
func modSolve(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
	labels := make([]int, len(ins.F))
	for i := range labels {
		labels[i] = i % 3
	}
	return sfcp.Result{Labels: labels, NumClasses: min(3, len(labels))}, false, nil
}

func sizedInstance(n int) sfcp.Instance {
	f := make([]int, n)
	b := make([]int, n)
	for i := range f {
		f[i] = (i + 1) % n
		b[i] = i % 2
	}
	return sfcp.Instance{F: f, B: b}
}

func TestDurableSubmitSpillsAndJournals(t *testing.T) {
	journal := store.NewMemJobStore()
	blobs := store.NewMemBlobStore()
	m := New(Config{Journal: journal, Blobs: blobs, SpillN: 4, Logf: t.Logf}, modSolve)
	defer m.Close()

	snap, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, sizedInstance(8))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateDone)

	res, s, err := m.Result(snap.ID)
	if err != nil || s.State != StateDone {
		t.Fatalf("result: err=%v state=%s", err, s.State)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 1}
	if !reflect.DeepEqual(res.Labels, want) {
		t.Fatalf("labels %v, want %v (spilled payload must reload for the solve)", res.Labels, want)
	}

	// The terminal record carries the result key, and the labels blob is
	// really in the tier.
	var rec store.JobRecord
	found := false
	journal.Scan(func(r store.JobRecord) error {
		if r.ID == snap.ID {
			rec, found = r, true
		}
		return nil
	})
	if !found || rec.State != string(StateDone) {
		t.Fatalf("journal record: found=%v %+v", found, rec)
	}
	if rec.ResultKey == "" || rec.InstanceDigest == "" {
		t.Fatalf("record missing blob keys: %+v", rec)
	}
	if has, _ := blobs.Has(rec.ResultKey); !has {
		t.Fatal("result blob not in the tier")
	}
	// The instance blob was released when its only job finished.
	if has, _ := blobs.Has(rec.InstanceDigest); has {
		t.Fatal("instance blob not released after the job finished")
	}
	// Instance spill + result spill (n=8 >= SpillN=4).
	if c := m.Counts(); c.Spilled != 2 {
		t.Fatalf("spilled count %d, want 2: %+v", c.Spilled, c)
	}
}

func TestSmallJobStaysResidentButPersists(t *testing.T) {
	journal := store.NewMemJobStore()
	blobs := store.NewMemBlobStore()
	m := New(Config{Journal: journal, Blobs: blobs, SpillN: 1 << 16, Logf: t.Logf}, modSolve)
	defer m.Close()

	snap, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, sizedInstance(6))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateDone)
	if c := m.Counts(); c.Spilled != 0 {
		t.Fatalf("small job spilled: %+v", c)
	}
	// Durability does not depend on size: the result is in the tier.
	var rec store.JobRecord
	journal.Scan(func(r store.JobRecord) error {
		if r.ID == snap.ID {
			rec = r
		}
		return nil
	})
	if rec.ResultKey == "" {
		t.Fatalf("small done job has no persisted result: %+v", rec)
	}
	if has, _ := blobs.Has(rec.ResultKey); !has {
		t.Fatal("small job's result blob missing from the tier")
	}
}

// TestRestartRecovery is the jobs-layer crash/restart contract: close a
// manager with work in every state, reopen over the same stores, and
// check non-terminal jobs re-run to completion while terminal results
// come back byte-identical from disk.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	openStores := func() (*store.FileJobStore, *store.FileBlobStore) {
		j, err := store.OpenFileJobStore(filepath.Join(dir, "jobs.journal"), t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		b, err := store.OpenFileBlobStore(filepath.Join(dir, "blobs"))
		if err != nil {
			t.Fatal(err)
		}
		return j, b
	}

	journal1, blobs1 := openStores()
	gate := make(chan struct{})
	// Blocks on instances bigger than 2 elements until gated — lets the
	// test pin jobs in running/queued while tiny jobs complete.
	blockingSolve := func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		if len(ins.F) > 2 {
			select {
			case <-gate:
			case <-ctx.Done():
				return sfcp.Result{}, false, ctx.Err()
			}
		}
		return modSolve(ctx, algo, seed, ins, digest)
	}
	m1 := New(Config{
		Journal: journal1, Blobs: blobs1, SpillN: 4,
		DispatchersPerAlgorithm: 1, Logf: t.Logf,
	}, blockingSolve)

	doneSnap, err := m1.Submit(sfcp.AlgorithmLinear, nil, 0, sizedInstance(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, doneSnap.ID, StateDone)
	wantDone, _, err := m1.Result(doneSnap.ID)
	if err != nil {
		t.Fatal(err)
	}

	runningSnap, err := m1.Submit(sfcp.AlgorithmLinear, nil, 0, sizedInstance(5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, runningSnap.ID, StateRunning)
	queuedSnap, err := m1.Submit(sfcp.AlgorithmLinear, nil, 0, sizedInstance(7))
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": close without releasing the gate. Durable close leaves the
	// running and queued jobs' journal records non-terminal.
	m1.Close()
	journal1.Close()

	journal2, blobs2 := openStores()
	m2 := New(Config{
		Journal: journal2, Blobs: blobs2, SpillN: 4,
		DispatchersPerAlgorithm: 1, Logf: t.Logf,
	}, modSolve)
	defer func() { m2.Close(); journal2.Close() }()

	if c := m2.Counts(); c.Requeued != 2 || c.Restored != 1 {
		t.Fatalf("recovery counts: %+v, want 2 requeued / 1 restored", c)
	}

	// The interrupted jobs complete on the new manager.
	for _, snap := range []Snapshot{runningSnap, queuedSnap} {
		got := waitState(t, m2, snap.ID, StateDone)
		if got.NumClasses == 0 {
			t.Fatalf("recovered job %s: %+v", snap.ID, got)
		}
		res, _, err := m2.Result(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Labels) != snap.N {
			t.Fatalf("recovered job %s labels %d, want %d", snap.ID, len(res.Labels), snap.N)
		}
	}

	// The pre-crash done job is served from disk, byte-identical.
	gotDone, s, err := m2.Result(doneSnap.ID)
	if err != nil || s.State != StateDone {
		t.Fatalf("restored result: err=%v state=%s", err, s.State)
	}
	if !reflect.DeepEqual(gotDone.Labels, wantDone.Labels) {
		t.Fatalf("restored labels %v != original %v", gotDone.Labels, wantDone.Labels)
	}
	if s.NumClasses != wantDone.NumClasses {
		t.Fatalf("restored snapshot lost fields: %+v", s)
	}
}

func TestRecoveryMissingPayloadFailsJob(t *testing.T) {
	journal := store.NewMemJobStore()
	journal.Put(store.JobRecord{
		ID: "ghost", Seq: 1, Algorithm: "linear", State: "queued", N: 100,
		SubmittedAt:    time.Now(),
		InstanceDigest: strings.Repeat("ab", 32),
	})
	m := New(Config{Journal: journal, Blobs: store.NewMemBlobStore(), Logf: t.Logf}, modSolve)
	defer m.Close()

	s, ok := m.Get("ghost")
	if !ok || s.State != StateFailed {
		t.Fatalf("ghost job: ok=%v %+v, want failed", ok, s)
	}
	if !strings.Contains(s.Error, "missing") {
		t.Fatalf("ghost job error %q does not name the missing payload", s.Error)
	}
	// The failure was journaled: a second boot restores it as failed.
	var rec store.JobRecord
	journal.Scan(func(r store.JobRecord) error { rec = r; return nil })
	if rec.State != string(StateFailed) {
		t.Fatalf("journal record after recovery: %+v", rec)
	}
}

// TestRecoveryDropsRemovedAlgorithm: a queued job whose journal record
// names an algorithm this build no longer has (native-parallel) is
// dropped at boot with a log line, though its payload is in the blob
// tier; a queued linear job on the same payload still runs, and the boot
// does not fail. The drop is for good: the record leaves the journal, so
// a second boot over the same stores has nothing left to drop.
func TestRecoveryDropsRemovedAlgorithm(t *testing.T) {
	ins := sizedInstance(6)
	digest := ins.Digest()
	blobs := store.NewMemBlobStore()
	if err := store.PutInstance(blobs, digest, ins); err != nil {
		t.Fatal(err)
	}
	journal := store.NewMemJobStore()
	for i, algo := range []string{"native-parallel", "linear"} {
		journal.Put(store.JobRecord{
			ID: "old-" + algo, Seq: uint64(i + 1), Algorithm: algo, State: "queued", N: len(ins.F),
			SubmittedAt:    time.Now(),
			InstanceDigest: digest,
		})
	}
	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
		t.Logf(format, args...)
	}
	m := New(Config{Journal: journal, Blobs: blobs, Logf: logf}, modSolve)

	waitState(t, m, "old-linear", StateDone)
	if s, ok := m.Get("old-native-parallel"); ok {
		t.Fatalf("job naming a removed algorithm was recovered: %+v", s)
	}
	mu.Lock()
	if !slices.ContainsFunc(logs, func(l string) bool {
		return strings.Contains(l, "old-native-parallel") && strings.Contains(l, "unknown algorithm")
	}) {
		t.Fatalf("no log line names the dropped job: %q", logs)
	}
	logs = nil
	mu.Unlock()
	m.Close()
	journal.Scan(func(r store.JobRecord) error {
		if r.ID == "old-native-parallel" {
			t.Errorf("the dropped job's record is still journaled: %+v", r)
		}
		return nil
	})

	m2 := New(Config{Journal: journal, Blobs: blobs, Logf: logf}, modSolve)
	defer m2.Close()
	waitState(t, m2, "old-linear", StateDone)
	mu.Lock()
	defer mu.Unlock()
	if i := slices.IndexFunc(logs, func(l string) bool { return strings.Contains(l, "dropping") }); i >= 0 {
		t.Errorf("second boot dropped a job again: %q", logs[i])
	}
}

// TestRecoveryDropReleasesPayload: a dropped job that was the only one on
// its instance leaves no payload blob behind.
func TestRecoveryDropReleasesPayload(t *testing.T) {
	ins := sizedInstance(6)
	digest := ins.Digest()
	blobs := store.NewMemBlobStore()
	if err := store.PutInstance(blobs, digest, ins); err != nil {
		t.Fatal(err)
	}
	journal := store.NewMemJobStore()
	journal.Put(store.JobRecord{
		ID: "old-native-parallel", Seq: 1, Algorithm: "native-parallel", State: "queued", N: len(ins.F),
		SubmittedAt:    time.Now(),
		InstanceDigest: digest,
	})
	m := New(Config{Journal: journal, Blobs: blobs, Logf: t.Logf}, modSolve)
	defer m.Close()
	if ok, err := blobs.Has(digest); err != nil || ok {
		t.Errorf("payload blob of the dropped job: present %v, err %v; want it deleted", ok, err)
	}
	if n := journal.Len(); n != 0 {
		t.Errorf("journal holds %d records after the drop, want 0", n)
	}
}

// TestDeleteTerminalReleasesResultMemory pins the DELETE semantics: a
// terminal job's labels are freed the moment the client deletes it, not
// a TTL later. The oracle is the heap itself.
func TestDeleteTerminalReleasesResultMemory(t *testing.T) {
	const n = 8 << 20 // 64 MB of labels
	m := New(Config{TTL: time.Hour}, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
		return sfcp.Result{Labels: make([]int, n), NumClasses: 1}, false, nil
	})
	defer m.Close()

	snap, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, tinyInstance())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateDone)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	got, ok := m.Cancel(snap.ID) // DELETE on a terminal job
	if !ok || got.State != StateDone {
		t.Fatalf("delete snapshot: ok=%v %+v (must reflect pre-delete state)", ok, got)
	}
	if _, ok := m.Get(snap.ID); ok {
		t.Fatal("deleted job still visible")
	}
	if c := m.Counts(); c.Evicted != 1 {
		t.Fatalf("evicted count %d, want 1", c.Evicted)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	released := int64(before.HeapInuse) - int64(after.HeapInuse)
	if released < int64(n)*4 { // 64 MB held; demand at least half back
		t.Fatalf("DELETE released %d bytes of a %d-byte result; payload still pinned", released, n*8)
	}
}

func TestDeleteTerminalDropsJournalRecordKeepsResultBlob(t *testing.T) {
	journal := store.NewMemJobStore()
	blobs := store.NewMemBlobStore()
	m := New(Config{Journal: journal, Blobs: blobs, Logf: t.Logf}, modSolve)
	defer m.Close()

	snap, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, sizedInstance(4))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, StateDone)
	var rec store.JobRecord
	journal.Scan(func(r store.JobRecord) error { rec = r; return nil })
	if rec.ResultKey == "" {
		t.Fatalf("no result key journaled: %+v", rec)
	}

	if _, ok := m.Cancel(snap.ID); !ok {
		t.Fatal("delete failed")
	}
	if journal.Len() != 0 {
		t.Fatalf("journal still holds %d records after delete", journal.Len())
	}
	// The result blob outlives the job: it is the content-addressed tier,
	// not per-job state.
	if has, _ := blobs.Has(rec.ResultKey); !has {
		t.Fatal("result blob deleted with the job")
	}
}

// TestSolveGetsSubmitDigest: a durable manager hands the solve the digest
// Submit computed (spilled and resident payloads alike), so the solve
// path need not hash the payload again; a zero-config manager computes
// none and passes "".
func TestSolveGetsSubmitDigest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		durable bool
	}{
		{"durable", Config{Journal: store.NewMemJobStore(), Blobs: store.NewMemBlobStore(), SpillN: 4}, true},
		{"zero-config", Config{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make(chan [2]string, 2)
			m := New(tc.cfg, func(ctx context.Context, algo sfcp.Algorithm, seed *uint64, ins sfcp.Instance, digest string) (sfcp.Result, bool, error) {
				got <- [2]string{digest, ins.Digest()}
				return modSolve(ctx, algo, seed, ins, digest)
			})
			defer m.Close()
			for _, n := range []int{2, 8} { // below and at or above SpillN
				snap, err := m.Submit(sfcp.AlgorithmLinear, nil, 0, sizedInstance(n))
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, m, snap.ID, StateDone)
				d := <-got
				if want := map[bool]string{true: d[1], false: ""}[tc.durable]; d[0] != want {
					t.Errorf("n=%d: solve got digest %q, want %q", n, d[0], want)
				}
			}
		})
	}
}
