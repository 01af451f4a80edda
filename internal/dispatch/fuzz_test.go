package dispatch

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// resumeBounded resumes dir's journal and fails if that took memory out of
// proportion to the journal's size.
func resumeBounded(t *testing.T, dir string, size int) (*Queue, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	q, err := Resume(dir, QueueOptions{})
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<20+256*size); got > limit {
		t.Fatalf("resuming a %d-byte journal allocated %d, limit %d", size, got, limit)
	}
	return q, err
}

// FuzzResume: no journal makes Resume panic or allocate without bound, a
// header whose matrix is too large to expand is refused, and a journal
// that resumes holds one status per cell and resumes a second time — after
// the first Resume has appended its re-queues — to the same statuses.
func FuzzResume(f *testing.F) {
	spec := testSpec()
	spec.Seeds = spec.Seeds[:1]
	// A dispatcher that died mid-sweep: cell 0 done with its profile's
	// digest in the result, cell 1 running.
	crashed := f.TempDir()
	cq, err := NewQueue(crashed, spec, QueueOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for _, worker := range []string{"w0", "w1"} {
		job, _, err := cq.Book(worker, 1)
		if err != nil || job == nil {
			f.Fatalf("Book = %v, %v", job, err)
		}
		if err := cq.Progress(job.ID, worker, job.Attempt); err != nil {
			f.Fatal(err)
		}
	}
	run := RunResult{Digests: map[string]string{"fig5": putBody(f, cq, "fig5 body")},
		Profile: putBody(f, cq, "engine profile")}
	if err := cq.Complete(0, "w0", 1, run); err != nil {
		f.Fatal(err)
	}
	if err := cq.Close(); err != nil {
		f.Fatal(err)
	}
	drained := f.TempDir()
	q, err := NewQueue(drained, spec, QueueOptions{})
	if err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := RunLocal(ctx, q, LocalOptions{Workers: 1, HeartbeatEvery: time.Millisecond}); err != nil {
		f.Fatal(err)
	}
	if err := q.Close(); err != nil {
		f.Fatal(err)
	}
	for _, dir := range []string{drained, crashed} {
		journal, err := os.ReadFile(filepath.Join(dir, JournalName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(journal)
	}

	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, JournalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := resumeBounded(t, dir, len(journal))
		if err != nil {
			return
		}
		first := q.Snapshot()
		if cells := len(q.Spec().Keys()); len(first) != cells {
			t.Fatalf("%d statuses for %d cells", len(first), cells)
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Resume(dir, QueueOptions{})
		if err != nil {
			t.Fatalf("second Resume: %v", err)
		}
		defer again.Close()
		if second := again.Snapshot(); !reflect.DeepEqual(second, first) {
			t.Fatalf("second Resume differs:\n got %+v\nwant %+v", second, first)
		}
	})
}
