package dispatch

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sapsim/internal/artifact"
)

// completeCell books the next cell for worker and completes it with the
// given artifact bodies, uploading each into the queue's store first —
// the contract the wire path (PUT /artifact then POST /complete) follows.
func completeCell(t *testing.T, q *Queue, worker string, bodies map[string]string) *Job {
	t.Helper()
	j, _, err := q.Book(worker, 1)
	if err != nil || j == nil {
		t.Fatalf("Book = %+v, %v", j, err)
	}
	digests := make(map[string]string, len(bodies))
	for id, body := range bodies {
		d := artifact.Digest([]byte(body))
		if _, err := q.PutArtifact(d, []byte(body)); err != nil {
			t.Fatal(err)
		}
		digests[id] = d
	}
	if err := q.Complete(j.ID, worker, j.Attempt, RunResult{Digests: digests}); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestBundleFromQueueStore: a drained queue materializes a bundle whose
// every body re-hashes to the journal's digest, with shared blobs stored
// once.
func TestBundleFromQueueStore(t *testing.T) {
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute})
	shared := "table3: static dataset comparison"
	for i := 0; i < 4; i++ {
		completeCell(t, q, "w1", map[string]string{
			"table3": shared,
			"fig5":   fmt.Sprintf("heatmap %d", i),
		})
	}
	merged, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := q.Store().Len(); n != 5 {
		t.Fatalf("store holds %d blobs, want 5 (dedup)", n)
	}
	dir := t.TempDir()
	if _, err := artifact.WriteBundle(dir, merged, q.Store()); err != nil {
		t.Fatal(err)
	}
	// Spot-check one cell directory against the merged digests.
	key := merged.Runs[0].Key
	body, err := os.ReadFile(filepath.Join(dir, artifact.CellDir(key), "table3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if artifact.Digest(body) != merged.Runs[0].Digests["table3"] {
		t.Fatal("bundled body does not re-hash to the journal digest")
	}
}

// TestCellRun exposes recorded results (the /bundle cell pages' source)
// and nothing for in-flight cells.
func TestCellRun(t *testing.T) {
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute})
	j := completeCell(t, q, "w1", map[string]string{"fig5": "body"})
	run, ok := q.CellRun(j.ID)
	if !ok || run.Key != j.Key || run.Digests["fig5"] == "" {
		t.Fatalf("CellRun = %+v, %v", run, ok)
	}
	if _, ok := q.CellRun(j.ID + 1); ok {
		t.Fatal("CellRun returned a result for a queued cell")
	}
	if _, ok := q.CellRun(99); ok {
		t.Fatal("CellRun returned a result for an unknown cell")
	}
}
