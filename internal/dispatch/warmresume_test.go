package dispatch

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sapsim/internal/sim"
)

// TestWorkerWarmResumeByteIdentity: a worker dies after its snapshot is
// journaled; the re-booked cell warm-resumes from the blob on another
// worker, and the merged sweep is still byte-identical to the
// single-process reference — warm resume changes wall-clock cost, never
// results.
func TestWorkerWarmResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run end-to-end sweep")
	}
	spec := testSpec()
	ref := referenceSweep(t, spec)

	dir := t.TempDir()
	q, err := NewQueue(dir, spec, QueueOptions{Lease: 800 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	d := NewDispatcher(q)
	d.Logf = t.Logf
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// The victim dies the moment its first snapshot pointer is accepted —
	// guaranteed mid-cell, with resumable state already in the store.
	victimCtx, killVictim := context.WithCancel(ctx)
	var victimOnce sync.Once
	var victimMu sync.Mutex
	victimJob := -1
	victim := &Worker{
		Dispatcher: srv.URL,
		ID:         "victim",
		// Well inside one cell (10–17 ms of wall time on a 2-core box, and
		// less with every engine speed-up): a cell that ends before its
		// first heartbeat ships no snapshot, and the victim drains the
		// sweep unkilled.
		HeartbeatEvery: 2 * time.Millisecond,
		Poll:           30 * time.Millisecond,
		Hooks: WorkerHooks{
			// The abandoned job is the one whose snapshot triggers the
			// kill: under load the victim can finish its first booking
			// before any snapshot ships and die holding a later one.
			OnSnapshot: func(job int, _ BlobRef) {
				victimOnce.Do(func() {
					victimMu.Lock()
					victimJob = job
					victimMu.Unlock()
					killVictim()
				})
			},
		},
	}
	victimDone := make(chan error, 1)
	go func() { victimDone <- victim.Run(victimCtx) }()
	select {
	case <-victimCtx.Done():
	case <-time.After(time.Minute):
		t.Fatal("victim was never killed (no snapshot accepted)")
	}
	<-victimDone

	var resumeMu sync.Mutex
	resumed := map[int]sim.Time{}
	survivor := &Worker{
		Dispatcher:     srv.URL,
		ID:             "survivor",
		HeartbeatEvery: 30 * time.Millisecond,
		Poll:           30 * time.Millisecond,
		Hooks: WorkerHooks{
			OnResume: func(job int, at sim.Time) {
				resumeMu.Lock()
				resumed[job] = at
				resumeMu.Unlock()
			},
		},
	}
	if err := survivor.Run(ctx); err != nil {
		t.Fatal(err)
	}

	victimMu.Lock()
	abandoned := victimJob
	victimMu.Unlock()
	resumeMu.Lock()
	at, warm := resumed[abandoned]
	resumeMu.Unlock()
	if !warm {
		t.Fatalf("abandoned job %d was not warm-resumed (resumed: %v)", abandoned, resumed)
	}
	if at <= 0 {
		t.Fatalf("warm resume at %v", at)
	}
	t.Logf("job %d warm-resumed at %v", abandoned, at)

	merged, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, merged, ref, "warm resume")
}
