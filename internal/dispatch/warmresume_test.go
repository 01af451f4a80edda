package dispatch

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sapsim/internal/scenario"
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
		// Well inside one cell (about 25 ms of wall time, and less with
		// every engine speed-up): at 30 ms a warm cell often ended before
		// its first heartbeat and the victim drained the sweep unkilled.
		HeartbeatEvery: 10 * time.Millisecond,
		Poll:           30 * time.Millisecond,
		Hooks: WorkerHooks{
			OnBook: func(job int, _ scenario.Key) {
				victimMu.Lock()
				if victimJob < 0 {
					victimJob = job
				}
				victimMu.Unlock()
			},
			OnSnapshot: func(int, BlobRef) { victimOnce.Do(killVictim) },
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
