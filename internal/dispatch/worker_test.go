package dispatch

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sapsim"
	"sapsim/internal/engprof"
)

// TestWorkerBookBackoff pins the retry schedule against a flapping
// dispatcher: jittered exponential backoff doubling from Poll to
// bookBackoffMax, resetting to the plain Poll cadence the moment the
// dispatcher answers again. The seams make it deterministic: randFloat
// pinned to 0 selects the low edge of each jitter window (backoff/2).
func TestWorkerBookBackoff(t *testing.T) {
	// Scripted /book responses: five failures (walk the backoff up and
	// into the cap), one healthy empty poll (reset), one more failure
	// (restart from the bottom), then drained.
	statuses := []int{
		http.StatusInternalServerError,
		http.StatusInternalServerError,
		http.StatusInternalServerError,
		http.StatusInternalServerError,
		http.StatusInternalServerError,
		http.StatusNoContent,
		http.StatusInternalServerError,
		http.StatusGone,
	}
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/book" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		st := http.StatusGone
		if calls < len(statuses) {
			st = statuses[calls]
		}
		calls++
		w.WriteHeader(st)
	}))
	defer srv.Close()

	var slept []time.Duration
	w := &Worker{
		Dispatcher:     srv.URL,
		ID:             "w1",
		Poll:           time.Second,
		bookBackoffMax: 4 * time.Second,
		sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil // no wall-clock time passes
		},
		randFloat: func() float64 { return 0 },
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := []time.Duration{
		500 * time.Millisecond, // backoff 1s  → low edge 0.5s
		time.Second,            // backoff 2s
		2 * time.Second,        // backoff 4s (cap)
		2 * time.Second,        // held at cap
		2 * time.Second,        // held at cap
		time.Second,            // 204: healthy poll at Poll, backoff resets
		500 * time.Millisecond, // next failure starts from the bottom again
	}
	if len(slept) != len(want) {
		t.Fatalf("sleeps = %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

// TestWorkerBackoffJitterSpread: with randFloat at the high edge the delay
// approaches the full backoff — two workers with different draws never
// sleep the same schedule, which is the whole point of the jitter.
func TestWorkerBackoffJitterSpread(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	run := func(r float64) time.Duration {
		var first time.Duration
		w := &Worker{
			Dispatcher: srv.URL,
			ID:         "w",
			Poll:       time.Second,
			sleep: func(ctx context.Context, d time.Duration) error {
				first = d
				return context.Canceled // one sample is enough
			},
			randFloat: func() float64 { return r },
		}
		if err := w.Run(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
		return first
	}
	lo, hi := run(0), run(0.999)
	if lo != 500*time.Millisecond {
		t.Errorf("low-edge first delay = %v, want 500ms", lo)
	}
	if hi <= lo || hi >= time.Second {
		t.Errorf("high-edge first delay = %v, want in (500ms, 1s)", hi)
	}
}

// TestWorkerIDNeverCollides: when the host has no usable hostname, two
// workers in the same process (same PID — the container case that used to
// produce identical "worker:1" IDs) must still get distinct IDs, because
// the queue keys leases and attempt nonces by worker ID.
func TestWorkerIDNeverCollides(t *testing.T) {
	noHost := func() (string, error) { return "", errors.New("no hostname") }
	a := &Worker{hostname: noHost}
	b := &Worker{hostname: noHost}
	a.fill()
	b.fill()
	if a.ID == "" || b.ID == "" {
		t.Fatalf("empty worker ID: %q, %q", a.ID, b.ID)
	}
	if a.ID == b.ID {
		t.Fatalf("two hostname-less workers share ID %q", a.ID)
	}
	for _, w := range []*Worker{a, b} {
		if strings.HasPrefix(w.ID, "worker:") {
			t.Errorf("ID %q uses the old colliding fallback", w.ID)
		}
		if !strings.HasPrefix(w.ID, "anon-") {
			t.Errorf("ID %q missing the random fallback prefix", w.ID)
		}
	}

	// An empty hostname with a nil error takes the same fallback.
	c := &Worker{hostname: func() (string, error) { return "", nil }}
	c.fill()
	if !strings.HasPrefix(c.ID, "anon-") {
		t.Errorf("empty-hostname ID %q missing the random fallback prefix", c.ID)
	}
}

// TestWorkerSnapshotsFollowHeartbeats pins the snapshot pacing: a worker
// captures at a stride boundary only when the heartbeat loop has nothing
// pending, and encodes only what a heartbeat ships. (a) A heartbeat longer
// than the cell never fires: one capture per cell (the initial ask), nothing
// encoded, uploaded or journaled. (b) A short heartbeat journals at least one
// snapshot, never more than one per heartbeat. (c) DisableSnapshots captures
// nothing at all. The merged sweep equals the reference in every case.
func TestWorkerSnapshotsFollowHeartbeats(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run end-to-end sweep")
	}
	spec := testSpec()
	spec.Seeds = spec.Seeds[:1]
	ref := referenceSweep(t, spec)

	// drain runs the sweep through w alone and reports how many snapshot
	// blobs were PUT, how many snapshot pointers the journal holds, and each
	// cell's captures as its shipped profile counted them.
	drain := func(t *testing.T, w *Worker) (puts, journaled int, captures []int64) {
		dir := t.TempDir()
		q, err := NewQueue(dir, spec, QueueOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		handler := NewDispatcher(q).Handler()
		var snapshotPuts atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPut {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Errorf("reading PUT body: %v", err)
				}
				if _, err := sapsim.DecodeSnapshotBytes(body); err == nil {
					snapshotPuts.Add(1)
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			handler.ServeHTTP(rw, r)
		}))
		defer srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		w.Dispatcher, w.ID, w.Poll = srv.URL, "w", 10*time.Millisecond
		if err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
		merged, err := q.Merged()
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, merged, ref, t.Name())
		journal, err := os.ReadFile(filepath.Join(dir, JournalName))
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range q.Snapshot() {
			if job.Profile == nil {
				t.Fatalf("job %d completed without a profile", job.ID)
			}
			blob, err := q.Store().Get(job.Profile.Digest)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := sapsim.DecodeProfileBytes(blob)
			if err != nil {
				t.Fatal(err)
			}
			captures = append(captures, prof.Phase(engprof.PhaseSnapshotEncode).Ops)
		}
		return int(snapshotPuts.Load()), strings.Count(string(journal), `"t":"snapshot"`), captures
	}

	t.Run("heartbeat longer than the cell", func(t *testing.T) {
		puts, journaled, captures := drain(t, &Worker{HeartbeatEvery: time.Hour})
		if puts != 0 || journaled != 0 {
			t.Errorf("%d snapshot blobs PUT, %d journaled; want none without a heartbeat", puts, journaled)
		}
		for job, n := range captures {
			if n != 1 {
				t.Errorf("job %d captured %d snapshots, want only the initially asked one", job, n)
			}
		}
	})
	t.Run("short heartbeat", func(t *testing.T) {
		var snapshots, heartbeats atomic.Int64
		puts, journaled, captures := drain(t, &Worker{
			HeartbeatEvery: 2 * time.Millisecond,
			Hooks: WorkerHooks{
				OnSnapshot:  func(int, BlobRef) { snapshots.Add(1) },
				OnHeartbeat: func(int) { heartbeats.Add(1) },
			},
		})
		accepted := int(snapshots.Load())
		if accepted < 1 || int64(accepted) > heartbeats.Load() {
			t.Errorf("%d snapshots accepted over %d heartbeats; want 1 <= snapshots <= heartbeats",
				accepted, heartbeats.Load())
		}
		if journaled != accepted || puts < accepted {
			t.Errorf("%d accepted, %d journaled, %d PUT; want accepted == journaled <= PUT", accepted, journaled, puts)
		}
		var captured int64
		for _, n := range captures {
			captured += n
		}
		if captured < int64(puts) {
			t.Errorf("profiles count %d captures for %d snapshot PUTs", captured, puts)
		}
	})
	t.Run("DisableSnapshots", func(t *testing.T) {
		puts, journaled, captures := drain(t, &Worker{HeartbeatEvery: 2 * time.Millisecond, DisableSnapshots: true})
		if puts != 0 || journaled != 0 {
			t.Errorf("%d snapshot blobs PUT, %d journaled; want none", puts, journaled)
		}
		for job, n := range captures {
			if n != 0 {
				t.Errorf("job %d captured %d snapshots with snapshots disabled", job, n)
			}
		}
	})
}

// TestWorkerDropsRefusedSnapshot: a dispatcher that refuses snapshot blobs
// (as the real one does past its body cap) sees each captured snapshot PUT
// exactly once — a refusal is not retried at every following heartbeat — and
// the cells still complete and merge byte-identically.
func TestWorkerDropsRefusedSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run end-to-end sweep")
	}
	spec := testSpec()
	spec.Seeds = spec.Seeds[:1]
	ref := referenceSweep(t, spec)

	q, err := NewQueue(t.TempDir(), spec, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	handler := NewDispatcher(q).Handler()
	var mu sync.Mutex
	refused := map[string]int{} // snapshot blob path → PUTs seen
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("reading PUT body: %v", err)
			}
			if _, err := sapsim.DecodeSnapshotBytes(body); err == nil {
				mu.Lock()
				refused[r.URL.Path]++
				mu.Unlock()
				http.Error(rw, "bad request: http: request body too large", http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		handler.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var accepted atomic.Int64
	w := &Worker{Dispatcher: srv.URL, ID: "w", Poll: 10 * time.Millisecond,
		// Far shorter than a cell: a snapshot left pending would be re-PUT
		// dozens of times before the cell ends.
		HeartbeatEvery: 2 * time.Millisecond,
		Hooks:          WorkerHooks{OnSnapshot: func(int, BlobRef) { accepted.Add(1) }}}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	merged, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, merged, ref, "refused snapshots")
	if len(refused) == 0 {
		t.Fatal("no snapshot was ever PUT; the test exercised nothing")
	}
	for blob, puts := range refused {
		if puts != 1 {
			t.Errorf("refused snapshot %s was PUT %d times, want once", blob, puts)
		}
	}
	if n := accepted.Load(); n != 0 {
		t.Errorf("%d snapshot pointers accepted for blobs the dispatcher refused", n)
	}
}
