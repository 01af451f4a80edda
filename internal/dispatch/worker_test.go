package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sapsim/internal/scenario"
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

// TestWorkerAbandonCoolDown: a cell whose completion the dispatcher
// rejects (412, missing blobs) is released with the failure as its reason,
// and its slot cools down for abandonBackoff through the sleep seam — not
// a wall-clock timer the test cannot see.
func TestWorkerAbandonCoolDown(t *testing.T) {
	base := testSpec().Base
	base.Days = 1
	booking := BookResponse{Job: 3, Attempt: 1, Base: base,
		Key: scenario.Key{Scenario: "baseline", Variant: "default", Seed: 7}}
	var (
		mu      sync.Mutex
		books   int
		release *ReleaseRequest
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/book":
			if books++; books > 1 {
				w.WriteHeader(http.StatusGone)
				return
			}
			_ = json.NewEncoder(w).Encode(booking)
		case "/complete":
			w.WriteHeader(http.StatusPreconditionFailed)
		case "/release":
			release = new(ReleaseRequest)
			if err := json.NewDecoder(r.Body).Decode(release); err != nil {
				t.Errorf("decoding /release: %v", err)
			}
			_, _ = io.WriteString(w, `{"OK":true}`)
		default:
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer srv.Close()

	var slept []time.Duration
	w := &Worker{
		Dispatcher:     srv.URL,
		ID:             "w1",
		HeartbeatEvery: time.Hour,
		sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil // no wall-clock time passes
		},
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if release == nil {
		t.Fatal("abandoned cell was never released")
	}
	if release.Worker != "w1" || release.Job != booking.Job || release.Attempt != booking.Attempt {
		t.Errorf("release = %+v, want worker w1, job %d, attempt %d", *release, booking.Job, booking.Attempt)
	}
	if !strings.Contains(release.Reason, ErrMissingBlobs.Error()) {
		t.Errorf("release reason %q does not carry the rejected completion", release.Reason)
	}
	if len(slept) != 1 || slept[0] != abandonBackoff {
		t.Errorf("sleeps = %v, want exactly one abandonBackoff (%v)", slept, abandonBackoff)
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
