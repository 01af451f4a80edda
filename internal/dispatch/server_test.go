package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"sapsim/internal/artifact"
	"sapsim/internal/fleetmetrics"
	"sapsim/internal/trace"
)

// TestWireStatusCodes drives Dispatcher.Handler over HTTP: each case books
// one cell as w1, sends one request, and checks the status the wire answers
// with and what the queue and store hold afterwards.
func TestWireStatusCodes(t *testing.T) {
	const body = "fig5 body"
	digest := artifact.Digest([]byte(body))
	named := map[string]string{"fig5": digest}
	completion := func(b BookResponse, bodies map[string]string) CompleteRequest {
		return CompleteRequest{Worker: "w1", Job: b.Job, Attempt: b.Attempt,
			Run: RunResult{Digests: named}, Bodies: bodies}
	}
	held := func(t *testing.T, q *Queue, _ string, b BookResponse) {
		if st := q.Snapshot()[b.Job]; st.State != JobBooked.String() || st.Worker != "w1" {
			t.Errorf("job %d is %s by %q, want still booked by w1", b.Job, st.State, st.Worker)
		}
	}

	cases := []struct {
		name  string
		path  string
		req   func(b BookResponse) any
		want  int
		check func(t *testing.T, q *Queue, url string, b BookResponse)
	}{{
		name: "completion with inline bodies and no prior PUT",
		path: "/complete",
		req:  func(b BookResponse) any { return completion(b, map[string]string{digest: body}) },
		want: http.StatusOK,
		check: func(t *testing.T, q *Queue, url string, b BookResponse) {
			if got, status := getBody(t, url+"/artifact/"+digest); status != http.StatusOK || got != body {
				t.Errorf("GET /artifact/%s = %d %q, want 200 %q", digest, status, got, body)
			}
			if st := q.Snapshot()[b.Job].State; st != JobDone.String() {
				t.Errorf("job %d is %s, want done", b.Job, st)
			}
		},
	}, {
		name:  "body that does not hash to its key",
		path:  "/complete",
		req:   func(b BookResponse) any { return completion(b, map[string]string{digest: "tampered"}) },
		want:  http.StatusBadRequest,
		check: held,
	}, {
		name: "body the run's digests do not name",
		path: "/complete",
		req: func(b BookResponse) any {
			return completion(b, map[string]string{digest: body, artifact.Digest([]byte("extra")): "extra"})
		},
		want: http.StatusBadRequest,
		check: func(t *testing.T, q *Queue, url string, b BookResponse) {
			held(t, q, url, b)
			if q.Store().Has(digest) {
				t.Error("a refused completion stored its named body")
			}
		},
	}, {
		name:  "digest with neither a body nor a stored blob",
		path:  "/complete",
		req:   func(b BookResponse) any { return completion(b, nil) },
		want:  http.StatusPreconditionFailed,
		check: held,
	}, {
		name: "completion from a stale attempt",
		path: "/complete",
		req: func(b BookResponse) any {
			req := completion(b, map[string]string{digest: body})
			req.Attempt++
			req.Profile = []byte(`{"Format": 1}`)
			return req
		},
		want: http.StatusConflict,
		check: func(t *testing.T, q *Queue, url string, b BookResponse) {
			held(t, q, url, b)
			if n, err := q.Store().Len(); n != 0 || err != nil {
				t.Errorf("a zombie's completion left %d blobs in the store (%v), want 0", n, err)
			}
		},
	}, {
		name: "release by the holder",
		path: "/release",
		req: func(b BookResponse) any {
			return ReleaseRequest{Worker: "w1", Job: b.Job, Attempt: b.Attempt, Reason: "test"}
		},
		want: http.StatusOK,
		check: func(t *testing.T, q *Queue, url string, b BookResponse) {
			var next BookResponse
			if status := postJSON(t, url+"/book", BookRequest{Worker: "w2"}, &next); status != http.StatusOK || next.Job != b.Job {
				t.Errorf("next /book = %d job %d, want 200 job %d", status, next.Job, b.Job)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute})
			srv := httptest.NewServer(NewDispatcher(q).Handler())
			defer srv.Close()
			var booked BookResponse
			if status := postJSON(t, srv.URL+"/book", BookRequest{Worker: "w1"}, &booked); status != http.StatusOK {
				t.Fatalf("/book = %d", status)
			}
			if status := postJSON(t, srv.URL+tc.path, tc.req(booked), nil); status != tc.want {
				t.Fatalf("POST %s = %d, want %d", tc.path, status, tc.want)
			}
			tc.check(t, q, srv.URL, booked)
		})
	}
}

// postJSON sends one JSON request and decodes a 200 response into out.
func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getBody(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.StatusCode
}

// TestObservabilityNeverFailsACell posts a real sweep's completions through
// Dispatcher.Handler(), each row damaging what the completions carry for
// observability: spans the queue cannot journal, a profile the store
// refuses, or spans stamped by a worker clock that steps backwards. Every
// row drains to done with the single-process result, the damaged part is
// dropped, and each drop is counted.
func TestObservabilityNeverFailsACell(t *testing.T) {
	spec := testSpec()
	ref := referenceSweep(t, spec)
	captured := captureCompletions(t, spec, nil)
	// Every artifact digest's fan-out directory: a profile whose digest
	// shares one could not be made to fail alone.
	usedDirs := map[string]bool{}
	for _, run := range ref.Runs {
		for _, digest := range run.Digests {
			usedDirs[digest[:2]] = true
		}
	}
	cells := float64(len(captured))

	type drop struct{ what, reason string }
	rows := []struct {
		name   string
		damage func(t *testing.T, dir string, req *CompleteRequest)
		// clock, when set, is the workers' clock: the row posts the
		// completions of a sweep captured on it instead of damaging them.
		clock func() time.Time
		want  map[drop]float64
	}{{
		name: "span that ends before it starts",
		damage: func(_ *testing.T, _ string, req *CompleteRequest) {
			req.Spans = append(req.Spans, trace.Span{Trace: "t", ID: "backward", Name: "run", Start: 2000, End: 1000})
		},
		want: map[drop]float64{{"span", "invalid"}: cells},
	}, {
		name: "span with no ID",
		damage: func(_ *testing.T, _ string, req *CompleteRequest) {
			req.Spans = append(req.Spans, trace.Span{Trace: "t", Name: "run"})
		},
		want: map[drop]float64{{"span", "invalid"}: cells},
	}, {
		name: "600 spans in one completion",
		damage: func(_ *testing.T, _ string, req *CompleteRequest) {
			for i := len(req.Spans); i < 600; i++ {
				req.Spans = append(req.Spans, trace.Span{Trace: "t", ID: fmt.Sprintf("pad%d", i), Name: "run"})
			}
		},
		want: map[drop]float64{{"span", "over_cap"}: cells * (600 - maxSpansPerReport)},
	}, {
		name: "profile the store refuses",
		damage: func(t *testing.T, dir string, req *CompleteRequest) {
			// A plain file where the profile's fan-out directory goes makes
			// the store's MkdirAll fail, whoever runs the test. The profile
			// is padded with JSON whitespace until no artifact shares the
			// directory.
			for usedDirs[artifact.Digest(req.Profile)[:2]] {
				req.Profile = append(req.Profile, '\n')
			}
			path := filepath.Join(dir, artifact.DirName, artifact.Digest(req.Profile)[:2])
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		want: map[drop]float64{{"profile", "not_stored"}: cells},
	}, {
		// Every reading is wall-only and 1 h behind the one before, so the
		// step falls inside each cell's strided run and inside its
		// artifact-render span. The span is clamped to zero length, not
		// dropped.
		name:  "worker clock that steps back 1 h mid-stride",
		clock: steppingClock(time.Hour),
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			completions := captured
			if row.clock != nil {
				completions = captureCompletions(t, spec, row.clock)
				for job, req := range completions {
					i := slices.IndexFunc(req.Spans, func(s trace.Span) bool { return s.Name == "artifact-render" })
					if i < 0 || req.Spans[i].End != req.Spans[i].Start {
						t.Errorf("job %d: artifact-render span at %d of %d, want one of zero length", job, i, len(req.Spans))
					}
				}
			}
			q, dir := newTestQueue(t, QueueOptions{Lease: time.Minute})
			d := NewDispatcher(q)
			reg := fleetmetrics.NewRegistry()
			d.Instrument(reg)
			srv := httptest.NewServer(d.Handler())
			defer srv.Close()

			profiles := map[int]string{}
			for range completions {
				var b BookResponse
				if status := postJSON(t, srv.URL+"/book", BookRequest{Worker: "w1", Capacity: len(completions)}, &b); status != http.StatusOK {
					t.Fatalf("/book = %d", status)
				}
				req := completions[b.Job]
				req.Worker, req.Attempt = "w1", b.Attempt
				req.Spans = slices.Clone(req.Spans)
				req.Profile = slices.Clone(req.Profile)
				if row.damage != nil {
					row.damage(t, dir, &req)
				}
				profiles[b.Job] = artifact.Digest(req.Profile)
				if status := postJSON(t, srv.URL+"/complete", req, nil); status != http.StatusOK {
					t.Fatalf("job %d: /complete = %d, want 200", b.Job, status)
				}
			}

			merged, err := q.Merged()
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, merged, ref, row.name)
			refused := row.want[drop{"profile", "not_stored"}] > 0
			for _, st := range q.Snapshot() {
				if st.State != JobDone.String() {
					t.Errorf("job %d ended %s, want done", st.ID, st.State)
				}
				if want := profiles[st.ID]; refused && st.Profile != "" ||
					!refused && (st.Profile != want || !q.Store().Has(want)) {
					t.Errorf("job %d: profile %q (held %v), want %q unless refused",
						st.ID, st.Profile, q.Store().Has(st.Profile), want)
				}
			}
			for _, s := range journaledSpans(t, dir) {
				if err := s.Validate(); err != nil {
					t.Errorf("journaled an invalid span: %v", err)
				}
			}
			for _, what := range []drop{{"span", "invalid"}, {"span", "over_cap"}, {"profile", "not_stored"}} {
				if got := dropped(reg, what.what, what.reason); got != row.want[what] {
					t.Errorf("%s{what=%s,reason=%s} = %g, want %g",
						MetricObservabilityDropped, what.what, what.reason, got, row.want[what])
				}
			}
		})
	}
}

// steppingClock is a wall-only clock (no monotonic reading, as after a
// clock step) that reads step earlier than its previous reading every time.
func steppingClock(step time.Duration) func() time.Time {
	var mu sync.Mutex
	var back time.Duration
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		back += step
		return time.Now().Round(0).Add(-back)
	}
}

// captureCompletions drains spec through two real workers on clock (nil:
// the real one) and returns, per job, the completion each one posted.
func captureCompletions(t *testing.T, spec Spec, clock func() time.Time) map[int]CompleteRequest {
	t.Helper()
	q, err := NewQueue(t.TempDir(), spec, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	handler := NewDispatcher(q).Handler()
	var mu sync.Mutex
	captured := map[int]CompleteRequest{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/complete" {
			body, err := io.ReadAll(r.Body)
			var req CompleteRequest
			if err == nil {
				err = json.Unmarshal(body, &req)
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			captured[req.Job] = req
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := range 2 {
		w := &Worker{Dispatcher: srv.URL, ID: fmt.Sprintf("capture-%d", i), Poll: 25 * time.Millisecond, now: clock}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(captured) != len(spec.Keys()) {
		t.Fatalf("captured %d completions for %d cells", len(captured), len(spec.Keys()))
	}
	return captured
}
