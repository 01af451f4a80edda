package dispatch

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sapsim/internal/artifact"
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
			return req
		},
		want:  http.StatusConflict,
		check: held,
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
