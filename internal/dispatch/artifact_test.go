package dispatch

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sapsim/internal/artifact"
)

// completeCell books the next cell for worker and completes it with the
// given artifact bodies, storing each in the queue's store first — what
// the dispatcher does with the bodies a POST /complete carries before it
// calls Complete.
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

// TestLiveBundleEqualsDisk: the dispatcher's /bundle is the tree WriteBundle
// writes. While cells are outstanding the index and finished cells' bodies
// serve, everything that summarizes the sweep is 425, and what will never
// exist is 404; once drained, every file on disk is served byte for byte
// under the same relative path.
func TestLiveBundleEqualsDisk(t *testing.T) {
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute})
	srv := httptest.NewServer(NewDispatcher(q).Handler())
	defer srv.Close()
	get := func(rel string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/bundle" + rel)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		// The bare /bundle redirects into the tree, where the index's
		// relative links resolve; only an index is served as HTML.
		html := rel == "" || rel == "/index.html"
		if got := resp.Header.Get("Content-Type"); resp.StatusCode == http.StatusOK &&
			strings.HasPrefix(got, "text/html") != html {
			t.Errorf("GET /bundle%s: Content-Type %q", rel, got)
		}
		if rel == "" && resp.Request.URL.Path != "/bundle/" {
			t.Errorf("GET /bundle landed on %s, want a redirect to /bundle/", resp.Request.URL.Path)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Four cells: one done, one failed, one in flight, one queued.
	done := completeCell(t, q, "w1", map[string]string{"table3": "static", "fig5": "heatmap 0"})
	failed, _, err := q.Book("w1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(failed.ID, "w1", failed.Attempt, RunResult{Err: "injector: no such zone"}); err != nil {
		t.Fatal(err)
	}
	inflight, _, err := q.Book("w1", 1)
	if err != nil {
		t.Fatal(err)
	}

	status, index := get("/index.html")
	if status != http.StatusOK {
		t.Fatalf("index of an undrained sweep: status %d", status)
	}
	for _, want := range []string{"<td>booked</td>", "<td>queued</td>", "injector: no such zone",
		"cells/baseline/default/seed-7/fig5.txt", "2 cells outstanding"} {
		if !strings.Contains(string(index), want) {
			t.Errorf("undrained index does not show %q:\n%s", want, index)
		}
	}
	if n := strings.Count(string(index), "<tr><td>"); n != 4 {
		t.Errorf("undrained index lists %d cells, want 4", n)
	}
	body := "/" + artifact.CellDir(done.Key) + "/fig5.txt"
	if status, got := get(body); status != http.StatusOK || string(got) != "heatmap 0" {
		t.Errorf("finished cell's body: status %d, %q", status, got)
	}
	for rel, want := range map[string]int{
		"/report.txt": http.StatusTooEarly, "/runs.csv": http.StatusTooEarly,
		"/artifact_diff.txt": http.StatusTooEarly, "/manifest.json": http.StatusTooEarly,
		"/SHA256SUMS": http.StatusTooEarly, "/scenarios/host-failures/report.txt": http.StatusTooEarly,
		"/" + artifact.CellDir(inflight.Key) + "/fig5.txt": http.StatusTooEarly,
		"/" + artifact.CellDir(failed.Key) + "/fig5.txt":   http.StatusNotFound,
		"/" + artifact.CellDir(done.Key) + "/fig99.txt":    http.StatusNotFound,
		"/" + artifact.CellDir(done.Key) + "/fig5":         http.StatusNotFound,
		"/scenarios/baseline/report.txt":                   http.StatusNotFound,
		"/cells/no-such/default/seed-7/fig5.txt":           http.StatusNotFound,
		"/report":                                          http.StatusNotFound,
	} {
		if status, _ := get(rel); status != want {
			t.Errorf("undrained GET /bundle%s: status %d, want %d", rel, status, want)
		}
	}

	// Drain, materialize, and compare the whole tree.
	if err := q.Complete(inflight.ID, "w1", inflight.Attempt,
		RunResult{Digests: map[string]string{"fig5": putBody(t, q, "heatmap 2")}}); err != nil {
		t.Fatal(err)
	}
	completeCell(t, q, "w1", map[string]string{"table3": "static", "fig5": "heatmap 3"})
	merged, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := artifact.WriteBundle(dir, merged, q.Store()); err != nil {
		t.Fatal(err)
	}
	files := 0
	err = filepath.WalkDir(dir, func(file string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		files++
		onDisk, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, file)
		if status, live := get("/" + filepath.ToSlash(rel)); status != http.StatusOK || !bytes.Equal(live, onDisk) {
			t.Errorf("GET /bundle/%s: status %d, %d bytes; the bundle on disk holds %d bytes",
				filepath.ToSlash(rel), status, len(live), len(onDisk))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 5 bodies of 3 successful cells, 5 sweep-wide files, 1 scenario page, the index.
	if files != 12 {
		t.Errorf("bundle on disk has %d files, want 12", files)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	if status, live := get(""); status != http.StatusOK || !bytes.Equal(live, onDisk) {
		t.Errorf("GET /bundle: status %d; differs from index.html on disk", status)
	}
}
