package dispatch

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sapsim/internal/artifact"
	"sapsim/internal/fleetmetrics"
	"sapsim/internal/promql"
	"sapsim/internal/scrape"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// TestMetricsScrapePromqlRoundTrip is the dogfooding acceptance: the
// dispatcher's /metrics endpoint, scraped by the in-tree scraper into a
// telemetry store, answers promql queries about fleet health — including
// the conservation invariant the smoke script asserts mid-sweep
// (sum over states of dispatch_queue_jobs equals the matrix size).
func TestMetricsScrapePromqlRoundTrip(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute, now: clock.now}) // 4 cells
	d := NewDispatcher(q)
	reg := fleetmetrics.NewRegistry()
	d.Instrument(reg)

	// One cell done, one booked, two still queued.
	completeCell(t, q, "w1", map[string]string{"table5": "shared body", "fig9": "cell body"})
	if j, _, err := q.Book("w2", 1); err != nil || j == nil {
		t.Fatalf("Book = %+v, %v", j, err)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	store := telemetry.NewStore()
	sc := &scrape.Scraper{Store: store}
	n, err := sc.ScrapeTarget(srv.URL+"/metrics", sim.Time(0))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("scrape ingested no samples")
	}

	eng := &promql.Engine{Store: store}
	query := func(expr string) float64 {
		t.Helper()
		v, err := eng.Query(expr, sim.Time(0))
		if err != nil {
			t.Fatalf("query %q: %v", expr, err)
		}
		if len(v) != 1 {
			t.Fatalf("query %q returned %d samples, want 1", expr, len(v))
		}
		return v[0].Value
	}

	// Conservation: every cell is in exactly one state.
	if got := query("sum(dispatch_queue_jobs)"); got != 4 {
		t.Errorf("sum(dispatch_queue_jobs) = %g, want 4", got)
	}
	for state, want := range map[string]float64{
		"queued": 2, "booked": 1, "done": 1,
	} {
		expr := fmt.Sprintf("dispatch_queue_jobs{state=%q}", state)
		if got := query(expr); got != want {
			t.Errorf("%s = %g, want %g", expr, got, want)
		}
	}
	if got := query("dispatch_queue_cells"); got != 4 {
		t.Errorf("dispatch_queue_cells = %g, want 4", got)
	}
	if got := query(MetricBooks); got != 2 {
		t.Errorf("%s = %g, want 2 (completeCell + explicit Book)", MetricBooks, got)
	}
	if got := query(`dispatch_completes_total{outcome="done"}`); got != 1 {
		t.Errorf("completes done = %g, want 1", got)
	}
	// The store instruments ride the same scrape: two distinct bodies.
	if got := query(MetricStoreBlobs); got != 2 {
		t.Errorf("%s = %g, want 2", MetricStoreBlobs, got)
	}
	// Durable result appends fsync: at least the header + one result.
	if got := query(MetricJournalFsyncs); got < 1 {
		t.Errorf("%s = %g, want >= 1", MetricJournalFsyncs, got)
	}
}

// TestMetricsConcurrentScrape drives queue transitions from several
// goroutines while others scrape /metrics — the exposition-time GaugeFuncs
// take the queue lock, so this is the lock-ordering and -race check for
// the whole instrumented path.
func TestMetricsConcurrentScrape(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock.t
	}
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute, now: now})
	d := NewDispatcher(q)
	reg := fleetmetrics.NewRegistry()
	d.Instrument(reg)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	// Scrapers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			store := telemetry.NewStore()
			sc := &scrape.Scraper{Store: store}
			for j := 0; j < 20; j++ {
				if _, err := sc.ScrapeTarget(srv.URL+"/metrics", sim.Time(int64(j))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Transition drivers: book/release churn plus blob puts.
	for i := 0; i < 2; i++ {
		worker := fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				job, drained, err := q.Book(worker, 1)
				if err != nil || drained || job == nil {
					return // attempts exhausted under churn: fine
				}
				_ = q.Progress(job.ID, worker, job.Attempt)
				_ = q.Release(job.ID, worker, job.Attempt, "churn")
				body := []byte(fmt.Sprintf("blob %s %d", worker, j))
				if _, err := q.PutArtifact(artifact.Digest(body), body); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{MetricQueueJobs, MetricBooks, MetricReleases, MetricStoreBlobs} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestResumeSurfacesRemoveFailures: a damaged blob the heal cannot delete
// (here: the blob path is occupied by a non-empty directory) must not be
// silently swallowed — it shadows the re-upload the re-queued cell will
// attempt. Resume must report it in Recovered() and the store's
// remove-failure counter must tick.
func TestResumeSurfacesRemoveFailures(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	q, err := NewQueue(dir, testSpec(), QueueOptions{Lease: time.Minute, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	body := "fig9 body this cell recorded"
	completeCell(t, q, "w1", map[string]string{"fig9": body})
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Replace the blob with a non-empty directory: Verify fails (size
	// drifted), and os.Remove cannot delete it.
	digest := artifact.Digest([]byte(body))
	blobPath := filepath.Join(dir, artifact.DirName, digest[:2], digest)
	if err := os.Remove(blobPath); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(blobPath, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blobPath, "pin"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(dir, QueueOptions{Lease: time.Minute, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if !strings.Contains(r.Recovered(), "could NOT be removed") {
		t.Errorf("Recovered() = %q, want a remove-failure report", r.Recovered())
	}
	if r.Snapshot()[0].State != "queued" {
		t.Errorf("cell with damaged blob resumed as %s, want queued", r.Snapshot()[0].State)
	}
	if got := r.Store().Stats().RemoveFailures; got < 1 {
		t.Errorf("store RemoveFailures = %d, want >= 1", got)
	}
}

// TestWriteJSONCountsEncodeErrors: a response body that fails to encode
// used to vanish (`_ = json.NewEncoder(w).Encode(v)`); now it logs and
// ticks dispatch_response_encode_errors_total.
func TestWriteJSONCountsEncodeErrors(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute, now: clock.now})
	d := NewDispatcher(q)
	reg := fleetmetrics.NewRegistry()
	d.Instrument(reg)
	var logged []string
	d.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }

	d.writeJSON(httptest.NewRecorder(), make(chan int)) // channels cannot marshal

	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), MetricEncodeErrors+" 1") {
		t.Errorf("exposition does not show one encode error:\n%s", buf.String())
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "encoding response") {
		t.Errorf("encode failure not logged: %v", logged)
	}
}
