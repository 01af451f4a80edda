package scrape

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sapsim/internal/dataset"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

// metricsServer serves a fixed exposition body, with a switch to start
// failing mid-recording.
type metricsServer struct {
	mu   sync.Mutex
	body string
	dead bool
}

func (m *metricsServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		http.Error(w, "gone", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprint(w, m.body)
}

func (m *metricsServer) set(body string, dead bool) {
	m.mu.Lock()
	m.body = body
	m.dead = dead
	m.mu.Unlock()
}

func TestRecorderRecordsFleet(t *testing.T) {
	disp := &metricsServer{body: "dispatch_queue_jobs{state=\"queued\"} 4\n"}
	work := &metricsServer{body: "worker_capacity 1\nworker_inflight 0\n"}
	dispSrv := httptest.NewServer(disp)
	defer dispSrv.Close()
	workSrv := httptest.NewServer(work)
	defer workSrv.Close()

	clock := time.Unix(5000, 0)
	var skipped []string
	rec, err := (&Recorder{
		Targets: []string{dispSrv.URL, workSrv.URL},
		Logf:    func(f string, a ...any) { skipped = append(skipped, fmt.Sprintf(f, a...)) },
		Now:     func() time.Time { return clock },
	}).Open(t.TempDir() + "/fleet")
	if err != nil {
		t.Fatal(err)
	}

	if n, err := rec.Round(); err != nil || n != 3 {
		t.Fatalf("round 1: %d samples, %v; want 3, nil", n, err)
	}
	clock = clock.Add(time.Second)
	disp.set("dispatch_queue_jobs{state=\"queued\"} 2\n", false)
	work.set("worker_capacity 1\nworker_inflight 1\n", false)
	if n, err := rec.Round(); err != nil || n != 3 {
		t.Fatalf("round 2: %d samples, %v; want 3, nil", n, err)
	}
	// One target dies; the round must still land for the survivor.
	clock = clock.Add(time.Second)
	disp.set("", true)
	if n, err := rec.Round(); err != nil || n != 2 {
		t.Fatalf("round 3: %d samples, %v; want 2, nil", n, err)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "status 503") {
		t.Errorf("skip log = %q, want one 503 entry", skipped)
	}
	if rec.Rounds() != 3 || rec.Samples() != 8 {
		t.Errorf("counters = %d rounds, %d samples; want 3, 8", rec.Rounds(), rec.Samples())
	}

	// The in-memory store distinguishes targets by instance label.
	workerHost := strings.TrimPrefix(workSrv.URL, "http://")
	series := rec.Store().Select("worker_inflight",
		telemetry.Matcher{Name: "instance", Value: workerHost})
	if len(series) != 1 || series[0].Len() != 3 {
		t.Fatalf("worker_inflight series = %+v, want 1 series with 3 samples", series)
	}
	if got := series[0].Sample(2); got.T != 2*sim.Second || got.V != 1 {
		t.Errorf("sample 3 = %+v, want {2s 1}", got)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderDatasetDurableAndReloadable: rows hit the disk at every
// round boundary (a killed recorder loses nothing committed), and the
// file reloads through dataset.Read into a store equivalent to the live
// one.
func TestRecorderDatasetDurableAndReloadable(t *testing.T) {
	srv := httptest.NewServer(&metricsServer{body: "m{k=\"v\"} 7\n"})
	defer srv.Close()
	dir := t.TempDir()
	clock := time.Unix(0, 0)
	r := &Recorder{Targets: []string{srv.URL}, Now: func() time.Time { return clock }}
	rec, err := r.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Round(); err != nil {
		t.Fatal(err)
	}
	// Read the file back WITHOUT closing: simulates recovering the
	// dataset after the recorder was killed.
	mid, err := os.ReadFile(filepath.Join(dir, FleetDataset))
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Read(strings.NewReader(string(mid)))
	if err != nil {
		t.Fatalf("mid-recording dataset unreadable: %v", err)
	}
	if got := st.Select("m"); len(got) != 1 || got[0].Len() != 1 {
		t.Fatalf("mid-recording store = %+v, want 1 series, 1 sample", got)
	}

	clock = clock.Add(2 * time.Second)
	if _, err := rec.Round(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-opening the same directory appends; no second header, history
	// kept.
	clock = clock.Add(time.Second)
	rec2, err := r.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec2.Round(); err != nil {
		t.Fatal(err)
	}
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, FleetDataset))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st2, err := dataset.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	series := st2.Select("m")
	if len(series) != 1 {
		t.Fatalf("reloaded series = %d, want 1", len(series))
	}
	// The second recording resumed past the file's high-water mark, so
	// all three rounds survive in order: 0s, 2s, 2s + 1ms.
	if series[0].Len() != 3 {
		t.Fatalf("reloaded %d samples, want 3", series[0].Len())
	}
	if got := series[0].Sample(2).T; got != 2*sim.Second+sim.Time(time.Millisecond) {
		t.Errorf("resumed sample at %v, want 2.001s", got)
	}
	host := strings.TrimPrefix(srv.URL, "http://")
	if series[0].Labels.Get("instance") != host {
		t.Errorf("instance label = %q, want %q", series[0].Labels.Get("instance"), host)
	}
}

func TestRecorderRunStopsOnCancel(t *testing.T) {
	srv := httptest.NewServer(&metricsServer{body: "m 1\n"})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Recorder{Targets: []string{srv.URL}, Every: time.Hour}
	dir := t.TempDir()
	if err := r.Run(ctx, dir); err != nil {
		t.Fatal(err)
	}
	// Even a canceled context gets one round: flight recorders capture
	// at least the moment they were switched on.
	data, err := os.ReadFile(filepath.Join(dir, FleetDataset))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ",1,instance=") || !strings.HasPrefix(string(data), "metric,ts_seconds,value,labels\nm,") {
		t.Errorf("dataset missing the round-0 sample:\n%s", data)
	}
}

func TestRecorderNoTargets(t *testing.T) {
	if _, err := (&Recorder{}).Open(t.TempDir()); err == nil {
		t.Fatal("recorder with no targets opened")
	}
}

// BenchmarkScrapeIngest measures the telemetry store's ingest path under
// fleet pressure: N simulated worker /metrics endpoints scraped
// concurrently into one shared store, the way the flight recorder and
// dispatchd's own scrape loop drive it. Each scrape batches through one
// Appender commit, so the contended cost is shard-lock acquisition, not
// per-sample locking.
func BenchmarkScrapeIngest(b *testing.B) {
	const workers = 8
	const seriesPerWorker = 128
	servers := make([]*httptest.Server, workers)
	for w := 0; w < workers; w++ {
		var body strings.Builder
		for i := 0; i < seriesPerWorker; i++ {
			fmt.Fprintf(&body, "worker_cell_seconds{worker=\"w%d\",cell=\"c%d\"} %d.5\n", w, i, i)
		}
		srv := httptest.NewServer(&metricsServer{body: body.String()})
		defer srv.Close()
		servers[w] = srv
	}
	store := telemetry.NewStore()
	s := &Scraper{Store: store}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i+1) * sim.Second
		var wg sync.WaitGroup
		for _, srv := range servers {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				if _, err := s.ScrapeTarget(url, now); err != nil {
					b.Error(err)
				}
			}(srv.URL + "/metrics")
		}
		wg.Wait()
	}
	b.ReportMetric(float64(workers*seriesPerWorker), "samples/op")
}
