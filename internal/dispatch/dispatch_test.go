package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sapsim"
	"sapsim/internal/artifact"
	"sapsim/internal/core"
	"sapsim/internal/scenario"
)

// referenceSweep runs the spec's matrix in a single process with full
// artifact fingerprints — the result every dispatched execution must match
// byte for byte.
func referenceSweep(t *testing.T, spec Spec) *scenario.SweepResult {
	t.Helper()
	m, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = 1
	m.Fingerprint = func(res *core.Result) (map[string]string, error) {
		return sapsim.ArtifactDigests(res)
	}
	ref, err := scenario.Sweep(m)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func assertIdentical(t *testing.T, got, want *scenario.SweepResult, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		for i := range want.Runs {
			if i < len(got.Runs) && !reflect.DeepEqual(got.Runs[i], want.Runs[i]) {
				t.Errorf("%s: run %d differs:\n got %+v\nwant %+v", label, i, got.Runs[i], want.Runs[i])
			}
		}
		t.Fatalf("%s: dispatched runs differ from single-process sweep", label)
	}
	if g, w := scenario.Comparative(got), scenario.Comparative(want); g != w {
		t.Fatalf("%s: comparative report differs:\n got:\n%s\nwant:\n%s", label, g, w)
	}
	if g, w := scenario.RunsCSV(got), scenario.RunsCSV(want); g != w {
		t.Fatalf("%s: runs CSV differs", label)
	}
	if g, w := scenario.ArtifactDiff(got), scenario.ArtifactDiff(want); g != w {
		t.Fatalf("%s: artifact diff differs:\n got:\n%s\nwant:\n%s", label, g, w)
	}
}

// TestDispatchedSweepByteIdentity is the acceptance guarantee: a sweep
// dispatched across two workers — one of which is killed mid-cell so its
// lease expires and the cell re-books — then crashed at the dispatcher and
// resumed from the journal, merges into a report and artifact-digest set
// byte-identical to a single-process scenario.Sweep.
func TestDispatchedSweepByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run end-to-end sweep")
	}
	spec := testSpec()
	ref := referenceSweep(t, spec)

	dir := t.TempDir()
	q, err := NewQueue(dir, spec, QueueOptions{Lease: 1200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(q)
	d.Logf = t.Logf
	srv := httptest.NewServer(d.Handler())

	ctx, cancelAll := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancelAll()

	// Worker A books one cell and dies mid-run: the kill fires when the
	// cell's first heartbeat is accepted, so it provably lands while the
	// cell is in flight no matter how fast it runs.
	victimCtx, killVictim := context.WithCancel(ctx)
	var victimJob = -1
	var victimOnce sync.Once
	var victimMu sync.Mutex
	victim := &Worker{
		Dispatcher: srv.URL,
		ID:         "victim",
		// Heartbeats far shorter than a cell, so the first is accepted
		// well before the cell completes.
		HeartbeatEvery: 2 * time.Millisecond,
		Poll:           50 * time.Millisecond,
		Hooks: WorkerHooks{
			// The abandoned job is the one whose heartbeat triggers the
			// kill: under load the victim can finish its first booking
			// before any heartbeat lands and die holding a later one.
			OnHeartbeat: func(job int) {
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

	// Wait for the victim to be killed mid-cell before starting the
	// survivor, so the kill provably happens while the cell is in flight.
	select {
	case <-victimCtx.Done():
	case <-time.After(time.Minute):
		t.Fatal("victim was never killed (no heartbeat accepted)")
	}
	<-victimDone
	victimMu.Lock()
	abandoned := victimJob
	victimMu.Unlock()
	if abandoned < 0 {
		t.Fatal("victim never booked a cell")
	}
	t.Logf("victim killed mid-run holding job %d", abandoned)

	// The survivor drains until the dispatcher "crashes": as soon as at
	// least one cell is done we stop the server and close the queue,
	// leaving the rest for the resume path.
	survivorCtx, stopSurvivor := context.WithCancel(ctx)
	survivor := &Worker{
		Dispatcher:     srv.URL,
		ID:             "survivor",
		HeartbeatEvery: 50 * time.Millisecond,
		Poll:           50 * time.Millisecond,
	}
	survivorDone := make(chan error, 1)
	go func() { survivorDone <- survivor.Run(survivorCtx) }()

	deadline := time.After(time.Minute)
	for {
		done := 0
		for _, st := range q.Snapshot() {
			if st.State == "done" || st.State == "failed" {
				done++
			}
		}
		if done >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("survivor completed nothing within a minute")
		case <-time.After(20 * time.Millisecond):
		}
	}
	stopSurvivor()
	<-survivorDone
	srv.Close()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	t.Log("dispatcher crashed; resuming from journal")

	// Resume from the journal and drain with two fresh workers over the
	// full loopback wire path.
	q2, err := Resume(dir, QueueOptions{Lease: 1200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	t.Logf("resume: %s", q2.Recovered())
	merged, err := RunLocal(ctx, q2, LocalOptions{
		Workers:        2,
		HeartbeatEvery: 50 * time.Millisecond,
		Poll:           50 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The abandoned cell completed, and not by the victim.
	snap := q2.Snapshot()
	if snap[abandoned].State != "done" {
		t.Fatalf("abandoned job %d ended %s", abandoned, snap[abandoned].State)
	}
	if snap[abandoned].Worker == "victim" {
		t.Fatalf("abandoned job %d still credited to the killed worker", abandoned)
	}

	assertIdentical(t, merged, ref, "kill+crash+resume")

	// Dedup guarantee: shared artifacts are stored exactly once — the
	// store holds one blob per distinct digest across the sweep, strictly
	// fewer than cells x artifacts (the static tables are identical in
	// every cell). Completed cells also leave their engine self-profile
	// blob behind (profiles outlive completion), so those digests count
	// toward the expected total too.
	distinct := map[string]bool{}
	total := 0
	for _, run := range merged.Runs {
		for _, d := range run.Digests {
			distinct[d] = true
			total++
		}
	}
	artifacts := len(distinct)
	for _, st := range q2.Snapshot() {
		if st.Profile != "" {
			distinct[st.Profile] = true
		}
	}
	if blobs, err := q2.Store().Len(); err != nil || blobs != len(distinct) {
		t.Fatalf("store holds %d blobs, want %d (one per distinct artifact or profile digest), err=%v",
			blobs, len(distinct), err)
	}
	if artifacts >= total {
		t.Fatalf("no cross-cell sharing: %d distinct digests of %d artifact slots", artifacts, total)
	}

	// Bundle guarantee: the materialized bundle's artifact bodies are
	// byte-identical (digest-verified) to the single-process reference —
	// every body re-hashes to the digest the reference sweep computed.
	bundleDir := t.TempDir()
	manifest, err := artifact.WriteBundle(bundleDir, merged, q2.Store())
	if err != nil {
		t.Fatal(err)
	}
	if len(manifest.Cells) != len(ref.Runs) {
		t.Fatalf("bundle has %d cells, reference has %d", len(manifest.Cells), len(ref.Runs))
	}
	for i, refRun := range ref.Runs {
		for id, wantDigest := range refRun.Digests {
			body, err := os.ReadFile(filepath.Join(bundleDir, artifact.CellDir(refRun.Key), id+".txt"))
			if err != nil {
				t.Fatalf("cell %d artifact %s not in bundle: %v", i, id, err)
			}
			if got := artifact.Digest(body); got != wantDigest {
				t.Fatalf("cell %d artifact %s: bundled body hashes to %s, reference says %s",
					i, id, got, wantDigest)
			}
		}
	}
}

// TestDispatchTwoWorkersClean: the plain path — two workers, no failures —
// also merges byte-identically, and the HTTP state/result endpoints serve
// the drained sweep.
func TestDispatchTwoWorkersClean(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run end-to-end sweep")
	}
	spec := Spec{
		Base:      testSpec().Base,
		Scenarios: []string{"baseline", "capacity-expansion"},
		Variants:  []string{"default"},
		Seeds:     []uint64{7},
	}
	ref := referenceSweep(t, spec)

	q, err := NewQueue(t.TempDir(), spec, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	d := NewDispatcher(q)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range []string{"w1", "w2"} {
		wg.Add(1)
		w := &Worker{Dispatcher: srv.URL, ID: id,
			HeartbeatEvery: 50 * time.Millisecond, Poll: 50 * time.Millisecond}
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}
	wg.Wait()

	merged, err := q.Merged()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, merged, ref, "clean two-worker run")

	// Wire-level observability: /state reports the drained sweep and
	// /result serves the merged runs.
	var state StateResponse
	if err := getJSON(srv.URL+"/state", &state); err != nil {
		t.Fatal(err)
	}
	if !state.Done || state.Drained != len(state.Jobs) || len(state.Jobs) != 2 {
		t.Fatalf("/state = done=%v drained=%d jobs=%d", state.Done, state.Drained, len(state.Jobs))
	}
	var res scenario.SweepResult
	if err := getJSON(srv.URL+"/result", &res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Runs, ref.Runs) {
		t.Fatal("/result differs from the reference sweep")
	}

	// The browsable bundle serves over the wire: the report page matches
	// the comparative of the reference, a cell's artifact body fetched
	// through the bundle tree re-hashes to the reference digest, and the
	// raw CAS endpoint serves the same bytes.
	if got := getText(t, srv.URL+"/bundle/report.txt"); got != scenario.Comparative(ref) {
		t.Fatal("/bundle/report.txt differs from the reference comparative")
	}
	if idx := getText(t, srv.URL+"/bundle"); !strings.Contains(idx, "baseline/default/seed-7") {
		t.Fatalf("/bundle index does not list the cells:\n%s", idx)
	}
	refRun := ref.Runs[0]
	body := getText(t, fmt.Sprintf("%s/bundle/cells/%s/%s/seed-%d/fig9.txt",
		srv.URL, refRun.Key.Scenario, refRun.Key.Variant, refRun.Key.Seed))
	if artifact.Digest([]byte(body)) != refRun.Digests["fig9"] {
		t.Fatal("artifact served through /bundle does not hash to the reference digest")
	}
	if raw := getText(t, srv.URL+"/artifact/"+refRun.Digests["fig9"]); raw != body {
		t.Fatal("/artifact and /bundle serve different bytes for one digest")
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return string(data)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
