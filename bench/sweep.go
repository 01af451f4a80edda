package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sapsim"
	"sapsim/internal/core"
	"sapsim/internal/dispatch"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

const (
	sweepWorkers = 2
	// sweepHeartbeat gives a ~100 ms cell the three or four heartbeats a
	// 7 s production cell sees at the worker's 2 s default, which is what
	// makes it post /progress and upload snapshots at all.
	sweepHeartbeat = 25 * time.Millisecond
	// sweepPoll scales the idle worker's re-poll the same way. At the
	// 500 ms default the worker that finds nothing free near the end
	// sleeps through five cell lengths, and a sweep's wall would vary by
	// half a second with the order its last two cells happen to finish in.
	sweepPoll = 25 * time.Millisecond
)

// sweepWorkload drains one matrix of short cells through the dispatcher.
type sweepWorkload struct {
	seed   uint64
	sz     sizes
	spec   dispatch.Spec
	cells  int
	ref    fingerprint // the in-process scenario.Sweep of the same matrix
	traced *drained    // the traced rep, kept on disk for the probes
}

// drained is one dispatched sweep and what it left behind.
type drained struct {
	dir    string
	queue  *dispatch.Queue
	merged *scenario.SweepResult
	wall   time.Duration
	http   *httpStats
}

func newSweepDispatch(seed uint64, sz sizes) *sweepWorkload {
	return &sweepWorkload{seed: seed, sz: sz}
}

func (w *sweepWorkload) setupReps() int         { return 3 }
func (w *sweepWorkload) minReps() int           { return 2 }
func (w *sweepWorkload) reference() fingerprint { return w.ref }

// remove closes the journal and deletes the queue directory.
func (d *drained) remove() error {
	return errors.Join(d.queue.Close(), os.RemoveAll(d.dir))
}

func (w *sweepWorkload) close() {
	if w.traced != nil {
		w.traced.remove()
		w.traced = nil
	}
}

// setup expands the matrix and runs it in-process: the reference every
// dispatched rep must reproduce byte for byte.
func (w *sweepWorkload) setup() error {
	base := sapsim.DefaultConfig(w.seed)
	base.Scale, base.VMs, base.Days = 0.01, 200, 6
	base.SampleEvery, base.VMSampleEvery = sim.Hour, 6*sim.Hour
	scenarios, variants := "", "default,no-drs"
	seeds := fmt.Sprintf("%d,%d", w.seed, w.seed+1)
	if w.sz.short {
		base.VMs, base.Days = 150, 2
		scenarios, variants, seeds = "baseline,host-failures", "default", fmt.Sprint(w.seed)
	}
	spec, err := dispatch.ParseSpec(base, scenarios, variants, seeds, 0)
	if err != nil {
		return err
	}
	w.spec, w.cells = spec, len(spec.Keys())
	ref, err := w.sweepInProcess(sweepWorkers)
	if err != nil {
		return err
	}
	w.ref = sweepFingerprint(ref)
	return nil
}

func (w *sweepWorkload) sweepInProcess(workers int) (*scenario.SweepResult, error) {
	m, err := w.spec.Matrix()
	if err != nil {
		return nil, err
	}
	m.Workers = workers
	m.Fingerprint = sapsim.ArtifactDigests
	return scenario.Sweep(m)
}

// sweepFingerprint has one entry per cell (metrics row, error and artifact
// digests), one for the runs CSV as a whole, and one for the terminal
// states.
func sweepFingerprint(sr *scenario.SweepResult) fingerprint {
	fp := fingerprint{"runs.csv": digest(scenario.RunsCSV(sr))}
	done := 0
	for _, run := range sr.Runs {
		ids := make([]string, 0, len(run.Digests))
		for id := range run.Digests {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var b strings.Builder
		fmt.Fprintf(&b, "%+v err=%q", run.Metrics, run.Err)
		for _, id := range ids {
			fmt.Fprintf(&b, " %s=%s", id, run.Digests[id])
		}
		fp[fmt.Sprintf("cell %s/%s/%d", run.Key.Scenario, run.Key.Variant, run.Key.Seed)] = digest(b.String())
		if run.Err == "" && len(run.Digests) > 0 {
			done++
		}
	}
	fp["states"] = fmt.Sprintf("done=%d of %d", done, len(sr.Runs))
	return fp
}

func (w *sweepWorkload) rep(rec *recorder, root, id int) (repOut, error) {
	dir, err := os.MkdirTemp(w.sz.scratch, "queue-")
	if err != nil {
		return repOut{}, err
	}
	// The probes read the last traced rep's journal and store, so a traced
	// rep stays on disk until the next one has replaced it. Deleting four
	// hundred blobs takes tens of milliseconds: it waits for the check,
	// when the clock has stopped.
	var d, stale *drained
	if rec == nil {
		d, err = w.runLocal(dir)
		stale = d
	} else if d, err = w.drainTraced(rec, root, id, dir, false); err == nil {
		stale, w.traced = w.traced, d
	}
	if err != nil {
		return repOut{}, err
	}
	return repOut{ops: w.cells, held: d, check: func() (fingerprint, error) {
		fp := sweepFingerprint(d.merged)
		done := 0
		for _, job := range d.queue.Snapshot() {
			if job.State == dispatch.JobDone.String() {
				done++
			}
		}
		fp["states"] = fmt.Sprintf("done=%d of %d", done, w.cells)
		if stale == nil {
			return fp, nil
		}
		return fp, stale.remove()
	}}, nil
}

// runLocal is the untraced rep: dispatch.RunLocal exactly as cmd/sweep
// calls it, timed from NewQueue to the merged result.
func (w *sweepWorkload) runLocal(dir string) (*drained, error) {
	start := time.Now()
	q, err := dispatch.NewQueue(dir, w.spec, dispatch.QueueOptions{})
	if err != nil {
		return nil, err
	}
	merged, err := dispatch.RunLocal(context.Background(), q,
		dispatch.LocalOptions{Workers: sweepWorkers, HeartbeatEvery: sweepHeartbeat, Poll: sweepPoll})
	wall := time.Since(start)
	if err != nil {
		q.Close()
		return nil, err
	}
	// Each rep's server listens on a port of its own, so the workers'
	// keep-alive connections to it are dead weight on the live heap.
	http.DefaultClient.CloseIdleConnections()
	return &drained{dir: dir, queue: q, merged: merged, wall: wall}, nil
}

// drainTraced does what RunLocal does, wiring the dispatcher and the
// workers itself so that each worker's HTTP client can count and time its
// requests.
func (w *sweepWorkload) drainTraced(rec *recorder, root, rep int, dir string, disableSnapshots bool) (*drained, error) {
	start := time.Now()
	id := rec.begin("dispatch.new_queue", root, rep, 0)
	q, err := dispatch.NewQueue(dir, w.spec, dispatch.QueueOptions{})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	id = rec.begin("dispatch.serve", root, rep, 0)
	disp := dispatch.NewDispatcher(q)
	addr, err := disp.Serve(ctx, "127.0.0.1:0")
	rec.end(id)
	if err != nil {
		q.Close()
		return nil, err
	}

	drain := rec.begin("dispatch.drain", root, rep, 0)
	stats := &httpStats{byKind: map[string]*httpCount{}}
	errs := make(chan error, sweepWorkers)
	for i := 0; i < sweepWorkers; i++ {
		worker := &dispatch.Worker{
			Dispatcher:       "http://" + addr,
			ID:               fmt.Sprintf("bench-%d", i),
			HeartbeatEvery:   sweepHeartbeat,
			Poll:             sweepPoll,
			DisableSnapshots: disableSnapshots,
			Client: &http.Client{Timeout: 10 * time.Second, Transport: &countingTransport{
				base: http.DefaultTransport, stats: stats, rec: rec, parent: drain, rep: rep, lane: i + 1}},
		}
		go func() { errs <- worker.Run(ctx) }()
	}
	var failed []error
	for i := 0; i < sweepWorkers; i++ {
		if err := <-errs; err != nil {
			failed = append(failed, err)
		}
	}
	rec.end(drain)
	if len(failed) > 0 {
		q.Close()
		return nil, errors.Join(failed...)
	}

	id = rec.begin("dispatch.merged", root, rep, 0)
	merged, err := q.Merged()
	rec.end(id)
	if err != nil {
		q.Close()
		return nil, err
	}
	wall := time.Since(start)
	http.DefaultClient.CloseIdleConnections()
	return &drained{dir: dir, queue: q, merged: merged, wall: wall, http: stats}, nil
}

// httpCount is the requests of one kind, such as "PUT /artifact".
type httpCount struct {
	n    int
	wall time.Duration
}

type httpStats struct {
	mu     sync.Mutex
	byKind map[string]*httpCount
}

func (s *httpStats) kind(k string) httpCount {
	if c := s.byKind[k]; c != nil {
		return *c
	}
	return httpCount{}
}

func (s *httpStats) total() httpCount {
	var sum httpCount
	for _, c := range s.byKind {
		sum.n += c.n
		sum.wall += c.wall
	}
	return sum
}

// countingTransport times every round trip of one worker.
type countingTransport struct {
	base              http.RoundTripper
	stats             *httpStats
	rec               *recorder
	parent, rep, lane int
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	// "/artifact/<digest>" and "/progress" both reduce to their first segment.
	path := req.URL.Path
	if i := strings.Index(path[1:], "/"); i >= 0 {
		path = path[:i+1]
	}
	kind := req.Method + " " + path
	id := t.rec.begin("http "+kind, t.parent, t.rep, t.lane)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	wall := time.Since(start)
	t.rec.end(id)
	t.stats.mu.Lock()
	c := t.stats.byKind[kind]
	if c == nil {
		c = &httpCount{}
		t.stats.byKind[kind] = c
	}
	c.n++
	c.wall += wall
	t.stats.mu.Unlock()
	return resp, err
}

func ms(d time.Duration) float64 { return 1e3 * d.Seconds() }

func (w *sweepWorkload) layers(rec *recorder) (map[string]float64, map[int][]ledgerRow, error) {
	layers := map[string]float64{}
	cells := float64(w.cells)
	d := w.traced

	// dispatch and artifact: what the traced rep sent and left on disk.
	all := d.http.total()
	put := d.http.kind("PUT /artifact")
	layers["dispatch.cell_ms"] = ms(d.wall) / cells
	layers["dispatch.http.requests_per_cell"] = float64(all.n) / cells
	layers["dispatch.http.ms_per_cell"] = ms(all.wall) / cells
	layers["dispatch.http.progress.count"] = float64(d.http.kind("POST /progress").n)
	layers["dispatch.http.artifact_head.count"] = float64(d.http.kind("HEAD /artifact").n)
	layers["dispatch.http.artifact_put.count"] = float64(put.n)
	layers["dispatch.http.artifact_put.ms"] = ms(put.wall)

	journal, err := os.ReadFile(filepath.Join(d.dir, dispatch.JournalName))
	if err != nil {
		return nil, nil, err
	}
	layers["dispatch.journal.bytes_per_cell"] = float64(len(journal)) / cells
	layers["dispatch.journal.records_per_cell"] = float64(bytes.Count(journal, []byte("\n"))) / cells

	var blobs, blobBytes int64
	err = filepath.WalkDir(filepath.Join(d.dir, "cas"), func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		blobs++
		blobBytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	store := d.queue.Store().Stats()
	if store.Blobs != blobs || store.Bytes != blobBytes {
		return nil, nil, fmt.Errorf("artifact store counts %d blobs / %d bytes, its directory holds %d / %d",
			store.Blobs, store.Bytes, blobs, blobBytes)
	}
	layers["artifact.cas.blobs"] = float64(blobs)
	layers["artifact.cas.bytes"] = float64(blobBytes)
	layers["artifact.cas.stored_per_cell"] = float64(store.PutStored) / cells
	layers["artifact.cas.removed"] = float64(store.Removed)

	wall, err := rec.probe("dispatch.merged", func() error {
		_, err := d.queue.Merged()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	layers["dispatch.merge_ms"] = ms(wall)

	// dispatch.Resume reads the journal the rep wrote and audits the store.
	if err := d.queue.Close(); err != nil {
		return nil, nil, err
	}
	var resumed *dispatch.Queue
	wall, err = rec.probe("dispatch.resume", func() (err error) {
		resumed, err = dispatch.Resume(d.dir, dispatch.QueueOptions{})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	layers["dispatch.resume_ms"] = ms(wall)
	drainedOnDisk := resumed.Done()
	if err := resumed.Close(); err != nil {
		return nil, nil, err
	}
	if !drainedOnDisk {
		return nil, nil, errors.New("dispatch.Resume of a drained journal re-queued cells")
	}

	// The same sweep with snapshots off, then with no dispatcher at all:
	// each difference is what the layer above costs per cell.
	dir, err := os.MkdirTemp(w.sz.scratch, "queue-")
	if err != nil {
		return nil, nil, err
	}
	var off *drained
	if _, err := rec.probe("dispatch.drain snapshots=off", func() (err error) {
		off, err = w.drainTraced(nil, -1, -1, dir, true)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := off.remove(); err != nil {
		return nil, nil, err
	}
	parallel, err := rec.probe("scenario.sweep workers=2", func() error {
		_, err := w.sweepInProcess(sweepWorkers)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	serial, err := rec.probe("scenario.sweep workers=1", func() error {
		_, err := w.sweepInProcess(1)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	layers["snapshot.overhead.cell_ms"] = ms(d.wall-off.wall) / cells
	layers["dispatch.overhead.cell_ms"] = ms(off.wall-parallel) / cells
	layers["scenario.sweep.cell_ms"] = ms(parallel) / cells
	layers["scenario.sweep.serial_cell_ms"] = ms(serial) / cells
	layers["scenario.sweep.parallel_eff_pct"] = 100 * serial.Seconds() / (sweepWorkers * parallel.Seconds())

	cfg, err := w.spec.CellConfig(w.spec.Keys()[0])
	if err != nil {
		return nil, nil, err
	}
	return layers, nil, snapshotLayers(rec, cfg, layers)
}

// snapshotLayers takes one cell to its midpoint and times the snapshot's
// life from there: capture, encode, decode, and a session resumed from it.
// Both the original and the resumed session then finish, and must agree.
func snapshotLayers(rec *recorder, cfg core.Config, layers map[string]float64) error {
	s, err := sapsim.NewSession(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.Step(int(cfg.Horizon()/cfg.SampleEvery) / 2); err != nil {
		return err
	}

	const rounds = 5
	var (
		capture, encode, decode, resume []float64
		snap, back                      *sapsim.Snapshot
		blob                            []byte
		resumed                         *sapsim.Session
	)
	steps := []struct {
		name string
		into *[]float64
		call func() error
	}{
		{"snapshot.capture", &capture, func() (err error) { snap, err = s.Snapshot(); return }},
		{"snapshot.encode", &encode, func() (err error) { blob, err = sapsim.EncodeSnapshotBytes(snap); return }},
		{"snapshot.decode", &decode, func() (err error) { back, err = sapsim.DecodeSnapshotBytes(blob); return }},
		{"snapshot.resume_build", &resume, func() (err error) {
			if resumed != nil {
				resumed.Close()
			}
			if resumed, err = sapsim.ResumeFromSnapshot(cfg, back); err != nil {
				return err
			}
			return resumed.Build()
		}},
	}
	for i := 0; i < rounds; i++ {
		for _, step := range steps {
			wall, err := rec.probe(step.name, step.call)
			if err != nil {
				return fmt.Errorf("%s: %w", step.name, err)
			}
			*step.into = append(*step.into, ms(wall))
		}
	}
	defer resumed.Close()
	layers["snapshot.capture_ms"] = median(capture)
	layers["snapshot.encode_ms"] = median(encode)
	layers["snapshot.decode_ms"] = median(decode)
	layers["snapshot.resume_build_ms"] = median(resume)
	layers["snapshot.bytes"] = float64(len(blob))

	var digests [2]map[string]string
	for i, session := range []*sapsim.Session{s, resumed} {
		if err := session.RunToCompletion(); err != nil {
			return err
		}
		res, err := session.Result()
		if err != nil {
			return err
		}
		if digests[i], err = sapsim.ArtifactDigests(res); err != nil {
			return err
		}
	}
	for id, want := range digests[0] {
		if digests[1][id] != want {
			return fmt.Errorf("snapshot: resumed cell's %s differs from the uninterrupted cell's", id)
		}
	}
	return nil
}
