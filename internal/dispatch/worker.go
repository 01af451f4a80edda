package dispatch

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"sapsim"
	"sapsim/internal/artifact"
	"sapsim/internal/fleetmetrics"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
	"sapsim/internal/trace"
)

// errDrained signals the dispatcher reported the sweep complete (410).
var errDrained = errors.New("dispatch: sweep drained")

// errBlobRefused marks a blob PUT the dispatcher answered with a 4xx: it
// read the request and will not take these bytes (over its body cap, hash
// mismatch), so — unlike a transport error or a 5xx — re-sending them cannot
// succeed.
var errBlobRefused = errors.New("dispatch: blob refused")

// abandonBackoff is how long a slot cools down after its cell is abandoned
// and released. The released cell re-books immediately — on another worker;
// the cool-down keeps a worker with a persistently failing path (say, its
// completions rejected) from re-booking its own releases in a tight loop and
// burning the cell's whole attempt budget in milliseconds.
const abandonBackoff = 5 * time.Second

// WorkerHooks observe a worker's lifecycle; tests use them to kill a
// worker mid-cell deterministically.
type WorkerHooks struct {
	// OnHeartbeat fires after each accepted heartbeat.
	OnHeartbeat func(job int)
	// OnSnapshot fires after an engine snapshot is accepted by the
	// dispatcher (blob uploaded, pointer journaled), at most once per
	// heartbeat and before that heartbeat's OnHeartbeat. The snapshot is of
	// mid-run state, and the cell has not completed: the heartbeat loop
	// stops before the completion posts.
	OnSnapshot func(job int, ref BlobRef)
	// OnResume fires when a booked cell warm-resumes from a previous
	// holder's snapshot instead of starting at t=0.
	OnResume func(job int, at sim.Time)
}

// Worker is the simd half of the dispatcher split: a stateless loop that
// books cells, strides each through the sapsim Session in steps of the
// sweep's CheckpointEvery, renews the lease with heartbeats that each carry
// at most one mid-run snapshot — captured at a stride boundary only once the
// previous one has shipped — and completes with one request that carries
// the cell's metrics, digests, artifact bodies and engine profile. Workers
// hold no sweep state — kill one at any point and its cells re-book
// elsewhere after the lease expires.
type Worker struct {
	// Dispatcher is the base URL (http://host:port).
	Dispatcher string
	// ID names the worker in bookings and the journal. Defaults to
	// host:pid.
	ID string
	// HeartbeatEvery is the wall-clock heartbeat cadence (default 2s; the
	// lease must comfortably exceed it).
	HeartbeatEvery time.Duration
	// Poll is the idle re-poll interval when no cell is free (default
	// 500ms). It is also the starting point of the book-failure backoff.
	Poll time.Duration
	// Concurrency is how many cells run at once (default 1). It is
	// advertised to the queue as the worker's booking capacity, so an
	// N-job worker holds up to N concurrent leases and drains the matrix
	// proportionally faster.
	Concurrency int
	// Client overrides the HTTP client.
	Client *http.Client
	// Logf, when set, receives one line per cell transition.
	Logf func(format string, args ...any)
	// Hooks observe the lifecycle (tests).
	Hooks WorkerHooks
	// DisableSnapshots turns off mid-run snapshot capture and warm
	// resume: cells always start at t=0, run in one RunToCompletion, and
	// upload no snapshot blobs (simworker -snapshots=false). Correctness is
	// unaffected — snapshots only save the re-run prefix after a worker
	// death.
	DisableSnapshots bool
	// Metrics, when set, receives the worker's fleet metrics (in-flight
	// vs capacity, per-cell wall time, heartbeat RTT, book failures,
	// engine phases) — simworker serves it on its -metrics listener.
	Metrics *fleetmetrics.Registry

	// m holds the instruments: nil ones, whose methods are no-ops, while
	// Metrics is unset.
	m workerMetrics
	// bookBackoffMax caps the exponential backoff between failed /book
	// attempts (default 15s). On transient dispatcher errors the retry
	// delay doubles from Poll up to this cap, with jitter, and resets the
	// moment a book succeeds — so a fleet of workers facing a restarted
	// dispatcher re-books spread out instead of stampeding in lockstep.
	// It, hostname, sleep, and randFloat are test seams: identity-collision
	// and backoff tests substitute deterministic implementations.
	bookBackoffMax time.Duration
	hostname       func() (string, error)
	sleep          func(ctx context.Context, d time.Duration) error
	randFloat      func() float64
}

func (w *Worker) fill() {
	if w.hostname == nil {
		w.hostname = os.Hostname
	}
	if w.sleep == nil {
		w.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	if w.randFloat == nil {
		w.randFloat = rand.Float64
	}
	if w.ID == "" {
		host, err := w.hostname()
		if err != nil || host == "" {
			// The queue keys leases and attempt nonces by worker ID, so two
			// workers must never share one. A fixed "worker" fallback would
			// collide the moment two hostname-less containers with PID 1
			// joined the same sweep — draw a random suffix instead.
			var b [4]byte
			if _, rerr := crand.Read(b[:]); rerr != nil {
				b = [4]byte{byte(os.Getpid()), byte(os.Getpid() >> 8), byte(os.Getpid() >> 16), byte(os.Getpid() >> 24)}
			}
			host = fmt.Sprintf("anon-%x", b)
		}
		w.ID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if w.HeartbeatEvery <= 0 {
		w.HeartbeatEvery = 2 * time.Second
	}
	if w.Poll <= 0 {
		w.Poll = 500 * time.Millisecond
	}
	if w.bookBackoffMax <= 0 {
		w.bookBackoffMax = 15 * time.Second
	}
	if w.bookBackoffMax < w.Poll {
		w.bookBackoffMax = w.Poll
	}
	if w.Concurrency <= 0 {
		w.Concurrency = 1
	}
	if w.Client == nil {
		w.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if w.Metrics != nil && w.m.reg == nil {
		w.m = newWorkerMetrics(w.Metrics, w.ID, w.Concurrency)
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run books and executes cells until the dispatcher reports the sweep
// drained (returns nil) or ctx is canceled (returns ctx.Err()). All
// bookings happen under one worker ID with Concurrency advertised as
// capacity; up to that many cells run at once. Correctness against
// zombies — a cell whose lease expired and was re-booked, possibly back
// to this very worker — rests on the per-booking Attempt nonce every
// heartbeat and completion carries.
func (w *Worker) Run(ctx context.Context) error {
	w.fill()
	slots := make(chan struct{}, w.Concurrency)
	var wg sync.WaitGroup
	defer wg.Wait()
	backoff := w.Poll
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		booked, err := w.book(ctx, w.ID)
		switch {
		case errors.Is(err, errDrained):
			<-slots
			return nil
		case err != nil:
			// Transient dispatcher unavailability: jittered exponential
			// backoff, doubling from Poll up to bookBackoffMax. The jitter
			// (uniform over [backoff/2, backoff)) decorrelates a fleet whose
			// workers all saw the same dispatcher restart — without it they
			// retry in lockstep and the recovering dispatcher eats a
			// thundering herd at every interval.
			w.m.bookFails.Inc()
			w.logf("worker %s: book: %v (retry in ~%s)", w.ID, err, backoff)
			<-slots
			delay := backoff/2 + time.Duration(w.randFloat()*float64(backoff/2))
			if err := w.sleep(ctx, delay); err != nil {
				return err
			}
			if backoff *= 2; backoff > w.bookBackoffMax {
				backoff = w.bookBackoffMax
			}
			continue
		case booked == nil:
			// The dispatcher answered (nothing free right now): it is
			// healthy, so poll at the normal cadence and reset the backoff.
			backoff = w.Poll
			w.m.booksEmpty.Inc()
			<-slots
			if err := w.sleep(ctx, w.Poll); err != nil {
				return err
			}
			continue
		}
		backoff = w.Poll
		w.m.booksBooked.Inc()
		wg.Add(1)
		go func(booked *BookResponse) {
			defer wg.Done()
			defer func() { <-slots }()
			w.m.inflight.Inc()
			start := time.Now()
			err := w.runCell(ctx, w.ID, booked)
			w.m.inflight.Dec()
			w.m.cellSecs.Observe(time.Since(start).Seconds())
			if err != nil && ctx.Err() == nil {
				// Abandon the cell, handing the lease back so it re-books
				// immediately — otherwise the queue counts it against this
				// worker's capacity until the lease times out, idling a
				// slot. Best-effort: if the lease is already lost (409) or
				// the dispatcher is unreachable, expiry re-books it anyway.
				w.m.abandoned.Inc()
				w.logf("worker %s: job %d abandoned: %v", w.ID, booked.Job, err)
				var ok struct{ OK bool }
				_, _ = w.post(ctx, "/release",
					ReleaseRequest{Worker: w.ID, Job: booked.Job, Attempt: booked.Attempt,
						Reason: err.Error()}, &ok)
				// Cool the slot down so a worker-local failure doesn't
				// re-book its own release in a tight loop; healthy workers
				// grab the cell meanwhile.
				_ = w.sleep(ctx, abandonBackoff)
			} else if err == nil {
				w.m.completed.Inc()
			}
		}(booked)
	}
}

// book asks for the next cell: (nil, nil) means nothing free right now.
func (w *Worker) book(ctx context.Context, id string) (*BookResponse, error) {
	var resp BookResponse
	status, err := w.post(ctx, "/book", BookRequest{Worker: id, Capacity: w.Concurrency}, &resp)
	switch {
	case err != nil:
		return nil, err
	case status == http.StatusGone:
		return nil, errDrained
	case status == http.StatusNoContent:
		return nil, nil
	case status != http.StatusOK:
		return nil, fmt.Errorf("dispatch: book: status %d", status)
	}
	return &resp, nil
}

// runCell executes one booked cell through a sapsim Session, heartbeating
// at HeartbeatEvery, and completes it with its artifact bodies and profile.
func (w *Worker) runCell(ctx context.Context, id string, booked *BookResponse) error {
	key := booked.Key
	spec := Spec{Base: booked.Base}
	spec.Base.Seed = key.Seed
	cfg, err := spec.CellConfig(key)
	if err != nil {
		// The cell cannot be built on this worker (unknown scenario or
		// variant name — version skew): report it as a failed run.
		return w.complete(ctx, booked, CompleteRequest{Worker: id, Run: RunResult{Err: err.Error()}})
	}

	w.logf("worker %s: job %d (%s/%s seed %d) starting", id, booked.Job,
		key.Scenario, key.Variant, key.Seed)

	// Cell context: canceled when the dispatcher declares the lease lost,
	// so the engine unwinds mid-tick instead of wasting a dead cell.
	cellCtx, cancelCell := context.WithCancelCause(ctx)
	defer cancelCell(nil)
	// orStale reports err as ErrStale when the heartbeat loop canceled the
	// cell for a lost lease — whatever failed then failed because of that.
	orStale := func(err error) error {
		if err != nil && errors.Is(context.Cause(cellCtx), ErrStale) {
			return fmt.Errorf("job %d: %w", booked.Job, ErrStale)
		}
		return err
	}

	// pending is the one snapshot awaiting shipment. The run loop captures
	// into it at a stride boundary only while it is nil; the heartbeat loop
	// encodes and ships it, and clears it once the pointer is journaled (or
	// never can be: the encode failed, the dispatcher refused the blob) —
	// which is what asks the run loop for the next. So nothing is captured
	// faster than heartbeats can ship, and nothing is encoded that is not
	// shipped.
	var (
		mu      sync.Mutex
		pending *sapsim.Snapshot
	)
	clearPending := func() {
		mu.Lock()
		pending = nil
		mu.Unlock()
	}
	// Span collection: engine phases and snapshot work become spans
	// parented under the booking's attempt span, shipped on heartbeats and
	// the completion. The trace and attempt IDs are the ones
	// TraceFromJournal derives from the journal, so the two halves join up
	// without any coordination. The builder is guarded by mu — the
	// session's event-dispatch goroutine, the heartbeat loop, and this
	// goroutine all touch it.
	attempt := attemptSpanID(booked.Job, booked.Attempt)
	spanb := trace.NewBuilder(CellTraceID(key), attempt, attempt)
	addSpan := func(name string, start, end time.Time, attrs map[string]string) {
		mu.Lock()
		spanb.Add(name, start, end, attrs)
		mu.Unlock()
	}
	drainSpans := func() []trace.Span {
		mu.Lock()
		defer mu.Unlock()
		return spanb.Drain()
	}
	requeueSpans := func(batch []trace.Span) {
		if len(batch) == 0 {
			return
		}
		mu.Lock()
		spanb.Requeue(batch)
		mu.Unlock()
	}
	observe := sapsim.WithObserverFunc(func(ev sapsim.SessionEvent) {
		if c, ok := ev.(sapsim.SessionPhase); ok {
			addSpan(c.Name, c.Start, c.End, map[string]string{
				"sim_from": fmt.Sprint(c.FromSim), "sim_to": fmt.Sprint(c.ToSim)})
		}
	})
	buildSession := func(snap *sapsim.Snapshot) (*sapsim.Session, error) {
		opts := []sapsim.Option{sapsim.WithContext(cellCtx), observe}
		if snap != nil {
			return sapsim.ResumeFromSnapshot(cfg, snap, opts...)
		}
		return sapsim.NewSession(cfg, opts...)
	}

	// Warm resume: a previous holder of this cell uploaded a snapshot
	// before dying. Every failure on this path — fetch, decode, config
	// mismatch at build — degrades to the cold t=0 start; a snapshot saves
	// the replayed prefix, it is never a correctness dependency.
	var session *sapsim.Session
	if booked.Snapshot != nil && !w.DisableSnapshots {
		if snap, err := w.fetchSnapshot(cellCtx, booked.Snapshot); err != nil {
			w.logf("worker %s: job %d snapshot %s unusable (%v); cold restart from t=0",
				id, booked.Job, booked.Snapshot.Digest, err)
		} else if s, err := buildSession(snap); err != nil {
			w.logf("worker %s: job %d snapshot session (%v); cold restart from t=0", id, booked.Job, err)
		} else if err := s.Build(); err != nil {
			s.Close()
			w.logf("worker %s: job %d snapshot restore (%v); cold restart from t=0", id, booked.Job, err)
		} else {
			session = s
			w.logf("worker %s: job %d resuming from snapshot at %v", id, booked.Job, snap.At)
			if w.Hooks.OnResume != nil {
				w.Hooks.OnResume(booked.Job, snap.At)
			}
		}
	}
	if session == nil {
		s, err := buildSession(nil)
		if err != nil {
			return w.complete(ctx, booked, CompleteRequest{Worker: id, Run: RunResult{Err: err.Error()},
				Spans: drainSpans()})
		}
		session = s
	}
	defer session.Close()

	// Heartbeat loop: renew the lease even before the first snapshot, and
	// keep renewing through artifact rendering — the post-simulation work
	// can outlast a lease on a slow box, and a cell that expires there
	// re-runs from scratch just to hit the same wall.
	// The loop is stopped right before the completion posts: a heartbeat
	// racing an accepted /complete would see 409 on the done job and
	// cancel the cell context out from under the in-flight response,
	// misreporting a finished cell as abandoned.
	hbDone := make(chan struct{})
	var hbWG sync.WaitGroup
	var hbOnce sync.Once
	stopHeartbeat := func() {
		hbOnce.Do(func() {
			close(hbDone)
			hbWG.Wait()
		})
	}
	defer stopHeartbeat()
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(w.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-hbDone:
				return
			case <-cellCtx.Done():
				return
			case <-t.C:
			}
			mu.Lock()
			snap := pending
			mu.Unlock()
			// Encode the pending snapshot here, off the engine goroutine, and
			// ship the blob before reporting its pointer: the dispatcher
			// rejects a pointer whose blob is not in the store. A transport
			// failure is transient — the snapshot stays pending and the next
			// heartbeat encodes and tries it again; a blob the dispatcher
			// refused (over its body cap, say) is dropped, since the same
			// bytes would be refused at every heartbeat until the cell ends.
			var snapRef *BlobRef
			if snap != nil {
				encStart := time.Now()
				if blob, err := sapsim.EncodeSnapshotBytes(snap); err != nil {
					w.logf("worker %s: job %d snapshot encode: %v", id, booked.Job, err)
					clearPending()
				} else {
					addSpan("snapshot-encode", encStart, time.Now(), nil)
					ref := BlobRef{Kind: BlobSnapshot, Digest: artifact.Digest(blob), At: snap.At}
					upStart := time.Now()
					if err := w.uploadBlob(cellCtx, ref.Digest, blob); err != nil {
						w.logf("worker %s: job %d snapshot upload: %v", id, booked.Job, err)
						if errors.Is(err, errBlobRefused) {
							clearPending()
						}
					} else {
						addSpan("snapshot-upload", upStart, time.Now(), nil)
						snapRef = &ref
					}
				}
			}
			spanBatch := drainSpans()
			var ok struct{ OK bool }
			hbStart := time.Now()
			status, err := w.post(cellCtx, "/progress",
				ProgressRequest{Worker: id, Job: booked.Job, Attempt: booked.Attempt,
					Snapshot: snapRef, Spans: spanBatch}, &ok)
			if err != nil {
				// Transient; the lease outlives several heartbeats. The spans
				// go back in the buffer — the next report re-ships them.
				requeueSpans(spanBatch)
				continue
			}
			w.m.heartbeat.Observe(time.Since(hbStart).Seconds())
			if status == http.StatusConflict {
				cancelCell(ErrStale)
				return
			}
			if status != http.StatusOK {
				// Rejected heartbeat (bad request, server error): the lease
				// is not renewing. Log it — if this persists the lease
				// expires, the cell re-books elsewhere, and the next
				// heartbeat's 409 cancels this run.
				requeueSpans(spanBatch)
				w.logf("worker %s: job %d heartbeat rejected: status %d", id, booked.Job, status)
				continue
			}
			// The pointer is journaled; later heartbeats renew the lease
			// bare until the run loop captures a fresh snapshot, keeping the
			// WAL proportional to state changes, not wall time.
			if snapRef != nil {
				clearPending()
				if w.Hooks.OnSnapshot != nil {
					w.Hooks.OnSnapshot(booked.Job, *snapRef)
				}
			}
			if w.Hooks.OnHeartbeat != nil {
				w.Hooks.OnHeartbeat(booked.Job)
			}
		}
	}()

	// Stride the run in CheckpointEvery-sized steps (whole SampleEvery
	// ticks, counted from the build or resume point): between steps the
	// engine is idle, the only place a consistent snapshot can be captured.
	drive := session.RunToCompletion
	if !w.DisableSnapshots {
		stride := max(1, int((sim.Time(booked.CheckpointEvery)+cfg.SampleEvery-1)/cfg.SampleEvery))
		drive = func() error {
			for {
				done, err := session.Step(stride)
				if done || err != nil {
					return err
				}
				mu.Lock()
				asked := pending == nil
				mu.Unlock()
				if !asked {
					continue
				}
				snap, err := session.Snapshot()
				if err != nil {
					return err
				}
				mu.Lock()
				pending = snap
				mu.Unlock()
			}
		}
	}
	runErr := drive()

	// A deterministic run failure is recorded exactly as scenario.Sweep
	// records the cell's error string.
	fail := func(err error) error {
		stopHeartbeat()
		return w.complete(ctx, booked, CompleteRequest{Worker: id, Run: RunResult{Err: err.Error()},
			Spans: drainSpans()})
	}
	if runErr != nil {
		if cellCtx.Err() != nil {
			return orStale(cellCtx.Err())
		}
		return fail(runErr)
	}
	res, err := session.Result()
	if err != nil {
		return fail(err)
	}
	req := CompleteRequest{Worker: id, Run: RunResult{Metrics: scenario.Extract(res)}}
	renderStart := time.Now()
	bodies, err := sapsim.ArtifactSet(res)
	addSpan("artifact-render", renderStart, time.Now(), nil)
	if err != nil {
		req.Run.Err = "fingerprint: " + err.Error()
	} else {
		req.Run.Digests = artifact.DigestSet(bodies)
		req.Bodies = make(map[string]string, len(bodies))
		for name, body := range bodies {
			req.Bodies[req.Run.Digests[name]] = body
		}
	}
	// The cell's engine self-profile rides along. Best-effort — a cell
	// whose profile cannot be encoded still completes; only its attribution
	// goes missing from analyze -engprof.
	if prof, perr := session.Profile(); perr == nil && prof != nil {
		if req.Profile, err = sapsim.EncodeProfileBytes(prof); err != nil {
			w.logf("worker %s: job %d profile encode: %v", id, booked.Job, err)
		} else {
			w.m.observeProfile(prof)
		}
	}
	w.logf("worker %s: job %d finished", id, booked.Job)
	stopHeartbeat()
	req.Spans = drainSpans()
	return orStale(w.complete(cellCtx, booked, req))
}

// uploadBlob ships one snapshot blob into the dispatcher's store behind a
// HEAD probe, so a blob the store already holds never travels: a re-booked
// cell that snapshots at an instant the previous holder covered re-sends
// nothing.
func (w *Worker) uploadBlob(ctx context.Context, digest string, blob []byte) error {
	_, status, err := w.do(ctx, http.MethodHead, "/artifact/"+digest, nil)
	if err != nil || status == http.StatusOK {
		return err // a transport error, or the store already holds this blob
	}
	_, status, err = w.do(ctx, http.MethodPut, "/artifact/"+digest, blob)
	switch {
	case err != nil:
		return err
	case status == http.StatusCreated || status == http.StatusOK:
		return nil
	case status >= 400 && status < 500:
		return fmt.Errorf("%w: %s: status %d", errBlobRefused, digest, status)
	default:
		return fmt.Errorf("dispatch: blob %s rejected: status %d", digest, status)
	}
}

// fetchSnapshot downloads and decodes the snapshot a BookResponse points
// at. Any failure — missing blob, short read, bit rot the decode's digest
// check catches — surfaces as an error the caller degrades to a cold
// start.
func (w *Worker) fetchSnapshot(ctx context.Context, rec *BlobRef) (*sapsim.Snapshot, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	body, status, err := w.do(ctx, http.MethodGet, "/artifact/"+rec.Digest, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("dispatch: snapshot blob fetch: status %d", status)
	}
	if got := artifact.Digest(body); got != rec.Digest {
		return nil, fmt.Errorf("dispatch: snapshot blob hashes to %s, not %s", got, rec.Digest)
	}
	return sapsim.DecodeSnapshotBytes(body)
}

// complete posts the cell's completion under its booking.
func (w *Worker) complete(ctx context.Context, booked *BookResponse, req CompleteRequest) error {
	req.Job, req.Attempt = booked.Job, booked.Attempt
	var ok struct{ OK bool }
	status, err := w.post(ctx, "/complete", req, &ok)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return fmt.Errorf("job %d: %w", booked.Job, ErrStale)
	case http.StatusPreconditionFailed:
		return fmt.Errorf("job %d: %w", booked.Job, ErrMissingBlobs)
	default:
		return fmt.Errorf("dispatch: complete: status %d", status)
	}
}

// post sends one JSON request and decodes a 200 response into out.
func (w *Worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Dispatcher+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, err
		}
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("dispatch: decoding %s response: %w", path, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, nil
}

// do sends one raw-body request — HEAD probe, blob PUT, or blob GET — and
// returns the response body and status.
func (w *Worker) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.Dispatcher+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := w.Client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return got, resp.StatusCode, err
}
