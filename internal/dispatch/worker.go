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
	"slices"
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

// abandonBackoff is how long a slot cools down after its cell is abandoned
// and released. The released cell re-books immediately — on another worker;
// the cool-down keeps a worker with a persistently failing path (say, its
// completions rejected) from re-booking its own releases in a tight loop and
// burning the cell's whole attempt budget in milliseconds.
const abandonBackoff = 5 * time.Second

// WorkerHooks observe a worker's lifecycle; tests use them to kill a
// worker mid-cell deterministically.
type WorkerHooks struct {
	// OnHeartbeat fires after each accepted heartbeat. The cell has not
	// completed: the heartbeat loop stops before the completion posts.
	OnHeartbeat func(job int)
}

// Worker is the simd half of the dispatcher split: a stateless loop that
// books cells, strides each through the sapsim Session in steps of the
// sweep's CheckpointEvery, renews the lease with heartbeats that carry the
// trace spans finished since the last one, and completes with one request
// that carries the cell's metrics, digests, artifact bodies and engine
// profile. Workers hold no sweep state — kill one at any point and its
// cells re-book elsewhere after the lease expires, and run again from t=0.
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
	// Deprecated: workers take no snapshots; bench/sweep.go still sets it, and ROADMAP item 4(c) deletes it.
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
	// It, hostname, sleep, randFloat and now are test seams: identity-
	// collision, backoff and clock-step tests substitute deterministic
	// implementations. now stamps the worker's own spans and timings.
	bookBackoffMax time.Duration
	hostname       func() (string, error)
	sleep          func(ctx context.Context, d time.Duration) error
	randFloat      func() float64
	now            func() time.Time
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
	if w.now == nil {
		w.now = time.Now
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
			start := w.now()
			err := w.runCell(ctx, w.ID, booked)
			w.m.inflight.Dec()
			w.m.cellSecs.Observe(w.now().Sub(start).Seconds())
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

	// Span collection: engine phases become spans parented under the
	// booking's attempt span, shipped on heartbeats and the completion. The
	// trace and attempt IDs are the ones TraceFromJournal derives from the
	// journal, so the two halves join up without any coordination. The
	// builder is guarded by mu — the session's event-dispatch goroutine, the
	// heartbeat loop, and this goroutine all touch it.
	var mu sync.Mutex
	attempt := attemptSpanID(booked.Job, booked.Attempt)
	spanb := trace.NewBuilder(CellTraceID(key), attempt, attempt)
	addSpan := func(name string, start, end time.Time, attrs map[string]string) {
		mu.Lock()
		spanb.Add(name, start, end, attrs)
		mu.Unlock()
	}
	drainSpans := func(final bool) []trace.Span {
		mu.Lock()
		batch, dropped := reportSpans(spanb, final)
		mu.Unlock()
		if dropped > 0 {
			w.logf("worker %s: job %d: %d trace spans over the %d-per-report cap dropped",
				id, booked.Job, dropped, maxSpansPerReport)
		}
		return batch
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
	session, err := sapsim.NewSession(cfg, sapsim.WithContext(cellCtx), observe)
	if err != nil {
		return w.complete(ctx, booked, CompleteRequest{Worker: id, Run: RunResult{Err: err.Error()},
			Spans: drainSpans(true)})
	}
	defer session.Close()

	// Heartbeat loop: renew the lease from the start, and keep renewing
	// through artifact rendering — the post-simulation work can outlast a
	// lease on a slow box, and a cell that expires there re-runs from
	// scratch just to hit the same wall.
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
			spanBatch := drainSpans(false)
			var ok struct{ OK bool }
			hbStart := w.now()
			status, err := w.post(cellCtx, "/progress",
				ProgressRequest{Worker: id, Job: booked.Job, Attempt: booked.Attempt, Spans: spanBatch}, &ok)
			if err != nil {
				// Transient; the lease outlives several heartbeats. The spans
				// go back in the buffer — the next report re-ships them.
				requeueSpans(spanBatch)
				continue
			}
			w.m.heartbeat.Observe(w.now().Sub(hbStart).Seconds())
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
			if w.Hooks.OnHeartbeat != nil {
				w.Hooks.OnHeartbeat(booked.Job)
			}
		}
	}()

	// Stride the run in CheckpointEvery-sized steps (whole SampleEvery
	// ticks): each stride is one "run" span, so a running cell's progress
	// reaches the journal and the trace on the next heartbeat.
	stride := max(1, int((sim.Time(booked.CheckpointEvery)+cfg.SampleEvery-1)/cfg.SampleEvery))
	var runErr error
	for done := false; !done && runErr == nil; {
		done, runErr = session.Step(stride)
	}

	// A deterministic run failure is recorded exactly as scenario.Sweep
	// records the cell's error string.
	fail := func(err error) error {
		stopHeartbeat()
		return w.complete(ctx, booked, CompleteRequest{Worker: id, Run: RunResult{Err: err.Error()},
			Spans: drainSpans(true)})
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
	renderStart := w.now()
	bodies, err := sapsim.ArtifactSet(res)
	addSpan("artifact-render", renderStart, w.now(), nil)
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
	req.Spans = drainSpans(true)
	return orStale(w.complete(cellCtx, booked, req))
}

// reportSpans drains b up to the queue's per-report cap. A heartbeat
// leaves the rest buffered for the next report; the completion, which has
// no next report, drops them and counts them. Spans are observability, so
// an overflow costs trace detail, never the cell.
func reportSpans(b *trace.Builder, final bool) (batch []trace.Span, dropped int) {
	batch = b.Drain()
	over := len(batch) - maxSpansPerReport
	if over <= 0 {
		return batch, 0
	}
	if final {
		dropped = over
	} else {
		b.Requeue(slices.Clone(batch[maxSpansPerReport:]))
	}
	return batch[:maxSpansPerReport], dropped
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
