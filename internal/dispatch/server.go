package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"slices"
	"time"

	"sapsim/internal/artifact"
	"sapsim/internal/fleetmetrics"
	"sapsim/internal/scenario"
	"sapsim/internal/trace"
)

// Wire types of the dispatcher protocol. Every request body and response
// is JSON; errors travel as plain-text bodies with a non-2xx status.

// BookRequest asks for the next queued cell. Capacity advertises the
// worker's concurrent-cell capacity (simworker -jobs): the queue books a
// worker up to its capacity in concurrent leases, so bookings are
// weighted by it.
type BookRequest struct {
	Worker   string
	Capacity int `json:",omitempty"`
}

// BookResponse carries a booked cell: everything a stateless worker needs
// to run it from scratch.
type BookResponse struct {
	Job             int
	Key             scenario.Key
	Attempt         int
	Base            ConfigSpec
	CheckpointEvery int64 // sim.Time (ns)
}

// ProgressRequest is a worker heartbeat: it renews the job's lease.
// Attempt is the booking nonce from BookResponse — a report from a
// previous booking of the same cell is stale even if the worker ID matches.
type ProgressRequest struct {
	Worker  string
	Job     int
	Attempt int
	// Spans carries the worker's finished trace spans since the last
	// accepted report (engine phases), at most maxSpansPerReport of them.
	Spans []trace.Span `json:",omitempty"`
}

// CompleteRequest reports a finished cell and carries what it produced: the
// artifact bodies behind Run.Digests and the encoded engine profile. The
// dispatcher stores both before the result takes effect; a digest with
// neither a body here nor a blob already in the store fails the completion.
type CompleteRequest struct {
	Worker  string
	Job     int
	Attempt int
	Run     RunResult
	// Bodies maps digest to artifact body. Every key must be one of
	// Run.Digests. Bodies are transport only: the journal records Run.
	Bodies map[string]string `json:",omitempty"`
	// Spans is the final drain of the worker's span buffer — journaled
	// before the completion takes effect, while the lease is still held.
	Spans []trace.Span `json:",omitempty"`
	// Profile is the cell's encoded engine self-profile
	// (sapsim.EncodeProfileBytes). The dispatcher stores it and journals a
	// pointer to it, which survives the cell's terminal state.
	Profile []byte `json:",omitempty"`
}

// ReleaseRequest hands an abandoned cell back before its lease expires,
// so it re-books immediately instead of costing the fleet a lease
// period of idleness. Reason records why (it survives into the failure
// record if the cell exhausts its attempts).
type ReleaseRequest struct {
	Worker  string
	Job     int
	Attempt int
	Reason  string `json:",omitempty"`
}

// StateResponse is the /state snapshot.
type StateResponse struct {
	Spec    Spec
	Jobs    []JobStatus
	Done    bool
	Drained int
	Total   int
}

// Dispatcher serves a Queue over the wire protocol. It is the simq-style
// queue manager: workers book cells, heartbeat progress, and deliver
// results — metrics, digests and the bodies behind them in one completion;
// observers poll /state; the merged sweep is served at /result once
// drained.
type Dispatcher struct {
	queue *Queue
	srv   *http.Server
	// serveErr delivers the terminal error of a Serve'd server (nil on
	// graceful shutdown); WaitDrained watches it so a dead listener
	// surfaces as an error instead of an eternal poll.
	serveErr chan error
	// Logf, when set, receives one line per queue transition.
	Logf func(format string, args ...any)

	// registry, when set via Instrument, is served at GET /metrics.
	registry     *fleetmetrics.Registry
	encodeErrors *fleetmetrics.Counter
}

// NewDispatcher wraps a queue.
func NewDispatcher(q *Queue) *Dispatcher {
	return &Dispatcher{queue: q}
}

// Instrument registers the dispatcher's fleet metrics — the queue's (and
// its journal's and artifact store's) instruments plus the wire-level
// counters — and arranges for Handler to serve the registry at
// GET /metrics. Call before Handler/Serve.
func (d *Dispatcher) Instrument(reg *fleetmetrics.Registry) {
	d.queue.Instrument(reg)
	d.registry = reg
	d.encodeErrors = reg.Counter(MetricEncodeErrors,
		"JSON responses that failed to encode or send")
}

func (d *Dispatcher) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Handler returns the wire-protocol handler.
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /book", d.handleBook)
	mux.HandleFunc("POST /progress", d.handleProgress)
	mux.HandleFunc("POST /complete", d.handleComplete)
	mux.HandleFunc("POST /release", d.handleRelease)
	mux.HandleFunc("GET /state", d.handleState)
	mux.HandleFunc("GET /result", d.handleResult)
	mux.HandleFunc("GET /artifact/{digest}", d.handleArtifactGet)
	// The subtree root serves the index, and the mux redirects the bare
	// /bundle to it — the index's links are relative to the tree.
	mux.HandleFunc("GET /bundle/{path...}", d.serveBundle)
	if d.registry != nil {
		mux.Handle("GET /metrics", d.registry.Handler())
	}
	return mux
}

// maxJSONBytes caps a JSON request body. A completion, which carries its
// cell's artifact bodies, is read under maxBlobBytes instead.
const maxJSONBytes = 8 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON encodes a response body. An encode failure after the 200
// header is already on the wire cannot be turned into an error status, but
// it must not vanish either: the worker on the other end sees a truncated
// body and retries, and without the log line and counter the dispatcher
// side of that conversation is invisible.
func (d *Dispatcher) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		d.logf("dispatch: encoding response: %v", err)
		d.encodeErrors.Inc()
	}
}

// queueError maps a queue error onto the wire: a lost lease is 409 (abandon
// the cell), a pointer or completion naming a blob the store lacks is 412,
// anything else is the caller's 400.
func queueError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrStale):
		status = http.StatusConflict
	case errors.Is(err, ErrMissingBlobs):
		status = http.StatusPreconditionFailed
	}
	http.Error(w, err.Error(), status)
}

func (d *Dispatcher) handleBook(w http.ResponseWriter, r *http.Request) {
	var req BookRequest
	if !decodeBody(w, r, &req, maxJSONBytes) {
		return
	}
	job, drained, err := d.queue.Book(req.Worker, req.Capacity)
	switch {
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	case drained:
		http.Error(w, "sweep drained", http.StatusGone)
	case job == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		d.logf("dispatch: job %d (%s/%s seed %d) booked by %s (attempt %d)",
			job.ID, job.Key.Scenario, job.Key.Variant, job.Key.Seed, req.Worker, job.Attempt)
		spec := d.queue.Spec()
		d.writeJSON(w, BookResponse{
			Job:             job.ID,
			Key:             job.Key,
			Attempt:         job.Attempt,
			Base:            spec.Base,
			CheckpointEvery: int64(spec.CheckpointEvery),
		})
	}
}

func (d *Dispatcher) handleProgress(w http.ResponseWriter, r *http.Request) {
	var req ProgressRequest
	if !decodeBody(w, r, &req, maxJSONBytes) {
		return
	}
	err := d.queue.Progress(req.Job, req.Worker, req.Attempt)
	if err == nil {
		err = d.queue.RecordSpans(req.Job, req.Worker, req.Attempt, req.Spans)
	}
	if err != nil {
		queueError(w, err)
		return
	}
	d.writeJSON(w, struct{ OK bool }{true})
}

func (d *Dispatcher) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req, maxBlobBytes) {
		return
	}
	// The bodies land in the store before Complete checks that it holds
	// every digest. Only bodies the run names may ride along: anything else
	// is outside input that would fill the store with blobs nothing points
	// at.
	named := make(map[string]bool, len(req.Run.Digests))
	for _, digest := range req.Run.Digests {
		named[digest] = true
	}
	for digest := range req.Bodies {
		if !named[digest] {
			http.Error(w, fmt.Sprintf("bad request: body %s is not one of the run's digests", digest),
				http.StatusBadRequest)
			return
		}
	}
	for _, digest := range slices.Sorted(maps.Keys(req.Bodies)) {
		if _, err := d.queue.PutArtifact(digest, []byte(req.Bodies[digest])); err != nil {
			blobError(w, err)
			return
		}
	}
	// The profile pointer and the final span drain land before the result,
	// while the lease is still held — a completed job accepts no further
	// reports. A rejected pointer (a zombie's) fails the exchange before the
	// result is durable, so no done cell is left with a dangling pointer.
	var err error
	if len(req.Profile) > 0 {
		digest := artifact.Digest(req.Profile)
		if _, perr := d.queue.PutArtifact(digest, req.Profile); perr != nil {
			blobError(w, perr)
			return
		}
		err = d.queue.RecordBlob(req.Job, req.Worker, req.Attempt, BlobRef{Kind: BlobProfile, Digest: digest})
	}
	if err == nil {
		err = d.queue.RecordSpans(req.Job, req.Worker, req.Attempt, req.Spans)
	}
	if err == nil {
		err = d.queue.Complete(req.Job, req.Worker, req.Attempt, req.Run)
	}
	if err != nil {
		queueError(w, err)
		return
	}
	outcome := "done"
	if req.Run.Err != "" {
		outcome = "failed: " + req.Run.Err
	}
	d.logf("dispatch: job %d completed by %s: %s", req.Job, req.Worker, outcome)
	d.writeJSON(w, struct{ OK bool }{true})
}

func (d *Dispatcher) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !decodeBody(w, r, &req, maxJSONBytes) {
		return
	}
	if err := d.queue.Release(req.Job, req.Worker, req.Attempt, req.Reason); err != nil {
		queueError(w, err)
		return
	}
	d.logf("dispatch: job %d released by %s", req.Job, req.Worker)
	d.writeJSON(w, struct{ OK bool }{true})
}

func (d *Dispatcher) handleState(w http.ResponseWriter, r *http.Request) {
	jobs := d.queue.Snapshot()
	drained := 0
	for _, j := range jobs {
		if j.State == JobDone.String() || j.State == JobFailed.String() {
			drained++
		}
	}
	d.writeJSON(w, StateResponse{
		Spec: d.queue.Spec(), Jobs: jobs,
		Done: drained == len(jobs), Drained: drained, Total: len(jobs),
	})
}

func (d *Dispatcher) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := d.queue.Merged()
	if err != nil { // ErrNotDrained, Merged's only failure
		http.Error(w, err.Error(), http.StatusTooEarly)
		return
	}
	d.writeJSON(w, res)
}

// Serve listens on addr and serves the protocol until Shutdown (or ctx
// cancellation). It reports the bound address through the returned
// listener-address string, which matters for addr ":0" in tests and
// examples.
func (d *Dispatcher) Serve(ctx context.Context, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("dispatch: listen %s: %w", addr, err)
	}
	d.srv = &http.Server{Handler: d.Handler()}
	d.serveErr = make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = d.srv.Shutdown(shutdownCtx)
	}()
	go func() {
		err := d.srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		if err != nil {
			d.logf("dispatch: serve: %v", err)
		}
		d.serveErr <- err
	}()
	return ln.Addr().String(), nil
}

// Shutdown stops the HTTP server (the queue stays open; Close it
// separately).
func (d *Dispatcher) Shutdown(ctx context.Context) error {
	if d.srv == nil {
		return nil
	}
	return d.srv.Shutdown(ctx)
}

// WaitDrained polls until every cell is terminal, then returns the merged
// sweep. Poll is how often to check (default 200ms).
func (d *Dispatcher) WaitDrained(ctx context.Context, poll time.Duration) (*scenario.SweepResult, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	serveErr := d.serveErr
	for {
		if d.queue.Done() {
			return d.queue.Merged()
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case err := <-serveErr:
			if err != nil {
				return nil, fmt.Errorf("dispatch: server died: %w", err)
			}
			serveErr = nil // graceful shutdown; keep polling the queue
		case <-t.C:
		}
	}
}
