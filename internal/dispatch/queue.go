package dispatch

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"sapsim/internal/artifact"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
	"sapsim/internal/trace"
)

// Job is one cell of the sweep matrix in the queue. Jobs live in
// scenario-major order (the order scenario.Sweep produces runs in), so
// merging is a straight copy.
type Job struct {
	ID      int
	Key     scenario.Key
	State   JobState
	Worker  string
	Lease   time.Time
	Attempt int

	// Run holds the completion report for done/failed jobs.
	Run *RunResult
	// Profile points at the finished cell's engine self-profile blob. It is
	// recorded in the completion exchange and outlives the terminal state:
	// it is what analyze -engprof aggregates.
	Profile *BlobRef
}

// Stale is returned by Progress and Complete when the reporting worker no
// longer holds the job's lease (it expired and the job was re-booked, or
// was completed by another worker). The worker should abandon the cell.
var ErrStale = errors.New("dispatch: lease lost")

// ErrMissingBlobs is returned by Complete when a successful cell's digests
// reference artifact bodies the store does not hold — the completion must
// carry every body the store lacks, or the sweep could drain without the
// artifacts its bundle promises.
var ErrMissingBlobs = errors.New("dispatch: artifact blobs missing from store")

// DefaultLease is how long a booked or running job may go without a
// heartbeat before it is re-queued.
const DefaultLease = 30 * time.Second

// DefaultCheckpoint is the simulated-time stride workers step a cell in
// when the spec sets none (Spec.CheckpointEvery), and the stride sweep and
// dispatchd journal by default.
const DefaultCheckpoint = 6 * sim.Hour

// DefaultMaxAttempts bounds how many times a job is re-booked after lease
// expiries before the queue marks it failed — the cell that crashes every
// worker that books it must not wedge the sweep forever.
const DefaultMaxAttempts = 5

// QueueOptions tune a queue.
type QueueOptions struct {
	// Lease is the heartbeat deadline (default DefaultLease).
	Lease time.Duration
	// maxAttempts (bookings per job, DefaultMaxAttempts) and now (the clock)
	// are test seams.
	maxAttempts int
	now         func() time.Time
}

func (o *QueueOptions) fill() {
	if o.Lease <= 0 {
		o.Lease = DefaultLease
	}
	if o.maxAttempts <= 0 {
		o.maxAttempts = DefaultMaxAttempts
	}
	if o.now == nil {
		o.now = time.Now
	}
}

// Queue is a durable sweep job queue: every state transition is appended
// to an on-disk journal before it takes effect in memory, so a crashed
// dispatcher resumes exactly where the log ends. Queue is safe for
// concurrent use.
type Queue struct {
	mu      sync.Mutex
	spec    Spec
	jobs    []*Job
	journal *journalWriter
	opts    QueueOptions
	dir     string
	// store holds the artifact bodies behind every done cell's digests,
	// content-addressed under dir/cas.
	store *artifact.Store

	// recovered describes what Resume found (torn tail, skipped lines).
	recovered string

	// metrics receives every queue transition; its instruments are nil, and
	// their methods no-ops, until Instrument registers them.
	metrics queueMetrics
}

// newQueue validates the spec, opens the sweep's store under dir, and
// expands the matrix into queued jobs; the caller attaches the journal.
func newQueue(dir string, spec Spec, opts QueueOptions) (*Queue, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	store, err := artifact.Open(filepath.Join(dir, artifact.DirName))
	if err != nil {
		return nil, err
	}
	q := &Queue{spec: spec, opts: opts, dir: dir, store: store}
	for i, key := range spec.Keys() {
		q.jobs = append(q.jobs, &Job{ID: i, Key: key})
	}
	return q, nil
}

// NewQueue expands the spec into per-cell jobs and creates the sweep
// journal in dir. The directory must not already contain a journal —
// reopen an interrupted sweep with Resume.
func NewQueue(dir string, spec Spec, opts QueueOptions) (*Queue, error) {
	spec.normalize()
	opts.fill()
	q, err := newQueue(dir, spec, opts)
	if err != nil {
		return nil, err
	}
	q.journal, err = createJournal(dir, spec, opts.now().UnixMicro())
	if err != nil {
		return nil, err
	}
	return q, nil
}

// Resume rebuilds a queue from dir's journal after a crash or shutdown:
// done and failed cells keep their recorded results, and cells that were
// queued, booked, or running are (re-)queued — their workers cannot reach
// a restarted dispatcher, and every cell is deterministically re-runnable.
// A torn final line or corrupt interior lines are dropped; each costs at
// most one cell re-run.
//
// Resume also audits the store against the journal (auditBlobs): every
// blob a cell still points at is re-verified, damage is healed and costs
// what blobPolicies says it costs, and blobs nothing points at — uploads
// for cells that never durably completed, blobs of a retired kind — are
// garbage-collected.
func Resume(dir string, opts QueueOptions) (*Queue, error) {
	opts.fill()
	path := filepath.Join(dir, JournalName)
	replay, err := replayJournal(path)
	if err != nil {
		return nil, err
	}
	q, err := newQueue(dir, replay.spec, opts)
	if err != nil {
		return nil, err
	}
	// sizes is each stored blob's journaled byte length — what lets
	// verification tell a truncated blob from a corrupt one.
	sizes := make(map[string]int64)
	for _, rec := range replay.records {
		if rec.T == recArtifact {
			if rec.Digest != "" {
				sizes[rec.Digest] = rec.Size
			}
			continue
		}
		if rec.Job < 0 || rec.Job >= len(q.jobs) || !q.jobs[rec.Job].replay(rec) {
			replay.skipped++
		}
	}
	// Whatever was in flight when the process died goes back to queued.
	requeued := 0
	for _, j := range q.jobs {
		if j.State == JobBooked || j.State == JobRunning {
			j.State, j.Worker = JobQueued, ""
			j.settle()
			requeued++
		}
	}
	audit, auditRequeued := q.auditBlobs(sizes)
	// GC failures must not abort the resume — the sweep is still correct
	// with orphans on disk; they are surfaced in Recovered instead.
	orphans, gcErr := q.store.GC(q.blobRefs())
	q.journal, err = openJournalForAppend(path)
	if err != nil {
		return nil, err
	}
	// Journal the re-queues so a second resume replays to the same state
	// without re-deriving it.
	for _, j := range q.jobs {
		if (j.State == JobQueued && j.Attempt > 0) || auditRequeued[j.ID] {
			if err := q.appendStateLocked(j); err != nil {
				q.journal.close()
				return nil, err
			}
		}
	}
	q.recovered = fmt.Sprintf("resumed: %d done, %d requeued", q.countDone(), requeued)
	if replay.torn {
		q.recovered += ", torn tail dropped"
	}
	if replay.skipped > 0 {
		q.recovered += fmt.Sprintf(", %d corrupt lines skipped", replay.skipped)
	}
	q.recovered += audit
	if orphans > 0 {
		q.recovered += fmt.Sprintf(", %d orphan blobs collected", orphans)
	}
	if gcErr != nil {
		q.recovered += fmt.Sprintf(", GC incomplete: %v", gcErr)
	}
	return q, nil
}

// replay applies one journaled fact to the job; false means the record is
// unusable and was skipped.
func (j *Job) replay(rec journalRecord) bool {
	switch rec.T {
	case recState:
		st, err := jobStateFromString(rec.State)
		if err != nil {
			return false
		}
		j.State, j.Worker, j.Attempt = st, rec.Worker, rec.Attempt
		if st == JobQueued {
			// A re-queue after a recorded result (the artifact audit path)
			// invalidates that result.
			j.Run = nil
		}
	case recResult:
		if rec.Run == nil {
			return false
		}
		j.Run, j.Worker, j.State = rec.Run, rec.Worker, JobDone
		if rec.Run.Err != "" {
			j.State = JobFailed
		}
	case string(BlobProfile):
		if rec.Ref == nil || string(rec.Ref.Kind) != rec.T || rec.Ref.Validate() != nil {
			return false
		}
		*j.slot(rec.Ref.Kind) = rec.Ref
		return true
	case recSpan, recRetiredSnapshot:
		// Trace spans are observability facts, not queue state; the replay
		// carries no effect (TraceFromJournal reads them). A retired
		// snapshot pointer is skipped, and Resume's GC collects its blob.
		return true
	default:
		return false
	}
	j.settle()
	return true
}

// auditBlobs is the one pass that holds the store to the journal on
// Resume: every blob a cell points at is read and re-hashed exactly once,
// however many cells share it (the static tables are referenced by every
// cell of the sweep). A damaged file is removed, so a re-upload is not
// deduplicated against it, and the pointing cell pays what its
// blobPolicies row says. It returns the Recovered() fragment and the cells
// it re-queued.
func (q *Queue) auditBlobs(sizes map[string]int64) (string, map[int]bool) {
	verified := map[string]error{}
	type damage struct {
		kind  BlobKind
		cause string
	}
	damaged := map[damage]int{}
	// A heal that cannot remove its damaged blob is worse than no heal: the
	// bad file shadows the re-upload the re-queued cell will attempt, so the
	// failure must be surfaced (Recovered, logs, and the store's
	// remove-failure counter), never swallowed.
	removeFailed := 0
	intact := func(kind BlobKind, digest string) bool {
		verr, seen := verified[digest]
		if seen {
			return verr == nil
		}
		size, ok := sizes[digest]
		if !ok {
			size = -1 // no upload record survived; the hash check still runs
		}
		verr = q.store.Verify(digest, size)
		verified[digest] = verr
		if verr == nil {
			return true
		}
		cause := "unreadable"
		switch {
		case errors.Is(verr, artifact.ErrMissing):
			cause = "missing"
		case errors.Is(verr, artifact.ErrTruncated):
			cause = "truncated"
		case errors.Is(verr, artifact.ErrCorrupt):
			cause = "corrupt"
		}
		damaged[damage{kind, cause}]++
		if cause != "missing" && q.store.Remove(digest) != nil {
			removeFailed++
		}
		return false
	}
	requeued := map[int]bool{}
	for _, j := range q.jobs {
		for _, p := range blobPolicies {
			bad := false
			j.pointers(p.kind, func(digest string) {
				if !intact(p.kind, digest) {
					bad = true
				}
			})
			switch {
			case !bad:
			case p.requeue:
				j.State, j.Worker, j.Run, j.Attempt = JobQueued, "", nil, 0
				j.settle()
				requeued[j.ID] = true
			default:
				*j.slot(p.kind) = nil
			}
		}
	}
	report := ""
	for _, p := range blobPolicies {
		for _, cause := range []string{"missing", "truncated", "corrupt", "unreadable"} {
			if n := damaged[damage{p.kind, cause}]; n > 0 {
				report += fmt.Sprintf(", %d %s %s blobs (%s)", n, cause, p.kind, p.cost)
			}
		}
	}
	if removeFailed > 0 {
		report += fmt.Sprintf(", %d damaged blobs could NOT be removed (they shadow re-uploads)", removeFailed)
	}
	if len(requeued) > 0 {
		report += fmt.Sprintf(", %d cells requeued for artifact re-upload", len(requeued))
	}
	return report, requeued
}

// blobRefs counts, per digest, the pointers cells hold into the store —
// what Resume's GC must keep. Every job was settled on its way here, so
// every pointer still held is live.
func (q *Queue) blobRefs() map[string]int {
	refs := map[string]int{}
	for _, j := range q.jobs {
		for _, p := range blobPolicies {
			j.pointers(p.kind, func(digest string) { refs[digest]++ })
		}
	}
	return refs
}

// reclaimLocked removes blobs no cell points at anymore — a superseded
// pointer's, or those settle cleared. Best-effort: a failed removal is
// re-collected by the next Resume's GC.
func (q *Queue) reclaimLocked(digests ...string) {
	for _, digest := range digests {
		held := false
		for _, j := range q.jobs {
			for _, p := range blobPolicies {
				j.pointers(p.kind, func(d string) { held = held || d == digest })
			}
		}
		if !held {
			_ = q.store.Remove(digest)
		}
	}
}

// Spec returns the sweep's matrix spec.
func (q *Queue) Spec() Spec { return q.spec }

// Recovered describes what Resume found (empty for a fresh queue).
func (q *Queue) Recovered() string { return q.recovered }

// Close flushes and closes the journal.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.journal == nil {
		return nil
	}
	err := q.journal.close()
	q.journal = nil
	return err
}

// appendLocked stamps one record with the queue clock and journals it;
// durable adds the fsync (results — the records whose loss costs a full
// cell re-run).
func (q *Queue) appendLocked(rec journalRecord, durable bool) error {
	if q.journal == nil {
		return errors.New("dispatch: queue closed")
	}
	rec.TS = q.opts.now().UnixMicro()
	if durable {
		return q.journal.appendDurable(rec)
	}
	return q.journal.append(rec)
}

func (q *Queue) appendStateLocked(j *Job) error {
	return q.appendLocked(journalRecord{T: recState, Job: j.ID, State: j.State.String(),
		Worker: j.Worker, Attempt: j.Attempt}, false)
}

// moveLocked is the one place a job changes state, and it is the WAL
// contract: the transition takes effect in memory only once its journal
// record lands — a state record, or a durable result record when run is
// set — and is rolled back whole on an append failure, so a cell is never
// done in memory without a durable result. A landed transition then
// settles the job's blob pointers, reclaiming what the new state dropped.
func (q *Queue) moveLocked(j *Job, to JobState, worker string, run *RunResult) error {
	prev := *j
	j.State, j.Worker = to, worker
	var err error
	if run != nil {
		j.Run = run
		err = q.appendLocked(journalRecord{T: recResult, Job: j.ID, Worker: worker, Run: run}, true)
	} else {
		err = q.appendStateLocked(j)
	}
	if err != nil {
		*j = prev
		return err
	}
	q.reclaimLocked(j.settle()...)
	return nil
}

// abandonLocked returns a held cell to the queue — or, once its bookings
// are spent, fails it for good: the cell that crashes or is dropped by
// every worker that books it must not ping-pong through the sweep forever.
// how and the worker's reason, if any, word the failure record.
func (q *Queue) abandonLocked(j *Job, how, reason string) (failed bool, err error) {
	if j.Attempt < q.opts.maxAttempts {
		return false, q.moveLocked(j, JobQueued, "", nil)
	}
	msg := fmt.Sprintf("dispatch: abandoned after %d %s (last worker %s)", j.Attempt, how, j.Worker)
	if reason != "" {
		msg += ": " + reason
	}
	err = q.moveLocked(j, JobFailed, j.Worker, &RunResult{Err: msg})
	if err == nil {
		q.metrics.attemptsExhaust.Inc()
		q.metrics.jobAttempts.Observe(float64(j.Attempt))
	}
	return true, err
}

// reapLocked abandons booked/running jobs whose lease expired. Called with
// the mutex held from every public entry point, so no background reaper is
// needed: a waiting worker's next /book observes expiries immediately. On
// a journal failure the job keeps its expired lease and the reap retries
// on the next entry point.
func (q *Queue) reapLocked(now time.Time) {
	for _, j := range q.jobs {
		if (j.State == JobBooked || j.State == JobRunning) && now.After(j.Lease) {
			failed, err := q.abandonLocked(j, "expired leases", "")
			if err == nil && !failed {
				q.metrics.leaseExpiries.Inc()
			}
		}
	}
}

// Book leases the next queued job to the worker. Capacity is the worker's
// advertised concurrent-cell capacity (simworker -jobs; <=0 means 1): the
// queue books each worker up to its capacity in concurrent leases, so a
// 4-job worker holds four cells at once and drains the matrix
// proportionally faster than a 1-job neighbor. A worker already holding
// its capacity gets nothing until a lease frees. The second return is
// true when the sweep is drained (every job done or failed); when false
// with a nil job, everything unfinished is currently leased and the
// caller should poll again.
func (q *Queue) Book(worker string, capacity int) (*Job, bool, error) {
	if worker == "" {
		return nil, false, errors.New("dispatch: empty worker id")
	}
	if capacity <= 0 {
		capacity = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.now()
	q.reapLocked(now)
	holds := 0
	for _, j := range q.jobs {
		if (j.State == JobBooked || j.State == JobRunning) && j.Worker == worker {
			holds++
		}
	}
	drained := true
	for _, j := range q.jobs {
		switch j.State {
		case JobDone, JobFailed:
			continue
		case JobQueued:
			if holds >= capacity {
				// Everything unfinished that this worker could take would
				// push it past its advertised capacity.
				return nil, false, nil
			}
			attempt, lease := j.Attempt, j.Lease
			j.Attempt++
			j.Lease = now.Add(q.opts.Lease)
			if err := q.moveLocked(j, JobBooked, worker, nil); err != nil {
				j.Attempt, j.Lease = attempt, lease
				return nil, false, err
			}
			q.metrics.books.Inc()
			if j.Attempt > 1 {
				q.metrics.rebooks.Inc()
			}
			cp := *j
			return &cp, false, nil
		default:
			drained = false
		}
	}
	return nil, drained, nil
}

// Progress records a worker heartbeat for a booked/running job: the lease
// renews, and the first one moves the cell booked → running. Attempt is
// the booking nonce from BookResponse; it is what distinguishes the current
// holder from a zombie whose expired cell was re-booked to the same worker
// ID. Returns Stale when the worker no longer holds the job.
func (q *Queue) Progress(jobID int, worker string, attempt int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	j.Lease = q.opts.now().Add(q.opts.Lease)
	q.metrics.progress.Inc()
	if j.State == JobBooked {
		return q.moveLocked(j, JobRunning, worker, nil)
	}
	return nil
}

// RecordBlob journals a held cell's pointer to a blob already in the store:
// the finished cell's profile, in the completion exchange, while the lease
// is still held. The blob must already be in the store — a dangling
// pointer is rejected with ErrMissingBlobs, since it would send every
// reader through a failed fetch. The newest pointer of a kind wins, and
// the superseded blob is reclaimed now instead of at the next Resume's GC.
// Returns Stale when the worker no longer holds the job.
func (q *Queue) RecordBlob(jobID int, worker string, attempt int, ref BlobRef) error {
	if err := ref.Validate(); err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	if !q.store.Has(ref.Digest) {
		return fmt.Errorf("%w: job %d: %s blob %s not uploaded",
			ErrMissingBlobs, jobID, ref.Kind, ref.Digest)
	}
	if err := q.appendLocked(journalRecord{T: string(ref.Kind), Job: j.ID,
		Worker: worker, Ref: &ref}, false); err != nil {
		return err
	}
	slot := j.slot(ref.Kind)
	prev := *slot
	*slot = &ref
	if prev != nil {
		q.reclaimLocked(prev.Digest)
	}
	return nil
}

// maxSpansPerReport bounds one heartbeat's or completion's span batch — a
// runaway worker must not be able to grow the WAL without bound.
const maxSpansPerReport = 512

// RecordSpans journals a batch of worker-side trace spans for a held cell.
// Spans are pure observability: plain appends, no fsync, no queue-state
// effect — losing them costs trace detail, never correctness. Returns
// Stale when the worker no longer holds the job, so a zombie's spans from
// a superseded attempt never pollute the trace of the current one.
func (q *Queue) RecordSpans(jobID int, worker string, attempt int, spans []trace.Span) error {
	if len(spans) == 0 {
		return nil
	}
	if len(spans) > maxSpansPerReport {
		return fmt.Errorf("dispatch: job %d: %d spans in one report (max %d)",
			jobID, len(spans), maxSpansPerReport)
	}
	for _, s := range spans {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	for i := range spans {
		if err := q.appendLocked(journalRecord{T: recSpan, Job: j.ID,
			Worker: worker, Attempt: attempt, Span: &spans[i]}, false); err != nil {
			return err
		}
	}
	return nil
}

// Complete records a worker's finished cell (durably, with an fsync).
// A successful cell must have every artifact body behind its digests in
// the store already — a complete whose blobs are missing is rejected with
// ErrMissingBlobs, because a sweep that drains without its bodies cannot
// produce the bundle it promises. Returns Stale when the worker no longer
// holds the job.
func (q *Queue) Complete(jobID int, worker string, attempt int, run RunResult) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	to := JobFailed
	if run.Err == "" {
		to = JobDone
		if len(run.Digests) == 0 {
			// A digest-less success would drain the sweep permanently
			// unable to produce its bundle.
			return fmt.Errorf("%w: job %d: completion carries no artifact digests",
				ErrMissingBlobs, jobID)
		}
		missing := 0
		for _, digest := range run.Digests {
			if !q.store.Has(digest) {
				missing++
			}
		}
		if missing > 0 {
			return fmt.Errorf("%w: job %d: %d of %d bodies neither sent nor stored",
				ErrMissingBlobs, jobID, missing, len(run.Digests))
		}
	}
	if err := q.moveLocked(j, to, worker, &run); err != nil {
		return err
	}
	if to == JobFailed {
		q.metrics.completesFailed.Inc()
	} else {
		q.metrics.completesDone.Inc()
	}
	q.metrics.jobAttempts.Observe(float64(j.Attempt))
	return nil
}

// Release returns a held cell to the queue before its lease expires — a
// worker abandoning a cell (completion rejected, transient dispatcher error)
// calls it so the cell re-books immediately instead of idling out the
// lease. The booking attempt is spent either way, and reason is
// preserved in the failure record if the cell exhausts its attempts.
// Returns Stale when the caller no longer holds the cell, which an
// abandoning worker ignores.
func (q *Queue) Release(jobID int, worker string, attempt int, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.heldLocked(jobID, worker, attempt)
	if err != nil {
		return err
	}
	failed, err := q.abandonLocked(j, "attempts", reason)
	if err == nil && !failed {
		q.metrics.releases.Inc()
	}
	return err
}

// PutArtifact stores one blob under its digest (verifying the content
// hashes to it) and journals the upload with its size — the record Resume
// later verifies the blob against. Re-putting a digest the store already
// holds is the dedup no-op — nothing is journaled twice — and the bool
// reports whether a new blob was written.
func (q *Queue) PutArtifact(digest string, body []byte) (bool, error) {
	stored, err := q.store.Put(digest, body)
	if err != nil || !stored {
		return false, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return true, q.appendLocked(journalRecord{T: recArtifact,
		Digest: digest, Size: int64(len(body))}, false)
}

// Store exposes the queue's content-addressed artifact store (bundle
// serving and materialization read through it).
func (q *Queue) Store() *artifact.Store { return q.store }

// result is the job's recorded run in the sweep's own terms.
func (j *Job) result() scenario.Run {
	return scenario.Run{Key: j.Key, Metrics: j.Run.Metrics, Digests: j.Run.Digests, Err: j.Run.Err}
}

// bundle is the report tree over the queue as it stands: every cell with
// its recorded result, or its state while it has none.
func (q *Queue) bundle() *artifact.Bundle {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	b := &artifact.Bundle{Store: q.store, Pending: map[scenario.Key]string{},
		Sweep: &scenario.SweepResult{Runs: make([]scenario.Run, len(q.jobs))}}
	for i, j := range q.jobs {
		if j.Run == nil {
			b.Sweep.Runs[i].Key, b.Pending[j.Key] = j.Key, j.State.String()
		} else {
			b.Sweep.Runs[i] = j.result()
		}
	}
	return b
}

// heldLocked is the prologue of every worker report: expired leases are
// reaped first, then the job is returned only if this booking of it — the
// worker under this attempt nonce — still holds it.
func (q *Queue) heldLocked(jobID int, worker string, attempt int) (*Job, error) {
	q.reapLocked(q.opts.now())
	if jobID < 0 || jobID >= len(q.jobs) {
		return nil, fmt.Errorf("dispatch: unknown job %d", jobID)
	}
	j := q.jobs[jobID]
	if (j.State != JobBooked && j.State != JobRunning) || j.Worker != worker || j.Attempt != attempt {
		return nil, fmt.Errorf("%w: job %d is %s (held by %q, attempt %d)",
			ErrStale, jobID, j.State, j.Worker, j.Attempt)
	}
	return j, nil
}

// Done reports whether every job reached a terminal state.
func (q *Queue) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	return q.countDone() == len(q.jobs)
}

// countDone counts terminal jobs; callers hold the mutex or own the queue
// exclusively (Resume).
func (q *Queue) countDone() int {
	n := 0
	for _, j := range q.jobs {
		if j.State == JobDone || j.State == JobFailed {
			n++
		}
	}
	return n
}

// Snapshot reports every job's current status in scenario-major order.
func (q *Queue) Snapshot() []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	out := make([]JobStatus, len(q.jobs))
	for i, j := range q.jobs {
		st := JobStatus{ID: j.ID, Key: j.Key, State: j.State.String(),
			Worker: j.Worker, Attempt: j.Attempt, Profile: j.Profile}
		if j.Run != nil {
			st.Err = j.Run.Err
		}
		out[i] = st
	}
	return out
}

// ErrNotDrained is returned by Merged while cells are still outstanding.
var ErrNotDrained = errors.New("dispatch: sweep not drained")

// Merged returns the finished sweep in scenario-major order — the exact
// SweepResult (metrics, digests, error strings) a single-process
// scenario.Sweep of the same spec produces, and the one the bundle reports on.
func (q *Queue) Merged() (*scenario.SweepResult, error) {
	b := q.bundle()
	if len(b.Pending) > 0 {
		return nil, fmt.Errorf("%w: %d of %d cells outstanding", ErrNotDrained, len(b.Pending), len(b.Sweep.Runs))
	}
	return b.Sweep, nil
}
