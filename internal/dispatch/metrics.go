package dispatch

import (
	"time"

	"sapsim/internal/engprof"
	"sapsim/internal/fleetmetrics"
)

// Fleet metric names exported by the dispatch stack. The catalog is part
// of the public surface: the smoke script, the README, and the promql
// dogfooding queries all reference these names.
const (
	// Queue (dispatchd).
	MetricQueueJobs       = "dispatch_queue_jobs"  // gauge{state}: depth per job state; sums to MetricQueueCells
	MetricQueueCells      = "dispatch_queue_cells" // gauge: total cells in the sweep matrix
	MetricBooks           = "dispatch_books_total" // counter: successful bookings
	MetricRebooks         = "dispatch_rebooks_total"
	MetricProgress        = "dispatch_progress_total"
	MetricCompletes       = "dispatch_completes_total" // counter{outcome}: done|failed
	MetricReleases        = "dispatch_releases_total"
	MetricLeaseExpiries   = "dispatch_lease_expiries_total"
	MetricAttemptsExhaust = "dispatch_attempts_exhausted_total"
	MetricJobAttempts     = "dispatch_job_attempts" // histogram: bookings per terminal cell
	MetricJournalAppend   = "dispatch_journal_append_seconds"
	MetricJournalFsyncs   = "dispatch_journal_fsyncs_total"
	MetricEncodeErrors    = "dispatch_response_encode_errors_total"
	// counter{what,reason}: observability a worker shipped that the queue
	// dropped instead of failing the cell — span{invalid|over_cap},
	// profile{not_stored}.
	MetricObservabilityDropped = "dispatch_observability_dropped_total"
	// Artifact store (served by dispatchd, counters maintained by the store
	// itself so Resume-time heal/GC work is included).
	MetricStoreBlobs       = "artifact_store_blobs"
	MetricStoreBytes       = "artifact_store_bytes"
	MetricStorePuts        = "artifact_store_puts_total" // counter{outcome}: stored|dedup
	MetricStoreRemoves     = "artifact_store_removes_total"
	MetricStoreRemoveFails = "artifact_store_remove_failures_total"
	MetricStoreGCRemoved   = "artifact_store_gc_removed_total"
	MetricStoreGCFails     = "artifact_store_gc_failures_total"
	// Worker (simworker).
	MetricWorkerCapacity  = "worker_capacity" // gauge{worker}: advertised concurrent-cell capacity
	MetricWorkerInflight  = "worker_inflight" // gauge{worker}: cells running right now
	MetricWorkerCells     = "worker_cells_total"
	MetricWorkerCellSecs  = "worker_cell_seconds" // histogram{worker}: per-cell wall time
	MetricWorkerHeartbeat = "worker_heartbeat_seconds"
	MetricWorkerBooks     = "worker_books_total"
	MetricWorkerBookFails = "worker_book_failures_total"
	MetricWorkerPhaseSecs = "worker_engine_phase_seconds" // histogram{worker,phase}: self-profiler time per phase per completed cell
)

// queueMetrics are the dispatcher-side instruments. The zero value — an
// uninstrumented queue (tests, RunLocal) — holds nil instruments, whose
// methods are no-ops.
type queueMetrics struct {
	books           *fleetmetrics.Counter
	rebooks         *fleetmetrics.Counter
	progress        *fleetmetrics.Counter
	completesDone   *fleetmetrics.Counter
	completesFailed *fleetmetrics.Counter
	releases        *fleetmetrics.Counter
	leaseExpiries   *fleetmetrics.Counter
	attemptsExhaust *fleetmetrics.Counter
	jobAttempts     *fleetmetrics.Histogram
	journalAppend   *fleetmetrics.Histogram
	journalFsyncs   *fleetmetrics.Counter
	spansInvalid    *fleetmetrics.Counter
	spansOverCap    *fleetmetrics.Counter
	profilesDropped *fleetmetrics.Counter
}

// Instrument registers the queue's fleet metrics — per-state depth gauges
// (which sum to the cell count: the conservation invariant the smoke
// asserts over promql), transition counters, the per-cell attempt
// histogram, journal append latency/fsync counters, the dropped-observability
// counter, and the artifact store's gauges and counters. Call once, before
// serving.
func (q *Queue) Instrument(reg *fleetmetrics.Registry) {
	const dropHelp = "spans and profiles dropped instead of failing their cell"
	m := queueMetrics{
		books:           reg.Counter(MetricBooks, "successful cell bookings"),
		rebooks:         reg.Counter(MetricRebooks, "bookings of a cell already attempted (lease expiry or release re-book)"),
		progress:        reg.Counter(MetricProgress, "accepted worker heartbeats"),
		completesDone:   reg.Counter(MetricCompletes, "accepted cell completions", "outcome", "done"),
		completesFailed: reg.Counter(MetricCompletes, "accepted cell completions", "outcome", "failed"),
		releases:        reg.Counter(MetricReleases, "cells handed back before lease expiry"),
		leaseExpiries:   reg.Counter(MetricLeaseExpiries, "leases that expired and re-queued their cell"),
		attemptsExhaust: reg.Counter(MetricAttemptsExhaust, "cells failed after exhausting their booking attempts"),
		jobAttempts: reg.Histogram(MetricJobAttempts, "bookings a cell took to reach a terminal state",
			fleetmetrics.LinearBuckets(1, 1, q.opts.maxAttempts)),
		journalAppend: reg.Histogram(MetricJournalAppend, "journal append latency",
			fleetmetrics.ExponentialBuckets(1e-5, 10, 6)),
		journalFsyncs: reg.Counter(MetricJournalFsyncs, "journal fsyncs (durable appends)"),
		spansInvalid: reg.Counter(MetricObservabilityDropped, dropHelp,
			"what", "span", "reason", "invalid"),
		spansOverCap: reg.Counter(MetricObservabilityDropped, dropHelp,
			"what", "span", "reason", "over_cap"),
		profilesDropped: reg.Counter(MetricObservabilityDropped, dropHelp,
			"what", "profile", "reason", "not_stored"),
	}
	q.mu.Lock()
	q.metrics = m
	if q.journal != nil {
		q.journal.observeAppend = func(d time.Duration) { m.journalAppend.Observe(d.Seconds()) }
		q.journal.countFsync = m.journalFsyncs.Inc
	}
	q.mu.Unlock()

	for st := JobQueued; st <= JobFailed; st++ {
		st := st
		reg.GaugeFunc(MetricQueueJobs, "cells per job state (sums to dispatch_queue_cells)",
			func() float64 { return float64(q.countState(st)) }, "state", st.String())
	}
	reg.GaugeFunc(MetricQueueCells, "total cells in the sweep matrix",
		func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(len(q.jobs))
		})

	s := q.store
	reg.GaugeFunc(MetricStoreBlobs, "blobs currently held by the content-addressed store",
		func() float64 { return float64(s.Stats().Blobs) })
	reg.GaugeFunc(MetricStoreBytes, "bytes currently held by the content-addressed store",
		func() float64 { return float64(s.Stats().Bytes) })
	reg.CounterFunc(MetricStorePuts, "blob puts", func() float64 { return float64(s.Stats().PutStored) },
		"outcome", "stored")
	reg.CounterFunc(MetricStorePuts, "blob puts", func() float64 { return float64(s.Stats().PutDedup) },
		"outcome", "dedup")
	reg.CounterFunc(MetricStoreRemoves, "blobs removed (heals and GC)",
		func() float64 { return float64(s.Stats().Removed) })
	reg.CounterFunc(MetricStoreRemoveFails, "blob removals that failed — damaged blobs still shadowing re-uploads",
		func() float64 { return float64(s.Stats().RemoveFailures) })
	reg.CounterFunc(MetricStoreGCRemoved, "orphan blobs collected by resume-time GC",
		func() float64 { return float64(s.Stats().GCRemoved) })
	reg.CounterFunc(MetricStoreGCFails, "GC removals that failed (orphans left behind)",
		func() float64 { return float64(s.Stats().GCRemoveFailures) })
}

// countState counts jobs in one state, reaping expired leases first so a
// scrape never reports a depth the next /book would contradict.
func (q *Queue) countState(st JobState) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(q.opts.now())
	n := 0
	for _, j := range q.jobs {
		if j.State == st {
			n++
		}
	}
	return n
}

// workerMetrics are the simworker-side instruments, labeled by worker ID
// so scrapes from several workers can share one telemetry store. The zero
// value (Worker.Metrics unset) holds nil instruments and records nothing.
type workerMetrics struct {
	inflight    *fleetmetrics.Gauge
	completed   *fleetmetrics.Counter
	abandoned   *fleetmetrics.Counter
	cellSecs    *fleetmetrics.Histogram
	heartbeat   *fleetmetrics.Histogram
	booksBooked *fleetmetrics.Counter
	booksEmpty  *fleetmetrics.Counter
	bookFails   *fleetmetrics.Counter

	// reg and lbl let observeProfile register per-phase series lazily —
	// the phase label values come from each completed cell's profile.
	reg *fleetmetrics.Registry
	lbl []string
}

// observeProfile exports one completed cell's per-phase self-profiler
// attribution into the worker's live /metrics: one histogram observation
// per phase, in seconds, labeled {worker, phase}. The registry memoizes
// series, so repeated cells accumulate into the same histograms.
func (m *workerMetrics) observeProfile(p *engprof.Profile) {
	if m.reg == nil {
		return
	}
	for name, c := range p.Phases {
		if c.Nanos <= 0 {
			continue
		}
		m.reg.Histogram(MetricWorkerPhaseSecs,
			"engine self-profiler wall time per phase per completed cell",
			fleetmetrics.ExponentialBuckets(1e-4, 4, 10),
			append(append([]string{}, m.lbl...), "phase", name)...).
			Observe(float64(c.Nanos) / 1e9)
	}
}

func newWorkerMetrics(reg *fleetmetrics.Registry, id string, capacity int) workerMetrics {
	lbl := []string{"worker", id}
	capGauge := reg.Gauge(MetricWorkerCapacity, "advertised concurrent-cell capacity", lbl...)
	capGauge.Set(float64(capacity))
	return workerMetrics{
		reg:       reg,
		lbl:       lbl,
		inflight:  reg.Gauge(MetricWorkerInflight, "cells running right now", lbl...),
		completed: reg.Counter(MetricWorkerCells, "cells finished", append(lbl, "outcome", "completed")...),
		abandoned: reg.Counter(MetricWorkerCells, "cells finished", append(lbl, "outcome", "abandoned")...),
		cellSecs: reg.Histogram(MetricWorkerCellSecs, "per-cell wall time",
			fleetmetrics.ExponentialBuckets(0.25, 2, 12), lbl...),
		heartbeat: reg.Histogram(MetricWorkerHeartbeat, "heartbeat round-trip time",
			fleetmetrics.ExponentialBuckets(1e-4, 10, 6), lbl...),
		booksBooked: reg.Counter(MetricWorkerBooks, "book attempts", append(lbl, "outcome", "booked")...),
		booksEmpty:  reg.Counter(MetricWorkerBooks, "book attempts", append(lbl, "outcome", "empty")...),
		bookFails:   reg.Counter(MetricWorkerBookFails, "transient book failures (dispatcher unreachable)", lbl...),
	}
}
