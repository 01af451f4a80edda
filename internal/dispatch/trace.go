package dispatch

import (
	"fmt"
	"path/filepath"

	"sapsim/internal/scenario"
	"sapsim/internal/trace"
)

// CellTraceID names the trace that groups every span of one sweep cell.
// It is stable across attempts, workers, and dispatcher restarts — the
// cell's identity, not any particular execution of it.
func CellTraceID(key scenario.Key) string {
	return fmt.Sprintf("%s/%s/seed%d", key.Scenario, key.Variant, key.Seed)
}

// cellSpanID is the cell's root span: queued at sweep creation, closed at
// its final result.
func cellSpanID(job int) string { return fmt.Sprintf("cell-%d", job) }

// attemptSpanID is one booking of a cell. BookResponse hands it to the
// worker as the parent for worker-side spans, so the dispatcher-derived
// attempt span and the worker's engine phases join up at merge time
// without any coordination.
func attemptSpanID(job, attempt int) string { return fmt.Sprintf("cell-%d/a%d", job, attempt) }

// TraceFromJournal reconstructs the sweep's full cell-lifecycle trace from
// dir's journal: per cell, a root span covering queued→done, queue-wait
// spans for every stretch spent waiting (initial wait and post-expiry
// re-queues), one attempt span per booking (annotated with worker and
// outcome), instants for journaled snapshot pointers, and every
// worker-shipped span record merged in. It reads only the journal —
// a crashed, resumed, and drained sweep reconstructs the same way a clean
// one does, which is the point: the trace survives everything the queue
// survives.
func TraceFromJournal(dir string) ([]trace.Span, error) {
	replay, err := replayJournal(filepath.Join(dir, JournalName))
	if err != nil {
		return nil, err
	}
	keys := replay.spec.Keys()

	type attempt struct {
		id      int // attempt number
		worker  string
		startTS int64
	}
	type cellState struct {
		queuedAt  int64 // start of the current queue-wait stretch
		open      *attempt
		waits     int
		instants  int
		lastTS    int64
		endTS     int64 // result time; 0 while unfinished
		sawResult bool
	}
	cells := make([]cellState, len(keys))
	for i := range cells {
		cells[i] = cellState{queuedAt: replay.headerTS, lastTS: replay.headerTS}
	}

	var spans []trace.Span
	closeAttempt := func(job int, c *cellState, ts int64, outcome string) {
		if c.open == nil {
			return
		}
		spans = append(spans, trace.Span{
			Trace:  CellTraceID(keys[job]),
			ID:     attemptSpanID(job, c.open.id),
			Parent: cellSpanID(job),
			Name:   "attempt",
			Start:  c.open.startTS,
			End:    ts,
			Attrs:  map[string]string{"worker": c.open.worker, "outcome": outcome},
		})
		c.open = nil
	}

	for _, rec := range replay.records {
		if rec.T == recArtifact {
			continue
		}
		if rec.Job < 0 || rec.Job >= len(cells) {
			continue
		}
		c := &cells[rec.Job]
		if rec.TS > c.lastTS {
			c.lastTS = rec.TS
		}
		tid := CellTraceID(keys[rec.Job])
		switch rec.T {
		case recState:
			switch rec.State {
			case JobBooked.String():
				c.waits++
				spans = append(spans, trace.Span{
					Trace: tid, ID: fmt.Sprintf("%s/q%d", cellSpanID(rec.Job), c.waits),
					Parent: cellSpanID(rec.Job), Name: "queue-wait",
					Start: c.queuedAt, End: rec.TS,
				})
				// A re-book without an intervening queued record (shouldn't
				// happen, but journals see crashes) closes the old attempt.
				closeAttempt(rec.Job, c, rec.TS, "superseded")
				c.open = &attempt{id: rec.Attempt, worker: rec.Worker, startTS: rec.TS}
			case JobQueued.String():
				closeAttempt(rec.Job, c, rec.TS, "requeued")
				c.queuedAt = rec.TS
				// A post-result re-queue (Resume's artifact audit)
				// invalidates the result; the root span re-opens.
				c.sawResult = false
				c.endTS = 0
			}
		case string(BlobSnapshot):
			parent := cellSpanID(rec.Job)
			if c.open != nil {
				parent = attemptSpanID(rec.Job, c.open.id)
			}
			c.instants++
			spans = append(spans, trace.Span{
				Trace: tid, ID: fmt.Sprintf("%s/i%d", cellSpanID(rec.Job), c.instants),
				Parent: parent, Name: "snapshot-record", Start: rec.TS, End: rec.TS,
			})
		case recResult:
			outcome := "done"
			if rec.Run != nil && rec.Run.Err != "" {
				outcome = "failed"
			}
			closeAttempt(rec.Job, c, rec.TS, outcome)
			c.endTS = rec.TS
			c.sawResult = true
		case recSpan:
			if rec.Span != nil && rec.Span.Validate() == nil {
				spans = append(spans, *rec.Span)
			}
		}
	}

	for job := range cells {
		c := &cells[job]
		// An attempt the journal never closed (in flight at the tail, or
		// the crash ate the result) ends at the cell's last record.
		closeAttempt(job, c, c.lastTS, "interrupted")
		end := c.endTS
		if !c.sawResult {
			end = c.lastTS
		}
		spans = append(spans, trace.Span{
			Trace: CellTraceID(keys[job]), ID: cellSpanID(job), Name: "cell",
			Start: replay.headerTS, End: end,
		})
	}
	return trace.Merge(spans), nil
}
