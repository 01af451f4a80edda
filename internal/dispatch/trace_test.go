package dispatch

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sapsim/internal/fleetmetrics"
	"sapsim/internal/trace"
)

// TestTraceSurvivesCrashResume: a cell booked, partially traced, and lost
// to a dispatcher crash must reassemble into one well-formed trace after
// Resume re-books it and a second worker finishes — every span parented
// into a single root per cell, no orphans, both attempts visible.
func TestTraceSurvivesCrashResume(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	dir := t.TempDir()
	q, err := NewQueue(dir, testSpec(), QueueOptions{Lease: time.Minute, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}

	clock.advance(2 * time.Second)
	job, _, err := q.Book("w1", 1)
	if err != nil || job == nil {
		t.Fatalf("Book: %v, %v", job, err)
	}
	tid := CellTraceID(job.Key)
	parent := attemptSpanID(job.ID, job.Attempt)

	// First holder ships a build span and a heartbeat, then the
	// dispatcher dies with the cell in flight.
	b1 := trace.NewBuilder(tid, parent, parent)
	start := clock.t
	clock.advance(time.Second)
	b1.Add("build", start, clock.t, nil)
	if err := q.RecordSpans(job.ID, "w1", job.Attempt, b1.Drain()); err != nil {
		t.Fatal(err)
	}
	// A stale reporter (wrong attempt nonce) must be rejected, or a zombie
	// would pollute the re-booked attempt's trace.
	zombie := trace.NewBuilder(tid, parent, parent+"-zombie")
	zombie.Add("run", start, clock.t, nil)
	if err := q.RecordSpans(job.ID, "w1", job.Attempt+1, zombie.Drain()); !errors.Is(err, ErrStale) {
		t.Fatalf("stale RecordSpans = %v, want ErrStale", err)
	}
	if err := q.Progress(job.ID, "w1", job.Attempt); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume re-queues the in-flight cell; a survivor re-books and runs
	// it to completion, shipping spans concurrently (exercised under
	// -race in CI).
	clock.advance(3 * time.Second)
	q2, err := Resume(dir, QueueOptions{Lease: time.Minute, now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	clock.advance(time.Second)
	job2, _, err := q2.Book("w2", 1)
	if err != nil || job2 == nil {
		t.Fatalf("re-book: %v, %v", job2, err)
	}
	if job2.ID != job.ID || job2.Attempt != 2 {
		t.Fatalf("re-book got job %d attempt %d, want job %d attempt 2", job2.ID, job2.Attempt, job.ID)
	}
	parent2 := attemptSpanID(job2.ID, job2.Attempt)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := trace.NewBuilder(tid, parent2, fmt.Sprintf("%s/g%d", parent2, g))
			b.Add("run", start, start.Add(time.Second), nil)
			if err := q2.RecordSpans(job2.ID, "w2", job2.Attempt, b.Drain()); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	// One span references a parent that never made it into the journal
	// (the crash ate it): the merge must adopt it, not detach it.
	orphan := []trace.Span{{Trace: tid, ID: parent2 + "/lost-child", Parent: parent + "/s99",
		Name: "artifact-render", Start: trace.Micros(start), End: trace.Micros(start)}}
	if err := q2.RecordSpans(job2.ID, "w2", job2.Attempt, orphan); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Second)
	digest := putBody(t, q2, "fig5 body")
	if err := q2.Complete(job2.ID, "w2", job2.Attempt,
		RunResult{Digests: map[string]string{"fig5": digest}}); err != nil {
		t.Fatal(err)
	}

	spans, err := TraceFromJournal(dir)
	if err != nil {
		t.Fatal(err)
	}

	ids := map[string]bool{}
	var roots, attempts, workerSpans int
	var cellRoot trace.Span
	for _, s := range spans {
		if s.Trace != tid {
			continue
		}
		ids[s.ID] = true
		switch {
		case s.Parent == "":
			roots++
			cellRoot = s
		case s.Name == "attempt":
			attempts++
		}
		if strings.HasPrefix(s.ID, parent+"/") || strings.HasPrefix(s.ID, parent2+"/") {
			workerSpans++
		}
	}
	if roots != 1 {
		t.Fatalf("cell trace has %d roots, want exactly 1", roots)
	}
	if cellRoot.ID != cellSpanID(job.ID) || cellRoot.Name != "cell" {
		t.Fatalf("root span = %+v, want the cell span", cellRoot)
	}
	if attempts != 2 {
		t.Fatalf("%d attempt spans, want 2 (one per booking across the crash)", attempts)
	}
	if workerSpans != 4 {
		t.Fatalf("%d worker spans, want 4 (build + 2 runs + adopted orphan)", workerSpans)
	}
	// No orphans: every parent must resolve within the trace.
	for _, s := range spans {
		if s.Trace != tid || s.Parent == "" {
			continue
		}
		if !ids[s.Parent] {
			t.Errorf("span %s has unresolved parent %s", s.ID, s.Parent)
		}
		if s.Start < cellRoot.Start || s.End > cellRoot.End {
			t.Errorf("span %s [%d,%d] escapes the cell root [%d,%d]",
				s.ID, s.Start, s.End, cellRoot.Start, cellRoot.End)
		}
	}
	// Attempt outcomes: the crashed booking is requeued, the second done.
	for _, s := range spans {
		if s.Name != "attempt" || s.Trace != tid {
			continue
		}
		want := map[string]string{
			attemptSpanID(job.ID, 1): "requeued",
			attemptSpanID(job.ID, 2): "done",
		}[s.ID]
		if s.Attrs["outcome"] != want {
			t.Errorf("attempt %s outcome = %q, want %q", s.ID, s.Attrs["outcome"], want)
		}
	}

	// The full journal-derived trace (all four cells) must export cleanly.
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatalf("export: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace export")
	}
}

// TestRecordSpansValidation: a batch's malformed spans, and its spans past
// maxSpansPerReport, never reach the journal. They are dropped and
// counted, and the rest of the batch lands.
func TestRecordSpansValidation(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	q, dir := newTestQueue(t, QueueOptions{Lease: time.Minute, now: clock.now})
	reg := fleetmetrics.NewRegistry()
	q.Instrument(reg)
	job, _, err := q.Book("w1", 1)
	if err != nil || job == nil {
		t.Fatalf("Book: %v, %v", job, err)
	}
	if err := q.RecordSpans(job.ID, "w1", job.Attempt, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
	mixed := []trace.Span{{Trace: "t", ID: "good", Name: "run"}, {Trace: "", ID: "no-trace", Name: "y"}}
	if err := q.RecordSpans(job.ID, "w1", job.Attempt, mixed); err != nil {
		t.Fatalf("batch with one malformed span: %v", err)
	}
	huge := make([]trace.Span, maxSpansPerReport+1)
	for i := range huge {
		huge[i] = trace.Span{Trace: "t", ID: fmt.Sprintf("s%d", i), Name: "n"}
	}
	if err := q.RecordSpans(job.ID, "w1", job.Attempt, huge); err != nil {
		t.Fatalf("oversized batch: %v", err)
	}
	ids := map[string]bool{}
	for _, s := range journaledSpans(t, dir) {
		ids[s.ID] = true
	}
	if len(ids) != 1+maxSpansPerReport || !ids["good"] || ids["no-trace"] ||
		!ids["s0"] || ids[fmt.Sprintf("s%d", maxSpansPerReport)] {
		t.Errorf("journaled %d spans; want the valid one and the first %d of the oversized batch",
			len(ids), maxSpansPerReport)
	}
	for reason, want := range map[string]float64{"invalid": 1, "over_cap": 1} {
		if got := dropped(reg, "span", reason); got != want {
			t.Errorf("%s{what=span,reason=%s} = %g, want %g", MetricObservabilityDropped, reason, got, want)
		}
	}
}

// journaledSpans returns the span records of dir's journal.
func journaledSpans(t *testing.T, dir string) []trace.Span {
	t.Helper()
	replay, err := replayJournal(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	var spans []trace.Span
	for _, rec := range replay.records {
		if rec.T == recSpan {
			spans = append(spans, *rec.Span)
		}
	}
	return spans
}

// dropped reads one series of the dropped-observability counter.
func dropped(reg *fleetmetrics.Registry, what, reason string) float64 {
	return reg.Counter(MetricObservabilityDropped, "", "what", what, "reason", reason).Value()
}

// TestReportSpansCap: a report carries at most maxSpansPerReport spans, in
// the order they finished. A heartbeat keeps the rest for the next report;
// the completion drops them and counts them.
func TestReportSpansCap(t *testing.T) {
	b := trace.NewBuilder("t", "p", "p")
	at := time.Unix(1000, 0)
	for i := 0; i < maxSpansPerReport+88; i++ {
		b.Add("run", at, at, nil)
	}
	first, dropped := reportSpans(b, false)
	if len(first) != maxSpansPerReport || dropped != 0 || b.Len() != 88 || first[0].ID != "p/s1" {
		t.Fatalf("heartbeat report: %d spans from %s, %d dropped, %d kept; want %d from p/s1, 0, 88",
			len(first), first[0].ID, dropped, b.Len(), maxSpansPerReport)
	}
	b.Add("artifact-render", at, at, nil)
	rest, dropped := reportSpans(b, false)
	if len(rest) != 89 || dropped != 0 || rest[0].ID != fmt.Sprintf("p/s%d", maxSpansPerReport+1) {
		t.Fatalf("next report: %d spans from %s, %d dropped; want 89 from the first one held back",
			len(rest), rest[0].ID, dropped)
	}
	for i := 0; i < maxSpansPerReport+5; i++ {
		b.Add("run", at, at, nil)
	}
	final, dropped := reportSpans(b, true)
	if len(final) != maxSpansPerReport || dropped != 5 || b.Len() != 0 {
		t.Fatalf("final report: %d spans, %d dropped, %d kept; want %d, 5, 0",
			len(final), dropped, b.Len(), maxSpansPerReport)
	}
}
