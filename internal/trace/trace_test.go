package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func span(tr, id, parent, name string, start, end int64) Span {
	return Span{Trace: tr, ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestValidate(t *testing.T) {
	good := span("t", "a", "", "cell", 0, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid span rejected: %v", err)
	}
	for _, bad := range []Span{
		span("", "a", "", "cell", 0, 10),
		span("t", "", "", "cell", 0, 10),
		span("t", "a", "", "", 0, 10),
		span("t", "a", "", "cell", 10, 0),
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", bad)
		}
	}
}

func TestBuilderIDsAndRequeue(t *testing.T) {
	b := NewBuilder("t", "root", "job/a1")
	t0 := time.UnixMicro(1000)
	id1 := b.Add("build", t0, t0.Add(time.Millisecond), nil)
	id2 := b.Add("run", t0.Add(time.Millisecond), t0.Add(2*time.Millisecond), map[string]string{"k": "v"})
	if id1 != "job/a1/s1" || id2 != "job/a1/s2" {
		t.Fatalf("ids = %q, %q", id1, id2)
	}
	batch := b.Drain()
	if len(batch) != 2 || b.Len() != 0 {
		t.Fatalf("drain: %d spans, %d left", len(batch), b.Len())
	}
	// A failed send requeues the batch; new spans mint fresh IDs after it.
	b.Requeue(batch)
	id3 := b.Add("upload", t0, t0.Add(time.Millisecond), nil)
	if id3 != "job/a1/s3" {
		t.Fatalf("post-requeue id = %q, want job/a1/s3", id3)
	}
	all := b.Drain()
	if len(all) != 3 || all[0].ID != "job/a1/s1" || all[2].ID != "job/a1/s3" {
		t.Fatalf("requeued order wrong: %+v", all)
	}
	if all[0].Parent != "root" {
		t.Fatalf("builder parent not applied: %+v", all[0])
	}
}

// TestBuilderClampsBackwardClockStep: times without a monotonic reading
// whose wall clock stepped back between start and end give a zero-length
// span, not one that ends before it starts and fails Validate.
func TestBuilderClampsBackwardClockStep(t *testing.T) {
	b := NewBuilder("t", "root", "job/a1")
	start := time.UnixMicro(5_000_000_000)
	b.Add("run", start, start.Add(-time.Hour), nil)
	b.Add("ok", start, start.Add(1500*time.Microsecond), nil)
	spans := b.Drain()
	for _, s := range spans {
		if err := s.Validate(); err != nil {
			t.Fatalf("span %s: %v", s.Name, err)
		}
	}
	if got := spans[0]; got.Start != Micros(start) || got.End != got.Start {
		t.Errorf("stepped-back span = [%d, %d], want [%d, %[3]d]", got.Start, got.End, Micros(start))
	}
	if got := spans[1]; got.End-got.Start != 1500 {
		t.Errorf("forward span lasts %d µs, want 1500", got.End-got.Start)
	}
}

func TestMergeDedupAndOrphanAdoption(t *testing.T) {
	root := span("cell", "cell-1", "", "cell", 0, 100)
	attempt := span("cell", "cell-1/a1", "cell-1", "attempt", 10, 90)
	dup := attempt
	dup.Name = "attempt-duplicate-should-lose"
	// Orphan: parent span was never journaled (crashed worker).
	orphan := span("cell", "cell-1/a1/s9", "cell-1/a1/s-missing", "upload", 20, 30)

	merged := Merge([]Span{attempt, root}, []Span{dup, orphan})
	if len(merged) != 3 {
		t.Fatalf("merged %d spans, want 3 (dup dropped)", len(merged))
	}
	for _, s := range merged {
		if s.ID == "cell-1/a1" && s.Name != "attempt" {
			t.Fatalf("duplicate span overwrote the first occurrence: %+v", s)
		}
		if s.ID == "cell-1/a1/s9" && s.Parent != "cell-1" {
			t.Fatalf("orphan not adopted by trace root: %+v", s)
		}
	}
	// Deterministic order: root first (same start, longer), then children.
	if merged[0].ID != "cell-1" {
		t.Fatalf("sort order: first span is %q, want root", merged[0].ID)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	spans := []Span{
		span("base/v0/seed7", "cell-1", "", "cell", 0, 1_000_000),
		span("base/v0/seed7", "cell-1/q1", "cell-1", "queue-wait", 0, 200_000),
		span("base/v0/seed7", "cell-1/a1", "cell-1", "attempt", 200_000, 1_000_000),
		span("base/v0/seed7", "cell-1/a1/s1", "cell-1/a1", "build", 210_000, 260_000),
		span("base/v0/seed7", "cell-1/a1/s2", "cell-1/a1", "run", 260_000, 990_000),
		span("base/v0/seed9", "cell-2", "", "cell", 0, 500_000),
	}
	spans[2].Attrs = map[string]string{"worker": "w1", "outcome": "done"}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	// The file must be well-formed Chrome trace JSON with complete events.
	var raw struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	var xEvents int
	for _, ev := range raw.TraceEvents {
		if ev["ph"] == "X" {
			xEvents++
		}
	}
	if xEvents != len(spans) {
		t.Fatalf("%d X events, want %d", xEvents, len(spans))
	}

	back, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadChromeTrace: %v", err)
	}
	want := Merge(spans)
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, want)
	}

	// Determinism: a permuted input must export byte-identically.
	perm := []Span{spans[4], spans[0], spans[5], spans[2], spans[1], spans[3]}
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, perm); err != nil {
		t.Fatalf("WriteChromeTrace(perm): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("export is not deterministic under input permutation")
	}
}

func TestChromeTraceLaneContainment(t *testing.T) {
	// Two overlapping siblings inside one parent must land on different
	// tids — Chrome nests same-tid X events by containment, and a partial
	// overlap on one lane renders as garbage.
	spans := []Span{
		span("t", "p", "", "attempt", 0, 100),
		span("t", "c1", "p", "run", 10, 60),
		span("t", "c2", "p", "artifact-render", 50, 80),
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	tid := map[string]int{}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		tid[ev.Args["id"].(string)] = ev.TID
	}
	if tid["c1"] != tid["p"] {
		t.Errorf("contained child c1 on tid %d, parent on %d — want same lane", tid["c1"], tid["p"])
	}
	if tid["c2"] == tid["c1"] {
		t.Error("overlapping siblings share a lane; Chrome cannot nest a partial overlap")
	}
}
