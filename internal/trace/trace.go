// Package trace is a dependency-free span model for the cell lifecycle,
// with a Chrome trace-event JSON exporter loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// A Span is a named wall-clock interval inside a trace. Traces group the
// spans of one sweep cell (scenario/variant/seed); the dispatcher derives
// its spans from the journal, workers ship theirs over the dispatch wire
// protocol, and the exporter merges both into one deterministic file.
//
// Span IDs are strings and must be unique within a trace. Processes mint
// IDs in disjoint namespaces by construction (the dispatcher uses
// "cell-<job>" and "<job>/a<attempt>" prefixes, worker builders append
// "/s<n>"), so merging never needs coordination.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Span is one named interval (or instant, when End == Start) in a trace.
// Times are wall-clock microseconds since the Unix epoch: coarse enough to
// serialize compactly, fine enough for phase attribution.
type Span struct {
	Trace  string            `json:"trace"`
	ID     string            `json:"id"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  int64             `json:"start"`
	End    int64             `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span length, clamped to non-negative.
func (s Span) Duration() time.Duration {
	if s.End <= s.Start {
		return 0
	}
	return time.Duration(s.End-s.Start) * time.Microsecond
}

// Validate rejects spans that cannot be exported coherently.
func (s Span) Validate() error {
	if s.Trace == "" {
		return errors.New("trace: span has no trace ID")
	}
	if s.ID == "" {
		return errors.New("trace: span has no ID")
	}
	if s.Name == "" {
		return errors.New("trace: span has no name")
	}
	if s.End < s.Start {
		return fmt.Errorf("trace: span %s ends (%d) before it starts (%d)", s.ID, s.End, s.Start)
	}
	return nil
}

// Micros converts a wall-clock time to span microseconds.
func Micros(t time.Time) int64 { return t.UnixMicro() }

// Builder mints spans for one trace with sequentially-numbered IDs under a
// fixed prefix, so concurrent builders in different processes (or attempts)
// can never collide. It is not safe for concurrent use; callers serialize.
type Builder struct {
	trace  string
	parent string
	prefix string
	seq    int
	spans  []Span
}

// NewBuilder returns a builder whose spans belong to trace, default to
// parent, and take IDs prefix + "/s<n>".
func NewBuilder(trace, parent, prefix string) *Builder {
	return &Builder{trace: trace, parent: parent, prefix: prefix}
}

// Add records a finished span under the builder's default parent and
// returns its ID.
func (b *Builder) Add(name string, start, end time.Time, attrs map[string]string) string {
	return b.AddChild(b.parent, name, start, end, attrs)
}

// AddChild records a finished span under an explicit parent span ID. The
// span lasts end.Sub(start), which reads the monotonic clock when both times
// carry it, so a wall-clock step between them cannot end the span before it
// starts; without monotonic readings a negative duration is clamped to zero.
func (b *Builder) AddChild(parent, name string, start, end time.Time, attrs map[string]string) string {
	b.seq++
	id := fmt.Sprintf("%s/s%d", b.prefix, b.seq)
	from := Micros(start)
	b.spans = append(b.spans, Span{
		Trace:  b.trace,
		ID:     id,
		Parent: parent,
		Name:   name,
		Start:  from,
		End:    from + max(0, end.Sub(start)).Microseconds(),
		Attrs:  attrs,
	})
	return id
}

// Drain returns the accumulated spans and resets the buffer; the sequence
// counter keeps running so re-added spans never reuse IDs.
func (b *Builder) Drain() []Span {
	out := b.spans
	b.spans = nil
	return out
}

// Requeue puts spans back at the front of the buffer after a failed send.
func (b *Builder) Requeue(spans []Span) {
	if len(spans) == 0 {
		return
	}
	b.spans = append(spans, b.spans...)
}

// Len reports the number of buffered spans.
func (b *Builder) Len() int { return len(b.spans) }

// Sort orders spans deterministically: by trace, then start time, then
// longest-first (so parents sort before the children they contain), then ID
// as the final tiebreak. Exports, merges, and analysis all use this order.
func Sort(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End > b.End
		}
		return a.ID < b.ID
	})
}

// Merge combines span streams into one deterministic slice: duplicates
// (same trace + ID, e.g. a heartbeat retried after a dropped response) keep
// the first occurrence, and spans whose parent is absent are adopted by
// their trace's root span (the unparented span with the earliest start) so
// a crash that loses an intermediate span never detaches a subtree.
func Merge(streams ...[]Span) []Span {
	var merged []Span
	seen := make(map[[2]string]bool)
	for _, stream := range streams {
		for _, s := range stream {
			k := [2]string{s.Trace, s.ID}
			if seen[k] {
				continue
			}
			seen[k] = true
			merged = append(merged, s)
		}
	}
	Sort(merged)

	// Index span IDs and find each trace's root (first unparented span in
	// sorted order, i.e. earliest start).
	ids := make(map[[2]string]bool, len(merged))
	root := make(map[string]string)
	for _, s := range merged {
		ids[[2]string{s.Trace, s.ID}] = true
		if s.Parent == "" {
			if _, ok := root[s.Trace]; !ok {
				root[s.Trace] = s.ID
			}
		}
	}
	for i := range merged {
		s := &merged[i]
		if s.Parent == "" || ids[[2]string{s.Trace, s.Parent}] {
			continue
		}
		if r, ok := root[s.Trace]; ok && r != s.ID {
			s.Parent = r
		} else {
			s.Parent = ""
		}
	}
	return merged
}

// chromeEvent is one entry of the Chrome trace-event format's JSON Array
// flavor. Complete ("X") events carry ts+dur in microseconds; metadata
// ("M") events name processes and threads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports spans as Chrome trace-event JSON. Each trace
// becomes one process (pid); within a trace, spans are packed onto thread
// lanes (tid) such that a span shares a lane with its enclosing ancestors —
// Chrome/Perfetto infer nesting from containment on the same tid. Output is
// deterministic for a given span set.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	merged := Merge(spans)
	for _, s := range merged {
		if err := s.Validate(); err != nil {
			return err
		}
	}

	var events []chromeEvent
	pids := make(map[string]int)
	for _, s := range merged { // merged is sorted by trace
		if _, ok := pids[s.Trace]; !ok {
			pid := len(pids) + 1
			pids[s.Trace] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": s.Trace},
			})
		}
	}

	byTrace := make(map[string][]Span)
	for _, s := range merged {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	traces := make([]string, 0, len(byTrace))
	for t := range byTrace {
		traces = append(traces, t)
	}
	sort.Strings(traces)

	// Lane assignment per trace: walk spans in sorted order (start asc,
	// longer-first) and pack them onto thread lanes. Chrome nests the X
	// events of one tid by strict containment, so a lane can take a span
	// only if it nests inside the lane's innermost still-open span (or
	// starts after everything on the lane has closed). Each lane keeps a
	// stack of open span ends to enforce exactly that; the parent's lane
	// is tried first so subtrees stay visually together.
	for _, t := range traces {
		group := byTrace[t]
		pid := pids[t]
		var lanes [][]int64        // per-lane stack of open span ends
		laneOf := map[string]int{} // span ID -> lane
		fits := func(i int, s Span) bool {
			stack := lanes[i]
			for len(stack) > 0 && stack[len(stack)-1] <= s.Start {
				stack = stack[:len(stack)-1]
			}
			lanes[i] = stack
			return len(stack) == 0 || s.End <= stack[len(stack)-1]
		}
		for _, s := range group {
			tid := -1
			if s.Parent != "" {
				if pl, ok := laneOf[s.Parent]; ok && fits(pl, s) {
					tid = pl
				}
			}
			if tid == -1 {
				for i := range lanes {
					if fits(i, s) {
						tid = i
						break
					}
				}
			}
			if tid == -1 {
				lanes = append(lanes, nil)
				tid = len(lanes) - 1
			}
			lanes[tid] = append(lanes[tid], s.End)
			laneOf[s.ID] = tid

			args := map[string]any{"id": s.ID}
			if s.Parent != "" {
				args["parent"] = s.Parent
			}
			for k, v := range s.Attrs {
				args[k] = v
			}
			dur := s.End - s.Start
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", TS: s.Start, Dur: &dur,
				PID: pid, TID: tid + 1, Args: args,
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTraceFile exports spans as a Chrome trace-event file at path.
func WriteChromeTraceFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadChromeTrace reconstructs spans from a file written by
// WriteChromeTrace. It reads only "X" events and relies on the id/parent
// args the exporter embeds; process_name metadata recovers the trace ID.
// It refuses a span WriteChromeTrace would refuse, and merges the rest as
// the exporter does, so whatever it returns writes back and re-reads to
// the same spans.
func ReadChromeTrace(r io.Reader) ([]Span, error) {
	var f chromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: decode chrome trace: %w", err)
	}
	names := make(map[int]string)
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if n, ok := ev.Args["name"].(string); ok {
				names[ev.PID] = n
			}
		}
	}
	var spans []Span
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s := Span{
			Trace: names[ev.PID],
			Name:  ev.Name,
			Start: ev.TS,
		}
		if s.Trace == "" {
			s.Trace = fmt.Sprintf("pid-%d", ev.PID)
		}
		if ev.Dur != nil {
			s.End = ev.TS + *ev.Dur
		} else {
			s.End = ev.TS
		}
		for k, v := range ev.Args {
			str, ok := v.(string)
			if !ok {
				continue
			}
			switch k {
			case "id":
				s.ID = str
			case "parent":
				s.Parent = str
			default:
				if s.Attrs == nil {
					s.Attrs = make(map[string]string)
				}
				s.Attrs[k] = str
			}
		}
		if s.ID == "" {
			return nil, fmt.Errorf("trace: X event %q has no id arg (not written by this exporter?)", ev.Name)
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return Merge(spans), nil
}
