package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program
// under test. Lane 0 is the driver goroutine, whose spans nest and never
// overlap; the other lanes hold the in-process workers' HTTP calls, which
// run beside the driver and therefore stay out of the ledger.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int // index of the span that caused this one; -1 for a rep's root
	Rep        int
	Lane       int
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced reps pay one nil check per call.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) begin(name string, parent, rep, lane int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: time.Now(), Parent: parent, Rep: rep, Lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// probe times one call made outside any rep — a layer probe — under a
// span of its own.
func (r *recorder) probe(name string, call func() error) (time.Duration, error) {
	id := r.begin(name, -1, -1, 0)
	start := time.Now()
	err := call()
	wall := time.Since(start)
	r.end(id)
	return wall, err
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds from the first span), loadable in Perfetto or
// chrome://tracing.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Sub(r.spans[0].Start).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.Parent, "rep": s.Rep},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerRow is one line of a rep's ledger: the self time of every span of
// that name, which is its duration minus the part its children cover.
type ledgerRow struct {
	Name  string
	Self  time.Duration
	Count int
}

// ledger attributes the wall time of the driver-lane span root to the
// names below it. Driver spans nest without overlap, so the rows sum to
// root's duration. extra adds rows that are not spans — the engine's own
// phase accounting — as children of the span they happened inside.
func (r *recorder) ledger(root int, extra map[int][]ledgerRow) []ledgerRow {
	self := map[string]*ledgerRow{}
	add := func(name string, d time.Duration) {
		row := self[name]
		if row == nil {
			row = &ledgerRow{Name: name}
			self[name] = row
		}
		row.Self += d
		row.Count++
	}
	var walk func(id int)
	walk = func(id int) {
		s := r.spans[id]
		own := s.End.Sub(s.Start)
		for c, child := range r.spans {
			if child.Parent == id && child.Lane == 0 {
				own -= child.End.Sub(child.Start)
				walk(c)
			}
		}
		for _, row := range extra[id] {
			own -= row.Self
			add(row.Name, row.Self)
		}
		add(s.Name, own)
	}
	walk(root)
	rows := make([]ledgerRow, 0, len(self))
	for _, row := range self {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

func printLedger(w io.Writer, workload string, wall time.Duration, rows []ledgerRow) {
	var sum time.Duration
	fmt.Fprintf(w, "ledger %s (traced rep, self time)\n", workload)
	for _, row := range rows {
		sum += row.Self
		fmt.Fprintf(w, "  %-28s %10.3f ms %6.2f%%  x%d\n", row.Name,
			float64(row.Self.Nanoseconds())/1e6, 100*float64(row.Self)/float64(wall), row.Count)
	}
	fmt.Fprintf(w, "  %-28s %10.3f ms %6.2f%% of rep wall %.3f ms\n", "sum",
		float64(sum.Nanoseconds())/1e6, 100*float64(sum)/float64(wall), float64(wall.Nanoseconds())/1e6)
}
