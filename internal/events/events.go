// Package events records the scheduling-relevant event stream the dataset
// releases alongside the telemetry (Sec. 4: "scheduling-relevant events (if
// occurring within the observation period), such as creation, migration,
// resize, and deletion"). Events are append-only, time-ordered, and export
// to the same anonymized CSV style as the metric data.
package events

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"sapsim/internal/sim"
)

// Type enumerates the event kinds of the released dataset.
type Type string

// Event kinds. Migration distinguishes the intra-BB (DRS) and cross-BB
// (external rebalancer) cases because only the latter touches placement.
const (
	Create         Type = "create"
	Delete         Type = "delete"
	MigrateIntraBB Type = "migrate_intra_bb"
	MigrateCrossBB Type = "migrate_cross_bb"
	Resize         Type = "resize"
	ScheduleFailed Type = "schedule_failed"
	// Evacuate records a VM rescheduled off a failed or draining host
	// through the normal Nova pipeline (scenario injections).
	Evacuate Type = "evacuate"
	// EvacuateFailed records an evacuation that found no valid host; the
	// VM is lost.
	EvacuateFailed Type = "evacuate_failed"
)

// valid reports whether t is a known event type.
func (t Type) valid() bool {
	switch t {
	case Create, Delete, MigrateIntraBB, MigrateCrossBB, Resize, ScheduleFailed,
		Evacuate, EvacuateFailed:
		return true
	}
	return false
}

// Event is one dataset event row.
type Event struct {
	At   sim.Time
	Type Type
	VM   string
	// Flavor is the VM's flavor at event time (the new flavor for
	// resizes).
	Flavor string
	// Source and Target are node IDs; empty where not applicable
	// (Source empty for creations, Target empty for deletions).
	Source string
	Target string
}

// Log is an append-only event log. The zero value is ready to use.
type Log struct {
	events []Event
}

// ErrBadEvent is returned for malformed events.
var ErrBadEvent = errors.New("events: malformed event")

// Append records an event. Events must be appended in non-decreasing time
// order, mirroring how the monitoring pipeline observes them.
func (l *Log) Append(e Event) error {
	if !e.Type.valid() {
		return fmt.Errorf("%w: unknown type %q", ErrBadEvent, e.Type)
	}
	if e.VM == "" {
		return fmt.Errorf("%w: missing vm", ErrBadEvent)
	}
	if n := len(l.events); n > 0 && l.events[n-1].At > e.At {
		return fmt.Errorf("%w: out of order at %v", ErrBadEvent, e.At)
	}
	l.events = append(l.events, e)
	return nil
}

// Len reports the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// All returns the events in order. The returned slice aliases internal
// storage; callers must not mutate it.
func (l *Log) All() []Event { return l.events }

// CountByType tallies the log.
func (l *Log) CountByType() map[Type]int {
	out := make(map[Type]int)
	for _, e := range l.events {
		out[e.Type]++
	}
	return out
}

// DailyChurn is one day's lifecycle activity — the basis of churn analysis
// over the observation window.
type DailyChurn struct {
	Day        int
	Creates    int
	Deletes    int
	Migrations int
	Resizes    int
	Failures   int
}

// Churn buckets the log into per-day activity over days [0, days).
func (l *Log) Churn(days int) []DailyChurn {
	out := make([]DailyChurn, days)
	for d := range out {
		out[d].Day = d
	}
	for _, e := range l.events {
		d := int(e.At / sim.Day)
		if d < 0 || d >= days {
			continue
		}
		switch e.Type {
		case Create:
			out[d].Creates++
		case Delete:
			out[d].Deletes++
		case MigrateIntraBB, MigrateCrossBB, Evacuate:
			out[d].Migrations++
		case Resize:
			out[d].Resizes++
		case ScheduleFailed, EvacuateFailed:
			out[d].Failures++
		}
	}
	return out
}

// Anonymizer matches dataset.Anonymizer without importing it (avoids a
// dependency cycle with the dataset package re-using this log).
type Anonymizer interface {
	Hash(string) string
}

// WriteCSV exports the log. When anon is non-nil, VM and node identifiers
// are hashed (Appendix A).
func (l *Log) WriteCSV(w io.Writer, anon Anonymizer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"ts_seconds", "type", "vm", "flavor", "source", "target"}); err != nil {
		return err
	}
	id := func(s string) string {
		if anon == nil || s == "" {
			return s
		}
		return anon.Hash(s)
	}
	for _, e := range l.events {
		rec := []string{
			strconv.FormatFloat(e.At.Seconds(), 'f', -1, 64),
			string(e.Type),
			id(e.VM),
			e.Flavor,
			id(e.Source),
			id(e.Target),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV imports a log written by WriteCSV.
func ReadCSV(r io.Reader) (*Log, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 6
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("events: reading header: %w", err)
	}
	if header[0] != "ts_seconds" || header[1] != "type" {
		return nil, fmt.Errorf("events: unexpected header %v", header)
	}
	log := &Log{}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("events: line %d: %w", line, err)
		}
		line++
		ts, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("events: line %d: bad timestamp %q", line, rec[0])
		}
		e := Event{
			At:     sim.Time(ts * float64(sim.Second)),
			Type:   Type(rec[1]),
			VM:     rec[2],
			Flavor: rec[3],
			Source: rec[4],
			Target: rec[5],
		}
		if err := log.Append(e); err != nil {
			return nil, fmt.Errorf("events: line %d: %w", line, err)
		}
	}
	return log, nil
}
