// Package telemetry is an in-memory, labelled time-series store modeled on
// the Prometheus + Thanos monitoring backend of the SAP Cloud Infrastructure
// (Sec. 4). It stores samples appended by exporters or directly by the
// simulator, and answers the range queries and aggregations the paper's
// analysis requires (daily means, p95, max over node and VM populations).
//
// The store is sharded: series are distributed over a fixed number of
// shards by a 64-bit FNV-1a fingerprint of (metric, labels), each shard
// keeping its own lock, a metric→series postings index, and a label-value
// index, so concurrent ingestion scales with shard count and Select walks
// only candidate series instead of the whole store. A fixed-schema writer
// holds SeriesRef handles; batch ingestion of unknown series goes through an
// Appender (one lock acquisition per shard per flush); reads receive
// immutable views. A series' samples are a column (column.go): values in
// fixed-capacity chunks, timestamps as a (start, step) grid for as long as
// the writer keeps to one.
package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sapsim/internal/sim"
)

// Sample is one measurement point.
type Sample struct {
	T sim.Time
	V float64
}

// Labels is an immutable label set. Construct with NewLabels.
type Labels struct {
	kv []string // flattened sorted key, value pairs
}

// NewLabels builds a label set from alternating key, value strings.
func NewLabels(pairs ...string) (Labels, error) {
	if len(pairs)%2 != 0 {
		return Labels{}, errors.New("telemetry: odd number of label arguments")
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i] == "" {
			return Labels{}, errors.New("telemetry: empty label name")
		}
		ps = append(ps, pair{pairs[i], pairs[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	for i := 1; i < len(ps); i++ {
		if ps[i].k == ps[i-1].k {
			return Labels{}, fmt.Errorf("telemetry: duplicate label %q", ps[i].k)
		}
	}
	flat := make([]string, 0, len(pairs))
	for _, p := range ps {
		flat = append(flat, p.k, p.v)
	}
	return Labels{kv: flat}, nil
}

// MustLabels is NewLabels that panics on error; for constant label sets.
func MustLabels(pairs ...string) Labels {
	l, err := NewLabels(pairs...)
	if err != nil {
		panic(err)
	}
	return l
}

// Get returns the value of a label, or "".
func (l Labels) Get(name string) string {
	for i := 0; i < len(l.kv); i += 2 {
		if l.kv[i] == name {
			return l.kv[i+1]
		}
	}
	return ""
}

// Len reports the number of labels.
func (l Labels) Len() int { return len(l.kv) / 2 }

// Names returns the label names in sorted order.
func (l Labels) Names() []string {
	out := make([]string, 0, l.Len())
	for i := 0; i < len(l.kv); i += 2 {
		out = append(out, l.kv[i])
	}
	return out
}

// Pairs returns the flattened sorted key, value pairs. The slice is a copy.
func (l Labels) Pairs() []string {
	return append([]string(nil), l.kv...)
}

// With returns a copy of the set with one label added, or replaced if the
// name is already present. The receiver is unchanged (Labels stay
// immutable); scrapers use it to stamp a target-identity label onto every
// sample of a scrape.
func (l Labels) With(name, value string) Labels {
	kv := make([]string, 0, len(l.kv)+2)
	inserted := false
	for i := 0; i < len(l.kv); i += 2 {
		switch {
		case l.kv[i] == name:
			kv = append(kv, name, value)
			inserted = true
		case !inserted && l.kv[i] > name:
			kv = append(kv, name, value)
			inserted = true
			kv = append(kv, l.kv[i], l.kv[i+1])
		default:
			kv = append(kv, l.kv[i], l.kv[i+1])
		}
	}
	if !inserted {
		kv = append(kv, name, value)
	}
	return Labels{kv: kv}
}

// Equal reports whether two label sets are identical.
func (l Labels) Equal(o Labels) bool {
	if len(l.kv) != len(o.kv) {
		return false
	}
	for i, s := range l.kv {
		if o.kv[i] != s {
			return false
		}
	}
	return true
}

// String renders the label set in Prometheus selector syntax.
func (l Labels) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(l.kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.kv[i], l.kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// 64-bit FNV-1a. Series are keyed by this hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// hashSeries fingerprints (metric, labels) with a 0xff separator between
// components, so moving a byte across a component boundary changes the hash.
func hashSeries(metric string, l Labels) uint64 {
	h := fnvString(fnvOffset64, metric)
	for _, s := range l.kv {
		h ^= 0xff
		h *= fnvPrime64
		h = fnvString(h, s)
	}
	return h
}

// hashLabels fingerprints a label set alone (for interning).
func hashLabels(l Labels) uint64 {
	h := uint64(fnvOffset64)
	for _, s := range l.kv {
		h ^= 0xff
		h *= fnvPrime64
		h = fnvString(h, s)
	}
	return h
}
