package telemetry

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"sapsim/internal/sim"
)

// memSeries is the mutable in-store representation of one series. The
// exported Series type is a read-only view of it.
type memSeries struct {
	metric string
	labels Labels
	col    column
}

// appendSample enforces strict time order. Called with the write lock held.
func (s *memSeries) appendSample(t sim.Time, v float64) error {
	if !s.col.append(t, v) {
		return fmt.Errorf("%w: %s%s t=%v last=%v",
			ErrOutOfOrder, s.metric, s.labels, t, s.col.timeAt(s.col.n-1))
	}
	return nil
}

// snapshot returns an immutable view. Called with the lock held.
func (s *memSeries) snapshot() *Series {
	return &Series{Metric: s.metric, Labels: s.labels, col: s.col.view()}
}

// Store holds many series and is safe for concurrent use (the exporter
// scrape path and the simulator may interleave). It is append-only: a
// series is never removed and a stored sample is never rewritten. One lock
// guards every index; every list is kept in creation order, which is the
// order Select and Dump return.
type Store struct {
	mu sync.RWMutex
	// all holds every series in creation order.
	all []*memSeries
	// byHash chains fingerprint collisions; chains are almost always
	// length 1.
	byHash map[uint64][]*memSeries
	// postings indexes metric name → member series.
	postings map[string][]*memSeries
	// byLabel indexes label name → value → member series, so an equality
	// matcher can seed candidate selection with the smallest posting list.
	byLabel map[string]map[string][]*memSeries
	// interned deduplicates label sets store-wide: every series created
	// with an equal label set shares one backing slice. Hash collisions
	// chain.
	interned map[uint64][]Labels
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		byHash:   make(map[uint64][]*memSeries),
		postings: make(map[string][]*memSeries),
		byLabel:  make(map[string]map[string][]*memSeries),
		interned: make(map[uint64][]Labels),
	}
}

// ErrOutOfOrder is returned when appending a sample at or before the last
// timestamp of its series.
var ErrOutOfOrder = errors.New("telemetry: out-of-order sample")

// intern returns the canonical copy of a label set. Called with the write
// lock held.
func (st *Store) intern(l Labels) Labels {
	h := hashLabels(l)
	for _, c := range st.interned[h] {
		if c.Equal(l) {
			return c
		}
	}
	st.interned[h] = append(st.interned[h], l)
	return l
}

// lookup returns the series of (metric, labels), or nil. Called with the
// lock held.
func (st *Store) lookup(hash uint64, metric string, labels Labels) *memSeries {
	for _, s := range st.byHash[hash] {
		if s.metric == metric && s.labels.Equal(labels) {
			return s
		}
	}
	return nil
}

// getOrCreate resolves (metric, labels) to its series, creating and
// indexing it on first use. Called with the write lock held.
func (st *Store) getOrCreate(hash uint64, metric string, labels Labels) *memSeries {
	if s := st.lookup(hash, metric, labels); s != nil {
		return s
	}
	s := &memSeries{metric: metric, labels: st.intern(labels)}
	st.all = append(st.all, s)
	st.byHash[hash] = append(st.byHash[hash], s)
	st.postings[metric] = append(st.postings[metric], s)
	for i := 0; i < len(s.labels.kv); i += 2 {
		name, value := s.labels.kv[i], s.labels.kv[i+1]
		vals := st.byLabel[name]
		if vals == nil {
			vals = make(map[string][]*memSeries)
			st.byLabel[name] = vals
		}
		vals[value] = append(vals[value], s)
	}
	return s
}

// Append adds a sample to the series identified by (metric, labels),
// creating it on first use. A writer with a fixed schema resolves SeriesRef
// handles once and writes each sweep with AppendAll instead.
func (st *Store) Append(metric string, labels Labels, t sim.Time, v float64) error {
	hash := hashSeries(metric, labels)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.getOrCreate(hash, metric, labels).appendSample(t, v)
}

// Matcher restricts a selection to series whose label equals a value.
type Matcher struct {
	Name  string
	Value string
}

// Select returns snapshots of all series of the metric whose labels
// satisfy every matcher, in creation order. The postings and label-value
// indexes bound the work by the smallest candidate list, so cost is
// proportional to matching series, not store size. Snapshots are immune to
// subsequent appends, and the selection is made under the read lock, so it
// sees each AppendAll batch whole or not at all.
func (st *Store) Select(metric string, matchers ...Matcher) []*Series {
	st.mu.RLock()
	defer st.mu.RUnlock()
	candidates := st.postings[metric]
	// Seed from the smallest index posting list; every candidate is still
	// verified against the metric and all matchers below. An empty-value
	// matcher means "label absent", which the index cannot serve, so those
	// fall through to the filter.
	for _, m := range matchers {
		if m.Value == "" {
			continue
		}
		if byValue := st.byLabel[m.Name][m.Value]; len(byValue) < len(candidates) {
			candidates = byValue
		}
	}
	var out []*Series
	for _, s := range candidates {
		if s.metric != metric {
			continue
		}
		ok := true
		for _, m := range matchers {
			if s.labels.Get(m.Name) != m.Value {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, s.snapshot())
		}
	}
	return out
}

// Metrics returns the distinct metric names in the store, sorted.
func (st *Store) Metrics() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, 0, len(st.postings))
	for metric := range st.postings {
		out = append(out, metric)
	}
	sort.Strings(out)
	return out
}

// each calls fn on every series under the read lock, so it sees each
// AppendAll batch whole or not at all.
func (st *Store) each(fn func(*memSeries)) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, s := range st.all {
		fn(s)
	}
}

// SeriesCount reports the number of stored series.
func (st *Store) SeriesCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.all)
}

// SampleCount reports the total number of stored samples.
func (st *Store) SampleCount() int {
	n := 0
	st.each(func(s *memSeries) { n += s.col.n })
	return n
}

// Bytes reports the memory held by the value and time columns of every
// series, by capacity: 8 per sample plus each series' unfilled chunk tail
// while all series are on their grids, 16 per sample for those that are
// not. The 8-byte pointer per chunk is not counted.
func (st *Store) Bytes() int {
	n := 0
	st.each(func(s *memSeries) { n += s.col.bytes() })
	return n
}

// SeriesData is a copy of one series: the metric, the label pairs, and the
// samples as the store holds them — Values with the grid (Start, Step) they
// were written on, or with explicit Times (then Start and Step are zero).
type SeriesData struct {
	Metric      string
	Labels      []string // flattened name/value pairs, sorted by name
	Start, Step sim.Time
	Times       []sim.Time // empty for a series on its grid
	Values      []float64
}

// Dump copies every series out in creation order.
func (st *Store) Dump() []SeriesData {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]SeriesData, 0, len(st.all))
	for _, s := range st.all {
		c := &s.col
		out = append(out, SeriesData{
			Metric: s.metric, Labels: s.labels.Pairs(),
			Start: c.start, Step: c.step, Times: slices.Clone(c.times),
			Values: Window{col: c, hi: c.n}.Values(),
		})
	}
	return out
}
