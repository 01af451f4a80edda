package telemetry

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sapsim/internal/sim"
)

// shardCount is the number of independently locked shards. A power of two
// so shard selection is a mask; fixed so shard assignment is stable for
// the lifetime of a store.
const shardCount = 16

// memSeries is the mutable in-store representation of one series. The
// exported Series type is a read-only view of it.
type memSeries struct {
	metric string
	labels Labels
	hash   uint64 // hashSeries(metric, labels)
	seq    uint64 // global creation sequence, for deterministic Select order
	col    column
}

// appendSample enforces strict time order. Called with the shard lock held.
func (s *memSeries) appendSample(t sim.Time, v float64) error {
	if !s.col.append(t, v) {
		return fmt.Errorf("%w: %s%s t=%v last=%v",
			ErrOutOfOrder, s.metric, s.labels, t, s.col.timeAt(s.col.n-1))
	}
	return nil
}

// snapshot returns an immutable view. Called with the shard lock held.
func (s *memSeries) snapshot() *Series {
	return &Series{Metric: s.metric, Labels: s.labels, col: s.col.view()}
}

// shard is one lock domain: a fraction of the series keyed by fingerprint
// hash, plus the indexes that make Select proportional to result size.
type shard struct {
	mu sync.RWMutex
	// series chains fingerprint collisions; chains are almost always
	// length 1.
	series map[uint64][]*memSeries
	// postings indexes metric name → member series in creation order.
	postings map[string][]*memSeries
	// byLabel indexes label name → value → member series, so an equality
	// matcher can seed candidate selection with the smallest posting list.
	byLabel map[string]map[string][]*memSeries
}

func (sh *shard) init() {
	sh.series = make(map[uint64][]*memSeries)
	sh.postings = make(map[string][]*memSeries)
	sh.byLabel = make(map[string]map[string][]*memSeries)
}

// Store holds many series and is safe for concurrent use (the exporter
// scrape path and the simulator may interleave). It is append-only: a
// series is never removed and a stored sample is never rewritten.
type Store struct {
	shards [shardCount]shard
	seq    atomic.Uint64

	// interned deduplicates label sets store-wide: every series created
	// with an equal label set shares one backing slice. Hash collisions
	// chain.
	internMu sync.Mutex
	interned map[uint64][]Labels
}

// NewStore returns an empty store.
func NewStore() *Store {
	st := &Store{interned: make(map[uint64][]Labels)}
	for i := range st.shards {
		st.shards[i].init()
	}
	return st
}

// ErrOutOfOrder is returned when appending a sample at or before the last
// timestamp of its series.
var ErrOutOfOrder = errors.New("telemetry: out-of-order sample")

func (st *Store) shardFor(hash uint64) *shard {
	return &st.shards[hash&(shardCount-1)]
}

// intern returns the canonical copy of a label set.
func (st *Store) intern(l Labels) Labels {
	h := hashLabels(l)
	st.internMu.Lock()
	defer st.internMu.Unlock()
	for _, c := range st.interned[h] {
		if c.Equal(l) {
			return c
		}
	}
	st.interned[h] = append(st.interned[h], l)
	return l
}

// lookup returns the series of (metric, labels), or nil. Called with the
// shard lock held.
func (sh *shard) lookup(hash uint64, metric string, labels Labels) *memSeries {
	for _, s := range sh.series[hash] {
		if s.metric == metric && s.labels.Equal(labels) {
			return s
		}
	}
	return nil
}

// getOrCreate resolves (metric, labels) to its series, creating and
// indexing it on first use. Called with the shard write lock held.
func (st *Store) getOrCreate(sh *shard, hash uint64, metric string, labels Labels) *memSeries {
	if s := sh.lookup(hash, metric, labels); s != nil {
		return s
	}
	s := &memSeries{
		metric: metric,
		labels: st.intern(labels),
		hash:   hash,
		seq:    st.seq.Add(1),
	}
	sh.series[hash] = append(sh.series[hash], s)
	sh.postings[metric] = append(sh.postings[metric], s)
	for i := 0; i < len(s.labels.kv); i += 2 {
		name, value := s.labels.kv[i], s.labels.kv[i+1]
		vals := sh.byLabel[name]
		if vals == nil {
			vals = make(map[string][]*memSeries)
			sh.byLabel[name] = vals
		}
		vals[value] = append(vals[value], s)
	}
	return s
}

// Append adds a sample to the series identified by (metric, labels),
// creating it on first use. For bulk ingestion prefer an Appender, which
// batches samples and takes each shard lock once per flush.
func (st *Store) Append(metric string, labels Labels, t sim.Time, v float64) error {
	hash := hashSeries(metric, labels)
	sh := st.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return st.getOrCreate(sh, hash, metric, labels).appendSample(t, v)
}

// Matcher restricts a selection to series whose label equals a value.
type Matcher struct {
	Name  string
	Value string
}

// Select returns snapshots of all series of the metric whose labels
// satisfy every matcher, in deterministic (creation) order. The postings
// and label-value indexes bound the work by the smallest candidate list,
// so cost is proportional to matching series, not store size. Snapshots
// are immune to subsequent appends.
func (st *Store) Select(metric string, matchers ...Matcher) []*Series {
	type hit struct {
		seq uint64
		s   *Series
	}
	var hits []hit
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		candidates := sh.postings[metric]
		// Seed from the smallest index posting list; every candidate is
		// still verified against the metric and all matchers below. An
		// empty-value matcher means "label absent", which the index cannot
		// serve, so those fall through to the filter.
		for _, m := range matchers {
			if m.Value == "" {
				continue
			}
			byValue := sh.byLabel[m.Name][m.Value]
			if len(byValue) < len(candidates) {
				candidates = byValue
			}
		}
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
				hits = append(hits, hit{seq: s.seq, s: s.snapshot()})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].seq < hits[j].seq })
	out := make([]*Series, 0, len(hits))
	for _, h := range hits {
		out = append(out, h.s)
	}
	return out
}

// Metrics returns the distinct metric names in the store, sorted.
func (st *Store) Metrics() []string {
	seen := map[string]bool{}
	var out []string
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for metric := range sh.postings {
			if !seen[metric] {
				seen[metric] = true
				out = append(out, metric)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// each calls fn on every series, shard by shard under the shard's read lock.
func (st *Store) each(fn func(*memSeries)) {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, chain := range sh.series {
			for _, s := range chain {
				fn(s)
			}
		}
		sh.mu.RUnlock()
	}
}

// SeriesCount reports the number of stored series.
func (st *Store) SeriesCount() int {
	n := 0
	st.each(func(*memSeries) { n++ })
	return n
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

// SeriesData is the serializable form of one series: the metric, the label
// pairs, and the samples as the store holds them — Values with the grid
// (Start, Step) they were written on, or with explicit Times (then Start and
// Step are zero). A store dumped and re-loaded behaves identically —
// including the per-metric creation order Select's determinism rests on.
type SeriesData struct {
	Metric      string
	Labels      []string // flattened name/value pairs, sorted by name
	Start, Step sim.Time
	Times       []sim.Time // empty for a series on its grid
	Values      []float64
}

// column validates the samples and copies them into store form.
func (d *SeriesData) column() (column, error) {
	n := len(d.Values)
	c := column{n: n, chunks: make([]*[chunkCap]float64, 0, (n+chunkCap-1)/chunkCap)}
	switch {
	case len(d.Times) > 0:
		if len(d.Times) != n {
			return c, fmt.Errorf("%d timestamps for %d values", len(d.Times), n)
		}
		for i := 1; i < n; i++ {
			if d.Times[i] <= d.Times[i-1] {
				return c, fmt.Errorf("%w: t=%v last=%v", ErrOutOfOrder, d.Times[i], d.Times[i-1])
			}
		}
		c.times = slices.Clone(d.Times)
	case n > 1:
		span := d.Step * sim.Time(n-1)
		if d.Step <= 0 || span/sim.Time(n-1) != d.Step || d.Start+span < d.Start {
			return c, fmt.Errorf("%w: grid start=%v step=%v n=%d", ErrOutOfOrder, d.Start, d.Step, n)
		}
		c.start, c.step = d.Start, d.Step
	case n == 1:
		c.start = d.Start
	}
	for i := 0; i < n; i += chunkCap {
		chunk := new([chunkCap]float64)
		copy(chunk[:], d.Values[i:])
		c.chunks = append(c.chunks, chunk)
	}
	return c, nil
}

// Dump snapshots every series in global creation order. Together with Load
// it round-trips a store through a snapshot.
func (st *Store) Dump() []SeriesData {
	type hit struct {
		seq uint64
		d   SeriesData
	}
	var hits []hit
	st.each(func(s *memSeries) {
		c := &s.col
		hits = append(hits, hit{seq: s.seq, d: SeriesData{
			Metric: s.metric, Labels: s.labels.Pairs(),
			Start: c.start, Step: c.step, Times: slices.Clone(c.times),
			Values: Window{col: c, hi: c.n}.Values(),
		}})
	})
	sort.Slice(hits, func(i, j int) bool { return hits[i].seq < hits[j].seq })
	out := make([]SeriesData, 0, len(hits))
	for _, h := range hits {
		out = append(out, h.d)
	}
	return out
}

// Load replays a Dump into an empty store, recreating every series in the
// dumped order so creation sequence — and with it Select order — survives
// the round trip. The data may come from a damaged or foreign snapshot, so
// a series that the store could not have dumped — timestamps not strictly
// increasing, a count mismatch, a (metric, labels) pair seen before — fails
// the load.
func (st *Store) Load(data []SeriesData) error {
	if st.SeriesCount() != 0 {
		return errors.New("telemetry: Load into a non-empty store")
	}
	for i := range data {
		d := &data[i]
		labels, err := NewLabels(d.Labels...)
		if err != nil {
			return fmt.Errorf("telemetry: load %s: %w", d.Metric, err)
		}
		col, err := d.column()
		if err != nil {
			return fmt.Errorf("telemetry: load %s%s: %w", d.Metric, labels, err)
		}
		hash := hashSeries(d.Metric, labels)
		sh := st.shardFor(hash)
		sh.mu.Lock()
		dup := sh.lookup(hash, d.Metric, labels) != nil
		if !dup {
			st.getOrCreate(sh, hash, d.Metric, labels).col = col
		}
		sh.mu.Unlock()
		if dup {
			return fmt.Errorf("telemetry: load %s%s: duplicate series", d.Metric, labels)
		}
	}
	return nil
}

// Querier is the read side of the store: the interface the analysis layer
// and the PromQL evaluator consume, decoupling them from the concrete
// sharded implementation.
type Querier interface {
	// Select returns immutable snapshots of the matching series in a
	// deterministic order.
	Select(metric string, matchers ...Matcher) []*Series
	// Metrics returns the distinct metric names, sorted.
	Metrics() []string
}

var _ Querier = (*Store)(nil)
