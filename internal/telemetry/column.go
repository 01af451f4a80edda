package telemetry

import (
	"math"
	"sort"

	"sapsim/internal/sim"
)

// chunkCap is the number of values in one chunk. A chunk is allocated whole
// and never reallocated, so the store allocates what it keeps and a series
// over-reserves at most chunkCap-1 values. It is small because most series
// are: a VM lives days, not the window, and its hourly series averages
// about a hundred samples, so a larger chunk's unused tail would outweigh
// the 8-byte chunk pointer it saves.
const chunkCap = 32

// column is the samples of one series: values in fixed-capacity chunks and
// timestamps as the grid start + i·step for as long as every append lands
// on it (every sampler-written series does, for good), as an explicit
// times column after the first one that does not. The first n values are
// immutable: an append writes value n and extends chunks and times past
// what any copy of the column can reach, so a copy taken under the shard
// lock with its slices capped (view) is a stable snapshot.
type column struct {
	start, step sim.Time
	n           int
	times       []sim.Time // nil while the series is on its grid
	chunks      []*[chunkCap]float64
}

func (c *column) timeAt(i int) sim.Time {
	if c.times != nil {
		return c.times[i]
	}
	return c.start + sim.Time(i)*c.step
}

func (c *column) valueAt(i int) float64 { return c.chunks[i/chunkCap][i%chunkCap] }

// run returns the values from index i up to hi or the end of i's chunk,
// whichever is first, aliasing the chunk.
func (c *column) run(i, hi int) []float64 {
	off := i % chunkCap
	return c.chunks[i/chunkCap][off:min(chunkCap, off+hi-i)]
}

// countUpTo returns how many samples have a timestamp <= t: index
// arithmetic on a grid, binary search on explicit times.
func (c *column) countUpTo(t sim.Time) int {
	switch {
	case c.times != nil:
		return sort.Search(c.n, func(i int) bool { return c.times[i] > t })
	case c.n == 0 || t < c.start:
		return 0
	case t >= c.timeAt(c.n-1):
		return c.n
	}
	return int((t-c.start)/c.step) + 1
}

// countBefore returns how many samples have a timestamp < t.
func (c *column) countBefore(t sim.Time) int {
	if t == math.MinInt64 {
		return 0
	}
	return c.countUpTo(t - 1)
}

// append adds one sample, or returns false if t is not after the last one.
func (c *column) append(t sim.Time, v float64) bool {
	switch {
	case c.n == 0:
		c.start = t
	case t <= c.timeAt(c.n-1):
		return false
	case c.times != nil:
		c.times = append(c.times, t)
	case c.n == 1:
		c.step = t - c.start
	case t != c.start+sim.Time(c.n)*c.step:
		times := make([]sim.Time, c.n, 2*c.n)
		for i := range times {
			times[i] = c.timeAt(i)
		}
		c.times = append(times, t)
		c.start, c.step = 0, 0
	}
	if c.n%chunkCap == 0 {
		c.chunks = append(c.chunks, new([chunkCap]float64))
	}
	c.chunks[c.n/chunkCap][c.n%chunkCap] = v
	c.n++
	return true
}

// view returns a copy whose slices end at the current length.
func (c *column) view() column {
	v := *c
	v.times = c.times[:len(c.times):len(c.times)]
	v.chunks = c.chunks[:len(c.chunks):len(c.chunks)]
	return v
}

// bytes reports the memory the value and time columns hold, by capacity.
func (c *column) bytes() int {
	return 8 * (chunkCap*len(c.chunks) + cap(c.times))
}

// Series is an immutable view of one time series: a metric name, a label
// set, and samples in strictly increasing time order. A series returned by
// Store.Select never changes — later appends are invisible to it — and
// shares the store's value chunks instead of copying them. The zero value
// is an empty series.
type Series struct {
	Metric string
	Labels Labels
	col    column
}

// Len reports the number of samples.
func (s *Series) Len() int { return s.col.n }

// Sample returns sample i, 0 <= i < Len.
func (s *Series) Sample(i int) Sample {
	return Sample{T: s.col.timeAt(i), V: s.col.valueAt(i)}
}

// Last returns the most recent sample, or false if the series is empty.
func (s *Series) Last() (Sample, bool) {
	if s.col.n == 0 {
		return Sample{}, false
	}
	return s.Sample(s.col.n - 1), true
}

// At returns the value at or immediately before t (Prometheus instant-query
// staleness semantics, without the staleness window).
func (s *Series) At(t sim.Time) (float64, bool) {
	i := s.col.countUpTo(t)
	if i == 0 {
		return 0, false
	}
	return s.col.valueAt(i - 1), true
}

// Range returns the window of samples with from <= T < to.
func (s *Series) Range(from, to sim.Time) Window {
	lo := s.col.countBefore(from)
	return Window{col: &s.col, lo: lo, hi: max(lo, s.col.countBefore(to))}
}

// All returns the window covering the whole series.
func (s *Series) All() Window { return Window{col: &s.col, hi: s.col.n} }

// Window is a contiguous run of a series' samples. It copies nothing: the
// aggregates in this package read it chunk by chunk in sample order.
type Window struct {
	col    *column
	lo, hi int
}

// Len reports the number of samples in the window.
func (w Window) Len() int { return w.hi - w.lo }

// Sample returns the window's sample i, 0 <= i < Len.
func (w Window) Sample(i int) Sample {
	return Sample{T: w.col.timeAt(w.lo + i), V: w.col.valueAt(w.lo + i)}
}

// runs yields the window's values in sample order, as slices aliasing the
// store's chunks.
func (w Window) runs(yield func([]float64) bool) {
	for i := w.lo; i < w.hi; {
		run := w.col.run(i, w.hi)
		if !yield(run) {
			return
		}
		i += len(run)
	}
}

// AppendValues appends the window's values to dst in sample order.
func (w Window) AppendValues(dst []float64) []float64 {
	for run := range w.runs {
		dst = append(dst, run...)
	}
	return dst
}

// Values returns a copy of the window's values in sample order: the one
// allocation a Percentile over a window costs.
func (w Window) Values() []float64 {
	return w.AppendValues(make([]float64, 0, w.Len()))
}
