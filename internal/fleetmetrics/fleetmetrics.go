// Package fleetmetrics is the self-observability core of the dispatch
// fleet: a small counter/gauge/histogram registry with Prometheus text
// exposition and no external dependencies. Where internal/exporter renders
// the *simulated* telemetry plane, fleetmetrics renders the telemetry of
// the distributed system actually running the sweeps — dispatchd's queue,
// journal, and artifact store, and each simworker's booking loop — in the
// same exposition format internal/scrape already parses, so the repo's own
// scrape → telemetry → promql stack can answer "why is this sweep slow".
//
// The exposition is deterministic: families sort by name, series within a
// family sort by rendered label set, and histogram buckets emit in
// ascending order, so two writes of an unchanged registry are
// byte-identical (golden-tested). All instruments are safe for concurrent
// use; Write may run concurrently with instrumentation.
package fleetmetrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type family struct {
	name, help, kind string

	mu     sync.Mutex
	series map[string]*series
	order  []string // sorted series keys
}

type series struct {
	labels string // rendered `a="b",c="d"` (no braces), "" for unlabeled

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Counter is a monotonically increasing value. Like Gauge and Histogram, a
// nil one records nothing: code whose instruments are optional holds nil
// pointers and calls them unguarded.
type Counter struct{ bits atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta; negative deltas are ignored (counters only go up).
func (c *Counter) Add(delta float64) {
	if c == nil || delta < 0 {
		return
	}
	addFloat(&c.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta float64) {
	if g != nil {
		addFloat(&g.bits, delta)
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into cumulative buckets and tracks their
// sum — the fixed-bucket subset of the Prometheus histogram type
// (name_bucket{le="..."} series plus name_sum and name_count).
type Histogram struct {
	mu     sync.Mutex
	upper  []float64 // ascending upper bounds, +Inf excluded
	counts []uint64  // per-bucket (non-cumulative) counts, len(upper)+1
	sum    float64
	total  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// LinearBuckets returns count upper bounds start, start+width, ...
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExponentialBuckets returns count upper bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Counter registers (or returns the existing) counter for name plus the
// label pairs (alternating key, value). Registering the same name with a
// different metric kind panics — that is a programming error, not a
// runtime condition.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.getOrCreate(name, help, kindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.getOrCreate(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed at exposition time —
// the natural shape for state that already lives elsewhere (queue depth
// per job state, store blob count). fn must be safe to call from the
// exposition goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	s := r.getOrCreate(name, help, kindGauge, labels)
	s.fn = fn
}

// CounterFunc registers a counter read at exposition time from fn —
// for monotone counts maintained outside the registry (artifact store
// stats, which accumulate before the daemon instruments them).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	s := r.getOrCreate(name, help, kindCounter, labels)
	s.fn = fn
}

// Histogram registers (or returns the existing) histogram with the given
// bucket upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	s := r.getOrCreate(name, help, kindHistogram, labels)
	if s.hist == nil {
		upper := append([]float64(nil), buckets...)
		sort.Float64s(upper)
		s.hist = &Histogram{upper: upper, counts: make([]uint64, len(upper)+1)}
	}
	return s.hist
}

func (r *Registry) getOrCreate(name, help, kind string, labels []string) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("fleetmetrics: odd label pairs for %s", name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	r.mu.Unlock()
	if f.kind != kind {
		panic(fmt.Sprintf("fleetmetrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		f.series[key] = s
		i := sort.SearchStrings(f.order, key)
		f.order = append(f.order, "")
		copy(f.order[i+1:], f.order[i:])
		f.order[i] = key
	}
	return s
}

// renderLabels renders alternating pairs sorted by key: `a="b",c="d"`.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String()
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Write renders the registry in the Prometheus text exposition format with
// deterministic ordering.
func (r *Registry) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (f *family) write(w *bufio.Writer) error {
	f.mu.Lock()
	order := append([]string(nil), f.order...)
	rows := make([]*series, len(order))
	for i, key := range order {
		rows[i] = f.series[key]
	}
	f.mu.Unlock()
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range rows {
		switch {
		case s.hist != nil:
			s.hist.write(w, f.name, s.labels)
		default:
			var v float64
			switch {
			case s.fn != nil:
				v = s.fn()
			case s.counter != nil:
				v = s.counter.Value()
			case s.gauge != nil:
				v = s.gauge.Value()
			}
			if s.labels == "" {
				fmt.Fprintf(w, "%s %s\n", f.name, formatValue(v))
			} else {
				fmt.Fprintf(w, "%s{%s} %s\n", f.name, s.labels, formatValue(v))
			}
		}
	}
	return nil
}

func (h *Histogram) write(w *bufio.Writer, name, labels string) {
	h.mu.Lock()
	upper := h.upper
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	cum := uint64(0)
	emit := func(le string, v uint64) {
		if labels == "" {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, v)
		} else {
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, le, v)
		}
	}
	for i, bound := range upper {
		cum += counts[i]
		emit(formatValue(bound), cum)
	}
	emit("+Inf", total)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(sum))
		fmt.Fprintf(w, "%s_count %d\n", name, total)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatValue(sum))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, total)
	}
}

// Handler serves the registry at GET /metrics (and any other path it is
// mounted on) in the text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := r.Write(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
