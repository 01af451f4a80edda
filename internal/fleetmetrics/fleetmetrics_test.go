package fleetmetrics

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the full text format: family ordering (by
// name), series ordering (by rendered label set), histogram bucket/sum/
// count rows, HELP/TYPE comments — and that two consecutive writes of an
// unchanged registry are byte-identical.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total", "last family by name").Add(3)
	r.Gauge("alpha_depth", "per-state depth", "state", "queued").Set(4)
	r.Gauge("alpha_depth", "per-state depth", "state", "booked").Set(1.5)
	r.GaugeFunc("mid_blobs", "computed at write time", func() float64 { return 7 })
	h := r.Histogram("beta_seconds", "latency", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(99)

	want := strings.Join([]string{
		`# HELP alpha_depth per-state depth`,
		`# TYPE alpha_depth gauge`,
		`alpha_depth{state="booked"} 1.5`,
		`alpha_depth{state="queued"} 4`,
		`# HELP beta_seconds latency`,
		`# TYPE beta_seconds histogram`,
		`beta_seconds_bucket{le="0.1"} 1`,
		`beta_seconds_bucket{le="1"} 3`,
		`beta_seconds_bucket{le="10"} 3`,
		`beta_seconds_bucket{le="+Inf"} 4`,
		`beta_seconds_sum 100.05`,
		`beta_seconds_count 4`,
		`# HELP mid_blobs computed at write time`,
		`# TYPE mid_blobs gauge`,
		`mid_blobs 7`,
		`# HELP zeta_total last family by name`,
		`# TYPE zeta_total counter`,
		`zeta_total 3`,
	}, "\n") + "\n"

	var first, second bytes.Buffer
	if err := r.Write(&first); err != nil {
		t.Fatal(err)
	}
	if got := first.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := r.Write(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("two writes of an unchanged registry differ")
	}
}

// TestHandlerServesText: the HTTP handler emits the exposition with the
// Prometheus content type.
func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "requests_total 1\n") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

// TestIdempotentRegistration: re-registering the same (name, labels)
// returns the same instrument, so instrumented components can register
// lazily without double-counting.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h", "k", "v")
	b := r.Counter("c_total", "h", "k", "v")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("shared counter value = %g", b.Value())
	}
	if g := r.Gauge("g", "h"); g != r.Gauge("g", "h") {
		t.Fatal("same gauge registered twice")
	}
}

// TestKindMismatchPanics: one name, two kinds is a programming error.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("x_total", "")
}

// TestConcurrentInstrumentation hammers every instrument type from many
// goroutines while another goroutine writes the exposition — the -race
// guarantee the live dispatcher depends on (scrapes happen mid-sweep).
func TestConcurrentInstrumentation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "")
	g := r.Gauge("inflight", "")
	h := r.Histogram("lat_seconds", "", ExponentialBuckets(0.001, 10, 5))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(n%7) / 100)
				// Concurrent registration of labeled children, too.
				r.Counter("labeled_total", "", "worker", string(rune('a'+i%4))).Inc()
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 200; n++ {
			var buf bytes.Buffer
			if err := r.Write(&buf); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("ops_total = %g, want 8000", c.Value())
	}
	if got := h.Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if g.Value() != 0 {
		t.Fatalf("inflight = %g, want 0", g.Value())
	}
}

// TestNilInstrumentsRecordNothing: an uninstrumented queue or worker holds
// nil instruments and calls them unguarded.
func TestNilInstrumentsRecordNothing(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Inc()
	c.Add(2)
	g.Set(3)
	g.Add(1)
	g.Inc()
	g.Dec()
	h.Observe(0.5)
}

// TestConcurrentHistogramRegistration: goroutines that register one
// histogram at once get one instrument, so no observation is lost to a
// histogram another goroutine replaced. Run with -race.
func TestConcurrentHistogramRegistration(t *testing.T) {
	r := NewRegistry()
	const goroutines, perGoroutine = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				r.Histogram("cell_seconds", "", []float64{1, 10}, "phase", "sample").Observe(float64(i))
			}
		}()
	}
	var out bytes.Buffer
	if err := r.Write(&out); err != nil { // exposition races registration too
		t.Fatal(err)
	}
	wg.Wait()
	if got := r.Histogram("cell_seconds", "", nil, "phase", "sample").Count(); got != goroutines*perGoroutine {
		t.Errorf("histogram counted %d observations, want %d", got, goroutines*perGoroutine)
	}
}
