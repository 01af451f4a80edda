package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// fingerprint is what one rep produced, one entry per operation checked:
// a cell's simulated statistics, an artifact's digest, a query's result
// hash. Equal seeds must give equal fingerprints on every rep, and for
// seed 42 the pinned golden one.
type fingerprint map[string]string

// repOut is what a workload hands back from one timed rep.
type repOut struct {
	// ops is how many operations the rep completed (see endToEnd).
	ops int
	// held keeps the rep's result reachable while the live heap is read.
	held any
	// check computes the fingerprint after the clock has stopped.
	check func() (fingerprint, error)
}

// workload is one set of inputs. The harness drives it closed-loop from
// one goroutine: set-up, then reps back to back.
type workload interface {
	// setup builds the inputs from the seed and leaves the workload ready
	// for rep. The harness times it setupReps times and reports the median.
	setup() error
	setupReps() int
	// minReps is the fewest reps a full-size run makes, whatever the
	// budget.
	minReps() int
	// rep runs one timed repetition; root is the rep's root span (-1 when
	// rec is nil).
	rep(rec *recorder, root, id int) (repOut, error)
	// reference returns the fingerprint computed by another path in
	// set-up that every rep must equal (nil when there is none).
	reference() fingerprint
	// layers runs after the traced rep and returns the per-layer metrics
	// this workload's layers produce, plus the engine-phase rows that
	// refine the traced rep's ledger.
	layers(rec *recorder) (map[string]float64, map[int][]ledgerRow, error)
	close()
}

// repSample is one timed rep as the harness measured it.
type repSample struct {
	wall    time.Duration
	ops     int
	alloc   uint64 // bytes allocated during the rep
	mallocs uint64
	heapMB  float64 // live heap after the rep, 0 when not read
}

// result is one run of one workload.
type result struct {
	workload   string
	seed       uint64
	traced     bool
	setup      []time.Duration
	reps       []repSample // untraced
	tracedReps []repSample
	attempted  int
	failed     int
	failures   []string
	metrics    map[string]float64
}

// heapReads is how many reps read the live heap. Each read forces a full
// collection, on render_query of a heap that holds the whole 30-day store,
// and three samples are enough for a number that repeats within 1%.
const heapReads = 3

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// timedRep runs one rep between two MemStats reads. A traced rep gets a
// root span so that the ledger has a wall to sum to.
func timedRep(w workload, rec *recorder, name string, id int, readHeap bool) (repSample, repOut, int, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	root := rec.begin(name+".rep", -1, id, 0)
	out, err := w.rep(rec, root, id)
	rec.end(root)
	s := repSample{wall: time.Since(start), ops: out.ops}
	if err != nil {
		return s, out, root, err
	}
	runtime.ReadMemStats(&after)
	s.alloc = after.TotalAlloc - before.TotalAlloc
	s.mallocs = after.Mallocs - before.Mallocs
	if readHeap {
		runtime.GC()
		runtime.ReadMemStats(&after)
		s.heapMB = mb(after.HeapAlloc)
		runtime.KeepAlive(out.held)
	}
	return s, out, root, nil
}

// runWorkload is one run as the driver sees it: set-up, reps for about
// seconds, correctness checks. A traced run alternates untraced reps with
// reps under the recorder, so that both kinds see the same machine and
// their difference is the recorder's cost, then runs the layer probes.
func runWorkload(report io.Writer, o options, sz sizes) (*result, error) {
	name, seed, seconds, traced := o.workload, o.seed, o.seconds, o.trace != 0
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res := &result{workload: name, seed: seed, traced: traced, metrics: map[string]float64{}}

	for i := 0; i < w.setupReps(); i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		res.setup = append(res.setup, time.Since(start))
	}

	var first fingerprint
	checkRep := func(out repOut, id int) error {
		fp, err := out.check()
		if err != nil {
			return err
		}
		wants := map[string]fingerprint{}
		if first == nil {
			first = fp
			if ref := w.reference(); ref != nil {
				wants["set-up reference"] = ref
			}
			if golden, ok := loadGolden(name, seed, sz); ok && !o.updateGolden {
				wants["golden"] = golden
			}
		} else {
			wants[fmt.Sprintf("rep 0 (at rep %d)", id)] = first
		}
		res.check(fp, wants)
		return nil
	}

	// step is what the loop repeats: one rep, or in a traced run one
	// untraced rep and one traced. A step starts only if half of it fits
	// in what is left of the budget.
	var rec *recorder
	step := 1
	if traced {
		rec, step = &recorder{}, 2
	}
	var walls []float64 // of every rep, traced or not
	var root int        // of the last traced rep, the one the ledger covers
	begin := time.Now()
	for id := 0; ; id++ {
		repRec := rec
		if id%step == 0 {
			repRec = nil
		}
		// A heap read collects while the rep's result is still held; collect
		// again once it is dropped so that the next rep starts as rep 0 did.
		// A traced run reads no heap and collects before every rep.
		readHeap := !traced && id < heapReads
		if traced || id <= heapReads {
			runtime.GC()
		}
		s, out, span, err := timedRep(w, repRec, name, id, readHeap)
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", name, id, err)
		}
		if repRec == nil {
			res.reps = append(res.reps, s)
		} else {
			res.tracedReps = append(res.tracedReps, s)
			root = span
		}
		walls = append(walls, s.wall.Seconds())
		if err := checkRep(out, id); err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", name, id, err)
		}
		if (id+1)%step != 0 {
			continue // a traced run ends on a traced rep: the probes read it
		}
		left := seconds - time.Since(begin).Seconds()
		if sz.short || id+1 >= w.minReps() && left < 0.5*float64(step)*median(walls) {
			break
		}
	}

	if !traced {
		res.endToEnd()
	} else {
		layers, extra, err := w.layers(rec)
		if err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", name, err)
		}
		res.perLayer(layers)
		rep := rec.spans[root]
		printLedger(report, name, rep.End.Sub(rep.Start), rec.ledger(root, extra))
		if o.traceOut != "" {
			if err := rec.writeChromeTrace(o.traceOut); err != nil {
				return nil, fmt.Errorf("%s: write trace: %w", name, err)
			}
			fmt.Fprintf(report, "trace %s: %d spans\n", o.traceOut, len(rec.spans))
		}
	}
	if o.updateGolden {
		if err := writeGolden(name, seed, first); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check counts one attempted operation per fingerprint entry and one
// failure per entry that differs from, or is missing on either side of, any
// of the fingerprints it must equal.
func (r *result) check(got fingerprint, wants map[string]fingerprint) {
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	bad := map[string]bool{}
	for against, want := range wants {
		for k := range want {
			keys[k] = true
		}
		for k := range keys {
			if got[k] != want[k] {
				bad[k] = true
				r.failures = append(r.failures, fmt.Sprintf("%s: %s = %q, %s has %q", r.workload, k, got[k], against, want[k]))
			}
		}
	}
	r.attempted += len(keys)
	r.failed += len(bad)
	sort.Strings(r.failures)
}

// perOp is each rep's wall time per operation, in milliseconds.
func perOp(reps []repSample) []float64 {
	out := make([]float64, len(reps))
	for i, s := range reps {
		out[i] = 1e3 * s.wall.Seconds() / float64(s.ops)
	}
	return out
}

// endToEnd reduces the reps of an untraced run to the end-to-end metrics.
func (r *result) endToEnd() {
	var setup, alloc, heap []float64
	for _, d := range r.setup {
		setup = append(setup, d.Seconds())
	}
	for _, s := range r.reps {
		alloc = append(alloc, mb(s.alloc)/float64(s.ops))
		if s.heapMB > 0 {
			heap = append(heap, s.heapMB)
		}
	}
	r.metrics["setup_s"] = median(setup)
	r.metrics["op_wall_ms"] = median(perOp(r.reps))
	r.metrics["alloc_mb_per_op"] = median(alloc)
	r.metrics["live_heap_mb"] = median(heap)
}

// p90 needs ten samples beyond it to mean anything, so a hundred in all;
// with fewer there is no tail to report and it returns 0.
func p90(samples []float64) float64 {
	if len(samples) < 100 {
		return 0
	}
	return quantile(samples, 0.9)
}

// perLayer fills in the layers every workload has — the Go runtime and the
// recorder itself — and reports 0 for layers the workload never enters.
func (r *result) perLayer(layers map[string]float64) {
	var stats runtime.MemStats
	runtime.ReadMemStats(&stats)
	var mallocs []float64
	for _, s := range r.reps {
		mallocs = append(mallocs, float64(s.mallocs)/float64(s.ops))
	}
	layers["runtime.gc_cpu_pct"] = 100 * stats.GCCPUFraction
	layers["runtime.peak_rss_mb"] = peakRSSMB()
	layers["runtime.mallocs_per_cell"] = median(mallocs)
	// The recorder costs far less than one rep differs from the next, so
	// the tail is taken over all reps, traced or not.
	untraced, traced := perOp(r.reps), perOp(r.tracedReps)
	layers["bench.op_wall_p90_ms"] = p90(append(untraced, traced...))
	layers["trace.overhead_pct"] = 100 * (median(traced) - median(untraced)) / median(untraced)
	for _, m := range perLayer {
		r.metrics[m.Name] = layers[m.Name]
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
