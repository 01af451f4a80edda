package scenario

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sapsim/internal/core"
	"sapsim/internal/nova"
	"sapsim/internal/sim"
)

func testMatrix(workers int) Matrix {
	base := testConfig(2)
	return Matrix{
		Base: base,
		Scenarios: []*Scenario{
			Baseline(),
			{Name: "hf", Injections: []core.Injector{
				HostFailures{At: sim.Day, Count: 2, Recover: 6 * sim.Hour},
			}},
		},
		Variants: []Variant{
			{Name: "default"},
			{Name: "no-drs", Apply: func(cfg *core.Config) { cfg.DRS = false }},
		},
		Seeds:   []uint64{7, 11},
		Workers: workers,
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the contract the runner
// guarantees: the same matrix on 1 worker and on 8 workers yields
// byte-identical per-run results in identical order.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := Sweep(testMatrix(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(testMatrix(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Runs) != 8 {
		t.Fatalf("expected 2x2x2 = 8 runs, got %d", len(serial.Runs))
	}
	if !reflect.DeepEqual(serial.Runs, parallel.Runs) {
		t.Fatalf("workers=1 and workers=8 diverged:\nserial:   %+v\nparallel: %+v",
			serial.Runs, parallel.Runs)
	}
	if a, b := Comparative(serial), Comparative(parallel); a != b {
		t.Fatalf("comparative reports diverged:\n%s\n---\n%s", a, b)
	}
}

func TestSweepRunOrderIsScenarioMajor(t *testing.T) {
	res, err := Sweep(testMatrix(4))
	if err != nil {
		t.Fatal(err)
	}
	want := []Key{
		{"baseline", "default", 7}, {"baseline", "default", 11},
		{"baseline", "no-drs", 7}, {"baseline", "no-drs", 11},
		{"hf", "default", 7}, {"hf", "default", 11},
		{"hf", "no-drs", 7}, {"hf", "no-drs", 11},
	}
	for i, r := range res.Runs {
		if r.Key != want[i] {
			t.Fatalf("run %d: got key %+v, want %+v", i, r.Key, want[i])
		}
		if r.Err != "" {
			t.Errorf("run %+v failed: %s", r.Key, r.Err)
		}
	}
}

func TestSweepDefaultsFillIn(t *testing.T) {
	res, err := Sweep(Matrix{Base: testConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("expected the defaulted 1x1x1 matrix, got %d runs", len(res.Runs))
	}
	k := res.Runs[0].Key
	if k.Scenario != "baseline" || k.Variant != "default" || k.Seed != testConfig(1).Seed {
		t.Fatalf("unexpected defaulted key %+v", k)
	}
}

func TestSweepIsolatesTelemetryPerRun(t *testing.T) {
	// Two seeds of the same scenario must not share stores: their sample
	// counts are independent and each run's metrics derive only from its
	// own store. A shared store would double counts deterministically.
	m := Matrix{Base: testConfig(1), Seeds: []uint64{3, 4}, Workers: 2}
	res, err := Sweep(m)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Sweep(Matrix{Base: testConfig(1), Seeds: []uint64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Runs[0].Metrics, single.Runs[0].Metrics) {
		t.Fatalf("seed 3 metrics differ when run alongside seed 4:\n%+v\n%+v",
			res.Runs[0].Metrics, single.Runs[0].Metrics)
	}
}

// TestSweepCancellation: canceling the matrix context mid-sweep stops
// in-flight cells within a tick and skips pending ones, while the result
// slice keeps its full length and deterministic scenario-major key order —
// every cell either carries metrics or the context's error, never garbage.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := testMatrix(2)
	m.Context = ctx
	var once sync.Once
	m.OnCell = func(u CellUpdate) {
		// Cancel as soon as the first cell reports any progress: later
		// cells must unwind or never start.
		if u.State == CellRunning || u.State == CellFinished {
			once.Do(cancel)
		}
	}
	res, err := Sweep(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []Key{
		{"baseline", "default", 7}, {"baseline", "default", 11},
		{"baseline", "no-drs", 7}, {"baseline", "no-drs", 11},
		{"hf", "default", 7}, {"hf", "default", 11},
		{"hf", "no-drs", 7}, {"hf", "no-drs", 11},
	}
	if len(res.Runs) != len(want) {
		t.Fatalf("got %d runs, want %d", len(res.Runs), len(want))
	}
	canceled := 0
	for i, r := range res.Runs {
		if r.Key != want[i] {
			t.Fatalf("run %d: got key %+v, want %+v (order corrupted by cancellation)", i, r.Key, want[i])
		}
		if r.Err == "" {
			continue
		}
		if !strings.Contains(r.Err, context.Canceled.Error()) {
			t.Errorf("run %+v: unexpected error %q", r.Key, r.Err)
		}
		if (r.Metrics != Metrics{}) {
			t.Errorf("run %+v: canceled cell carries metrics %+v", r.Key, r.Metrics)
		}
		canceled++
	}
	if canceled == 0 {
		t.Error("cancellation canceled no cells")
	}
}

// TestSweepPreCanceledContext: a context canceled before Sweep starts runs
// nothing, but still returns every slot in order with the context error.
func TestSweepPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := testMatrix(4)
	m.Context = ctx
	res, err := Sweep(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 8 {
		t.Fatalf("got %d runs, want 8", len(res.Runs))
	}
	for _, r := range res.Runs {
		if !strings.Contains(r.Err, context.Canceled.Error()) {
			t.Errorf("run %+v: err = %q, want context.Canceled", r.Key, r.Err)
		}
	}
}

// TestSweepOnCellLifecycle: every cell reports started → running → finished
// on a successful sweep, with coherent indexes.
func TestSweepOnCellLifecycle(t *testing.T) {
	var mu sync.Mutex
	states := make(map[Key][]CellState)
	m := Matrix{
		Base:    testConfig(1),
		Seeds:   []uint64{7, 11},
		Workers: 2,
		OnCell: func(u CellUpdate) {
			if u.Total != 2 || u.Index < 0 || u.Index >= 2 {
				t.Errorf("bad cell index %d/%d", u.Index, u.Total)
			}
			mu.Lock()
			states[u.Key] = append(states[u.Key], u.State)
			mu.Unlock()
		},
	}
	res, err := Sweep(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runs {
		if r.Err != "" {
			t.Fatalf("run %+v failed: %s", r.Key, r.Err)
		}
		seq := states[r.Key]
		if len(seq) < 3 {
			t.Fatalf("cell %+v saw only %v", r.Key, seq)
		}
		if seq[0] != CellStarted {
			t.Errorf("cell %+v first state = %v, want started", r.Key, seq[0])
		}
		if seq[len(seq)-1] != CellFinished {
			t.Errorf("cell %+v last state = %v, want finished", r.Key, seq[len(seq)-1])
		}
		for _, st := range seq[1 : len(seq)-1] {
			if st != CellRunning {
				t.Errorf("cell %+v intermediate state = %v, want running", r.Key, st)
			}
		}
	}
}

func TestComparativeReportShape(t *testing.T) {
	res, err := Sweep(testMatrix(4))
	if err != nil {
		t.Fatal(err)
	}
	text := Comparative(res)
	for _, want := range []string{
		"sweep: 8 runs (0 failed)",
		"variant default (baseline scenario: baseline)",
		"variant no-drs (baseline scenario: baseline)",
		"Δmem", "Δatt", "Δmig", "hf",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestAggregatesAverageOverSeeds(t *testing.T) {
	res, err := Sweep(testMatrix(2))
	if err != nil {
		t.Fatal(err)
	}
	aggs := Aggregates(res)
	if len(aggs) != 4 {
		t.Fatalf("expected 4 (scenario x variant) cells, got %d", len(aggs))
	}
	for _, a := range aggs {
		if a.Seeds != 2 || a.Errors != 0 {
			t.Fatalf("cell %s/%s: seeds=%d errors=%d", a.Scenario, a.Variant, a.Seeds, a.Errors)
		}
	}
	// Hand-average one metric for the first cell.
	var sum float64
	for _, r := range res.Runs[:2] {
		sum += r.Metrics.PackingMemPct
	}
	if got, want := aggs[0].PackingMemPct, sum/2; got != want {
		t.Fatalf("aggregate mem packing %v != hand-computed %v", got, want)
	}
}

// TestContentionAwareVariantWeighsContention pins that the contention-aware
// variant weighs contention telemetry: its config carries a
// ContentionWeigher, and its sweep row differs from the default's.
func TestContentionAwareVariantWeighsContention(t *testing.T) {
	v, err := VariantByName("contention-aware")
	if err != nil {
		t.Fatal(err)
	}
	// A denser cell than testConfig's, so hosts contend.
	base := testConfig(6)
	base.VMs = 600
	cfg := base
	v.Apply(&cfg)
	weighs := false
	for _, w := range cfg.Scheduler.Weighers {
		_, ok := w.(nova.ContentionWeigher)
		weighs = weighs || ok
	}
	if !weighs {
		t.Fatal("contention-aware config carries no ContentionWeigher")
	}
	def, _ := VariantByName("default")
	res, err := Sweep(Matrix{
		Base:      base,
		Scenarios: []*Scenario{Baseline()},
		Variants:  []Variant{def, v},
		Seeds:     []uint64{42},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := res.Runs[0].Metrics, res.Runs[1].Metrics; reflect.DeepEqual(a, b) {
		t.Errorf("contention-aware sweep row equals default's: %+v", a)
	}
}
