package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload once at -short sizes, untraced and traced:
// it exercises set-up, the rep loop, the checks, the layer probes, the
// ledger and the trace file in a few seconds.
func TestSmoke(t *testing.T) {
	sz := sizes{short: true, scratch: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 1}
			if traced {
				o.trace, o.traceOut = 1, filepath.Join(sz.scratch, w.Name+".json")
			}
			res, err := runWorkload(io.Discard, o, sz)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", w.Name, traced, res.failed, res.attempted, res.failures)
			}
			line := res.line()
			if want := len(catalog(traced)); len(line.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics in the result line, want %d", w.Name, traced, len(line.Metrics), want)
			}
			for name, m := range line.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, name, m.Value)
				}
			}
			if !traced {
				continue
			}
			data, err := os.ReadFile(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("%s: trace file does not load: %v (%d events)", w.Name, err, len(doc.TraceEvents))
			}
		}
	}
}

// TestLedgerSumsToWall builds spans by hand: nested driver spans, a worker
// span beside them, and engine rows under one span.
func TestLedgerSumsToWall(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rec := &recorder{spans: []span{
		{Name: "rep", Start: at(0), End: at(100), Parent: -1},
		{Name: "build", Start: at(0), End: at(10), Parent: 0},
		{Name: "run", Start: at(10), End: at(90), Parent: 0},
		{Name: "render", Start: at(90), End: at(98), Parent: 0},
		{Name: "fig", Start: at(90), End: at(93), Parent: 3},
		{Name: "fig", Start: at(93), End: at(97), Parent: 3},
		{Name: "http", Start: at(20), End: at(60), Parent: 2, Lane: 1},
	}}
	extra := map[int][]ledgerRow{2: {{Name: "engine sample", Self: 70 * time.Millisecond}}}
	rows := rec.ledger(0, extra)
	got := map[string]time.Duration{}
	var sum time.Duration
	for _, r := range rows {
		got[r.Name] = r.Self
		sum += r.Self
	}
	if sum != 100*time.Millisecond {
		t.Errorf("rows sum to %v, want the root's 100ms", sum)
	}
	want := map[string]time.Duration{"rep": 2e6, "build": 10e6, "run": 10e6, "engine sample": 70e6, "render": 1e6, "fig": 7e6}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("%s: self %v, want %v", name, got[name], d)
		}
	}
	if _, ok := got["http"]; ok {
		t.Error("a worker-lane span reached the ledger")
	}
}

// TestQuantileMatchesPython pins quantile to statistics.quantiles(n=4),
// which is how the driver takes quartiles.
func TestQuantileMatchesPython(t *testing.T) {
	v := []float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json equal to the catalog and
// inside the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from `bash bench/run.sh -describe`")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the contract", m)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// allowedImports are the packages of this module the benchmark may use.
// Everything else would tie it to code the roadmap plans to move.
var allowedImports = map[string]bool{
	"sapsim":                   true,
	"sapsim/internal/scenario": true,
	"sapsim/internal/dispatch": true,
	"sapsim/internal/promql":   true,
	"sapsim/internal/dataset":  true,
	"sapsim/internal/sim":      true,
	"sapsim/internal/core":     true,
}

// TestImports fails on an import outside the allow-list and on a reference
// to an API the roadmap plans to delete (items 2, 3 and 6), so that those
// changes never have to edit the benchmark to compile.
func TestImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if (p == "sapsim" || strings.HasPrefix(p, "sapsim/")) && !allowedImports[p] {
				t.Errorf("%s imports %s", path, p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			pkg, _ := sel.X.(*ast.Ident)
			switch {
			case pkg != nil && pkg.Name == "sapsim" && name == "Run",
				name == "Hosts", name == "Appender", name == "Append",
				name == "CheckpointRecord", name == "NewCheckpointRecord",
				strings.HasPrefix(name, "Record") && name != "RecordVMMetrics":
				t.Errorf("%s: %s uses an API the roadmap plans to delete", fset.Position(sel.Pos()), name)
			}
			return true
		})
	}
}
