package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sapsim"
	"sapsim/internal/dataset"
	"sapsim/internal/dispatch"
	"sapsim/internal/exporter"
	"sapsim/internal/scenario"
	"sapsim/internal/trace"
)

// fixture is what analyze reads, written once by TestMain from one tiny
// simulated cell: the raw dataset CSV, a two-cell engine-profile export and
// a Chrome trace whose cell spans join those profiles.
var fixture struct {
	csv, profiles, trace string
	hosts                int
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "analyze-test-*")
	if err == nil {
		err = writeFixtures(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fixtures:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func writeFixtures(dir string) error {
	fixture.csv = filepath.Join(dir, "dataset.csv")
	fixture.profiles = filepath.Join(dir, "engprof")
	fixture.trace = filepath.Join(dir, "trace.json")
	cfg := sapsim.DefaultConfig(7)
	cfg.Scale, cfg.VMs, cfg.Days = 0.01, 150, 2
	res, err := sapsim.Run(cfg)
	if err != nil {
		return err
	}
	fixture.hosts = res.Region.NodeCount()
	f, err := os.Create(fixture.csv)
	if err != nil {
		return err
	}
	if err := dataset.Write(f, res.Store, dataset.WriteOptions{}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	blob, err := sapsim.EncodeProfileBytes(res.Profile)
	if err != nil {
		return err
	}
	if err := os.Mkdir(fixture.profiles, 0o755); err != nil {
		return err
	}
	var spans []trace.Span
	for i, sc := range []string{"baseline", "host-failures"} {
		key := scenario.Key{Scenario: sc, Variant: "default", Seed: 7}
		name := fmt.Sprintf("%s__%s__%d.engprof.json", key.Scenario, key.Variant, key.Seed)
		if err := os.WriteFile(filepath.Join(fixture.profiles, name), blob, 0o644); err != nil {
			return err
		}
		id := fmt.Sprintf("cell-%d", i)
		spans = append(spans,
			trace.Span{Trace: dispatch.CellTraceID(key), ID: id, Name: "cell", Start: 0, End: 2_000_000},
			trace.Span{Trace: dispatch.CellTraceID(key), ID: id + "/a1", Parent: id, Name: "attempt",
				Start: 100, End: 1_900_000, Attrs: map[string]string{"worker": "w"}})
	}
	return trace.WriteChromeTraceFile(fixture.trace, spans)
}

func runAnalyze(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("analyze %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// lastLine is the final line of a command's output: a query's value.
func lastLine(out string) string {
	out = strings.TrimSpace(out)
	return out[strings.LastIndex(out, "\n")+1:]
}

func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output lacks %q:\n%s", w, out)
		}
	}
}

func TestFigures(t *testing.T) {
	csv := fixture.csv
	out := runAnalyze(t, "-i", csv, "-days", "2", "-fig", "fig9")
	wantLines(t, out, "loaded "+csv, "fig9: region-wide CPU contention per day")
	if strings.Contains(out, "fig5:") {
		t.Errorf("-fig fig9 computed fig5 too:\n%s", out)
	}
	wantLines(t, runAnalyze(t, "-i", csv, "-days", "2", "-timeout", "1m"),
		"fig5:", "fig8:", "fig9:", "fig10:", "fig13:", "fig14a:", "fig14b:")
}

func TestQuery(t *testing.T) {
	csv := fixture.csv
	out := runAnalyze(t, "-i", csv, "-days", "2", "-query", "count("+exporter.MetricHostCPUUtil+")")
	if got := lastLine(out); got != fmt.Sprint(fixture.hosts) {
		t.Errorf("count of host series = %q, want %d\n%s", got, fixture.hosts, out)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-i", csv, "-query", "avg by ("}, &stdout, &stderr); err == nil {
		t.Error("malformed query accepted")
	}
}

func TestRecommendOvercommit(t *testing.T) {
	wantLines(t, runAnalyze(t, "-i", fixture.csv, "-recommend-overcommit"),
		"p99 aggregate per-vCPU demand ratio:", "recommended vCPU:pCPU overcommit:")
}

func TestEngprof(t *testing.T) {
	profiles := fixture.profiles
	out := runAnalyze(t, "-engprof", profiles, "-critpath", fixture.trace)
	wantLines(t, out, "engine profile "+profiles+": 2 cells", "per-phase attribution",
		"stragglers", "baseline/default/seed7", "coverage")
	one := filepath.Join(profiles, "baseline__default__7.engprof.json")
	wantLines(t, runAnalyze(t, "-engprof", one, "-against", profiles),
		"engine profile diff (per-cell means)", "TOTAL")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-engprof", t.TempDir()}, &stdout, &stderr); err == nil {
		t.Error("-engprof of a directory without profiles succeeded")
	}
}

func TestCritpath(t *testing.T) {
	wantLines(t, runAnalyze(t, "-critpath", fixture.trace), "trace: 4 spans across 2 cells", "critical path:")
}

// dispatchMetrics serves a fixed dispatcher-and-worker exposition.
func dispatchMetrics(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%s{state=\"queued\"} 3\n%s{state=\"done\"} 1\n%s 2\n%s 1\n",
			dispatch.MetricQueueJobs, dispatch.MetricQueueJobs,
			dispatch.MetricWorkerCapacity, dispatch.MetricWorkerInflight)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestFleet pins -fleet's rows on a two-cell trace: baseline's first
// attempt (victim) is requeued and its second (survivor) done;
// host-failures' only attempt (survivor) fails.
func TestFleet(t *testing.T) {
	const base, s = 1_700_000_000_000_000, 1_000_000 // µs
	cell := func(tr string, end int64) trace.Span {
		return trace.Span{Trace: tr, ID: "cell", Name: "cell", Start: base, End: base + end}
	}
	attempt := func(tr, id, worker, outcome string, start, end int64) trace.Span {
		return trace.Span{Trace: tr, ID: id, Parent: "cell", Name: "attempt", Start: base + start,
			End: base + end, Attrs: map[string]string{"worker": worker, "outcome": outcome}}
	}
	a, b := "baseline/default/seed7", "host-failures/default/seed7"
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := trace.WriteChromeTraceFile(path, []trace.Span{
		cell(a, 5*s), attempt(a, "a1", "victim", "requeued", s/2, 2*s), attempt(a, "a2", "survivor", "done", 3*s, 5*s),
		cell(b, 4*s), attempt(b, "a1", "survivor", "failed", s, 4*s),
		{Trace: b, ID: "run", Parent: "a1", Name: "run", Start: base + 6*s/5, End: base + 27*s/10},
	}); err != nil {
		t.Fatal(err)
	}
	out := runAnalyze(t, "-fleet", path)
	wantLines(t, out, "2 cells, 3 attempts, 2 workers",
		"     t(s)  queued  leased    done  failed\n"+
			"    0.000       2       0       0       0\n"+
			"    0.500       1       1       0       0\n"+
			"    1.000       0       2       0       0\n"+
			"    2.000       1       1       0       0\n"+
			"    3.000       0       2       0       0\n"+
			"    4.000       0       1       0       1\n"+
			"    5.000       0       0       1       1\n",
		"     t(s) survivor victim\n"+
			"    0.000        0      0\n"+
			"    0.500        0      1\n"+
			"    1.000        1      1\n"+
			"    2.000        1      0\n"+
			"    3.000        2      0\n"+
			"    4.000        1      0\n"+
			"    5.000        0      0\n")

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fleet", t.TempDir()}, &stdout, &stderr); err == nil {
		t.Error("-fleet of a directory succeeded")
	}
	cellsOnly := filepath.Join(t.TempDir(), "cells.json")
	if err := trace.WriteChromeTraceFile(cellsOnly, []trace.Span{cell(a, s)}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fleet", cellsOnly}, &stdout, &stderr); err == nil {
		t.Error("-fleet of a trace without attempt spans succeeded")
	}
}

func TestScrapeQuery(t *testing.T) {
	srv := dispatchMetrics(t)
	out := runAnalyze(t, "-scrape", srv.URL+"/metrics", "-query", "sum("+dispatch.MetricQueueJobs+")")
	wantLines(t, out, "scraped "+srv.URL+"/metrics: 4 samples")
	if got := lastLine(out); got != "4" {
		t.Errorf("sum(queue jobs) = %q, want 4\n%s", got, out)
	}
}

func TestMissingInputFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-i", filepath.Join(t.TempDir(), "none.csv")}, &stdout, &stderr); err == nil {
		t.Error("missing dataset accepted")
	}
}
