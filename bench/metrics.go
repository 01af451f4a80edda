package main

import (
	"encoding/json"
	"math"
	"sort"
)

// metric is one catalog entry. BENCHMARK.json is the catalog's JSON form
// (see describe); a test keeps the two equal.
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen (end-to-end only).
	Bound float64
	// Exact marks a count that repeats exactly for one seed and size; the
	// self-check compares it with ==. BENCHMARK.json has no key for it.
	Exact bool
}

type workloadInfo struct {
	Name string
	Why  string
}

var workloads = []workloadInfo{
	{"repro30d", "cmd/repro's 30-day default cell plus its 18 artifacts: telemetry sampling is ~90% of engine time, placement and DRS under 10%"},
	{"place_churn", "551 hosts, 10k VMs, daily sampling, one cell per placement policy: DRS scan, resize and Nova scheduling dominate, sampling is ~10%"},
	{"sweep_dispatch", "44 six-day cells through dispatch.RunLocal with 2 workers: journal, CAS, snapshots and loopback HTTP outweigh the engine"},
	{"render_query", "18 artifacts and 80 PromQL evaluations over one held 30-day store: the telemetry read path, no simulation"},
}

// runSeconds is the timed budget the driver passes as --seconds.
const runSeconds = 20

// An operation is one cell on repro30d and place_churn (NewSession through
// the 18 artifacts), one matrix cell on sweep_dispatch (NewQueue through
// Merged, divided by 44), and one render-and-query pass on render_query.
// Every workload reports every one of these, so each measures something
// the others do not: throughput is 1000 / op_wall_ms, and the tail, which
// only render_query has the reps for, is per-layer (bench.op_wall_p90_ms).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_wall_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

var perLayer = []metric{
	// sapsim: the Session lifecycle around the engine.
	{Name: "sapsim.build_ms", Unit: "ms", Better: "lower"},
	{Name: "sapsim.run_s", Unit: "s", Better: "lower"},
	{Name: "sapsim.session_overhead_pct", Unit: "%", Better: "lower"},
	// engprof / sim: the engine's own accounting, read from Result.Profile.
	{Name: "engprof.coverage_pct", Unit: "%", Better: "higher"},
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	// core: top-level engine phases as a share of accounted time.
	{Name: "core.sample_hosts.share_pct", Unit: "%", Better: "lower"},
	{Name: "core.sample_hosts.ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.sample_hosts.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.sample_vms.share_pct", Unit: "%", Better: "lower"},
	{Name: "core.sample_vms.ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.sample_vms.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.arrive.share_pct", Unit: "%", Better: "lower"},
	{Name: "core.delete.share_pct", Unit: "%", Better: "lower"},
	{Name: "core.resize.share_pct", Unit: "%", Better: "lower"},
	{Name: "core.build.share_pct", Unit: "%", Better: "lower"},
	// telemetry: ingest from the profile, reads timed from outside.
	{Name: "telemetry.ingest.samples", Unit: "count", Better: "lower", Exact: true},
	{Name: "telemetry.ingest.ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "telemetry.store.series", Unit: "count", Better: "lower", Exact: true},
	{Name: "telemetry.select.host_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.select.vm_ms", Unit: "ms", Better: "lower"},
	// nova / placement: the scheduling pipeline nested in arrive and resize.
	{Name: "nova.sched.share_pct", Unit: "%", Better: "lower"},
	{Name: "nova.filter.ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "nova.filter.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "nova.weigh.ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "placement.claim.ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "placement.claim.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "nova.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "nova.failures", Unit: "count", Better: "lower", Exact: true},
	// drs: host-load scan and migration decisions.
	{Name: "drs.scan.share_pct", Unit: "%", Better: "lower"},
	{Name: "drs.scan.ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "drs.scan.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "drs.decide.ops", Unit: "count", Better: "lower", Exact: true},
	// report / analysis: artifact rendering.
	{Name: "report.render.total_ms", Unit: "ms", Better: "lower"},
	{Name: "report.render.max_ms", Unit: "ms", Better: "lower"},
	// promql: parse and evaluation over the held store.
	{Name: "promql.parse.us_per_query", Unit: "us", Better: "lower"},
	{Name: "promql.eval.host_instant_us", Unit: "us", Better: "lower"},
	{Name: "promql.eval.host_range_ms", Unit: "ms", Better: "lower"},
	{Name: "promql.eval.vm_range_ms", Unit: "ms", Better: "lower"},
	{Name: "promql.result.samples", Unit: "count", Better: "lower", Exact: true},
	// dataset: CSV export and import of place_churn's store.
	{Name: "dataset.write_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.read_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.bytes", Unit: "bytes", Better: "lower", Exact: true},
	// snapshot: capture, wire form and warm resume of one short cell.
	{Name: "snapshot.capture_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "snapshot.resume_build_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.overhead.cell_ms", Unit: "ms", Better: "lower"},
	// scenario: the in-process floor under the dispatched sweep.
	{Name: "scenario.sweep.cell_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.sweep.serial_cell_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.sweep.parallel_eff_pct", Unit: "%", Better: "higher"},
	// dispatch: queue, journal and the loopback wire.
	{Name: "dispatch.cell_ms", Unit: "ms", Better: "lower"},
	{Name: "dispatch.overhead.cell_ms", Unit: "ms", Better: "lower"},
	{Name: "dispatch.http.requests_per_cell", Unit: "count", Better: "lower"},
	{Name: "dispatch.http.ms_per_cell", Unit: "ms", Better: "lower"},
	{Name: "dispatch.http.progress.count", Unit: "count", Better: "lower"},
	{Name: "dispatch.http.artifact_head.count", Unit: "count", Better: "lower"},
	{Name: "dispatch.http.artifact_put.count", Unit: "count", Better: "lower"},
	{Name: "dispatch.http.artifact_put.ms", Unit: "ms", Better: "lower"},
	{Name: "dispatch.journal.bytes_per_cell", Unit: "bytes", Better: "lower"},
	{Name: "dispatch.journal.records_per_cell", Unit: "count", Better: "lower"},
	{Name: "dispatch.resume_ms", Unit: "ms", Better: "lower"},
	{Name: "dispatch.merge_ms", Unit: "ms", Better: "lower"},
	// artifact: the content-addressed store under the journal directory.
	{Name: "artifact.cas.blobs", Unit: "count", Better: "lower", Exact: true},
	{Name: "artifact.cas.bytes", Unit: "bytes", Better: "lower"},
	{Name: "artifact.cas.stored_per_cell", Unit: "count", Better: "lower"},
	{Name: "artifact.cas.removed", Unit: "count", Better: "lower"},
	// runtime / bench: the Go runtime and the cost of tracing itself.
	{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.mallocs_per_cell", Unit: "count", Better: "lower"},
	{Name: "bench.op_wall_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// describe renders the catalog as BENCHMARK.json.
func describe() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl(w))
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

// quantile returns the q-quantile of values the way Python's
// statistics.quantiles(method="exclusive") does, which is what the driver
// uses for quartiles; q=0.5 is the median.
func quantile(values []float64, q float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return v[0]
	}
	pos := q*float64(n+1) - 1
	lo := int(math.Floor(pos))
	if lo < 0 {
		return v[0]
	}
	if lo >= n-1 {
		return v[n-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }
