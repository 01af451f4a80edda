package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sapsim/internal/promql"
	"sapsim/internal/sim"
)

// query is one fixed PromQL expression; kind names the layer metric its
// evaluation time feeds.
type query struct {
	text string
	kind string // host_instant, host_range or vm_range
}

var queries = []query{
	{hostCPU, "host_instant"},
	{"avg by (cluster) (avg_over_time(" + hostCPU + "[1d]))", "host_range"},
	{"quantile_over_time(0.95, " + hostCont + "[1d]) > 5", "host_range"},
	{"max by (datacenter) (max_over_time(" + hostCPU + "[7d]))", "host_range"},
	{"avg by (flavor) (avg_over_time(" + vmCPU + "[1d]))", "vm_range"},
	{"count(avg_over_time(" + vmMem + "[7d]) < 0.7)", "vm_range"},
	{"avg by (cluster) (" + hostMem + ") > 50", "host_instant"},
	{"openstack_compute_instances_total", "host_instant"},
}

// renderWorkload reads one held 30-day store over and over: every
// artifact, then every query at ten instants.
type renderWorkload struct {
	seed    uint64
	sz      sizes
	cell    *cellRun
	engine  *promql.Engine
	at      []sim.Time
	evals   []evalSample // of the last rep
	samples int
}

// evalSample is one query evaluation of a rep.
type evalSample struct {
	query  int
	wall   time.Duration
	result promql.Vector
}

func newRenderQuery(seed uint64, sz sizes) *renderWorkload {
	return &renderWorkload{seed: seed, sz: sz}
}

func (w *renderWorkload) setupReps() int { return 1 }

// minReps is enough for a p90 however slow the machine.
func (w *renderWorkload) minReps() int { return 100 }

func (w *renderWorkload) reference() fingerprint { return nil }
func (w *renderWorkload) close()                 {}

// setup simulates the cell whose store the reps read, then runs the
// untimed warm-up reps.
func (w *renderWorkload) setup() error {
	cfg := newRepro30d(w.seed, w.sz).cfg
	cell, err := runCell(nil, -1, -1, "held", cfg, "")
	if err != nil {
		return err
	}
	w.cell = cell
	w.engine = &promql.Engine{Store: cell.res.Store}
	w.at = nil
	for day := 3; day <= cfg.Days || len(w.at) == 0; day += 3 {
		w.at = append(w.at, sim.Time(min(day, cfg.Days))*sim.Day)
	}
	warmups := 10
	if w.sz.short {
		warmups = 1
	}
	for i := 0; i < warmups; i++ {
		if _, err := w.rep(nil, -1, -1); err != nil {
			return err
		}
	}
	return nil
}

func (w *renderWorkload) rep(rec *recorder, root, id int) (repOut, error) {
	if err := w.cell.renderArtifacts(rec, root, id); err != nil {
		return repOut{}, err
	}
	arts := w.cell.arts
	all := rec.begin("promql.query", root, id, 0)
	evals := make([]evalSample, 0, len(queries)*len(w.at))
	for qi, q := range queries {
		for _, at := range w.at {
			span := rec.begin("promql.eval "+q.kind, all, id, 0)
			start := time.Now()
			vec, err := w.engine.Query(q.text, at)
			wall := time.Since(start)
			rec.end(span)
			if err != nil {
				return repOut{}, fmt.Errorf("query %q at %v: %w", q.text, at, err)
			}
			evals = append(evals, evalSample{query: qi, wall: wall, result: vec})
		}
	}
	rec.end(all)
	w.evals = evals
	return repOut{ops: 1, held: w.cell, check: func() (fingerprint, error) {
		fp := fingerprint{}
		for id, text := range arts {
			fp["artifact."+id] = digest(text)
		}
		w.samples = 0
		for i, e := range evals {
			fp[fmt.Sprintf("query %d at day %d", e.query, w.at[i%len(w.at)]/sim.Day)] = vectorDigest(e.result)
			w.samples += len(e.result)
		}
		return fp, nil
	}}, nil
}

// vectorDigest hashes a query result with values cut to nine significant
// digits and samples sorted. promql.Format keeps all seventeen, and those
// do not repeat from one process to the next: the engine creates VM series
// in map-iteration order, Store.Select returns them in creation order, and
// a float sum over them changes its last bits with the order.
func vectorDigest(v promql.Vector) string {
	lines := make([]string, len(v))
	for i, s := range v {
		lines[i] = fmt.Sprintf("%s %.9g", s.Labels, s.Value)
	}
	sort.Strings(lines)
	return digest(strings.Join(lines, "\n"))
}

func (w *renderWorkload) layers(rec *recorder) (map[string]float64, map[int][]ledgerRow, error) {
	// The held cell's engine profile comes for free; its render times are
	// the traced rep's, which are warm.
	layers := engineLayers([]*cellRun{w.cell})
	selectLayers(rec, w.cell.res, layers)

	// Evaluation time per layer metric: the median over the traced rep's
	// evaluations of the queries that feed it.
	byKind := map[string][]float64{}
	for _, e := range w.evals {
		k := queries[e.query].kind
		byKind[k] = append(byKind[k], e.wall.Seconds())
	}
	layers["promql.eval.host_instant_us"] = 1e6 * median(byKind["host_instant"])
	layers["promql.eval.host_range_ms"] = 1e3 * median(byKind["host_range"])
	layers["promql.eval.vm_range_ms"] = 1e3 * median(byKind["vm_range"])
	layers["promql.result.samples"] = float64(w.samples)

	const parses = 200
	wall, err := rec.probe("promql.parse", func() error {
		for i := 0; i < parses; i++ {
			for _, q := range queries {
				if _, err := promql.Parse(q.text); err != nil {
					return err
				}
			}
		}
		return nil
	})
	layers["promql.parse.us_per_query"] = 1e6 * wall.Seconds() / float64(parses*len(queries))
	return layers, nil, err
}
