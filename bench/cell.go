package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"sapsim"
	"sapsim/internal/core"
	"sapsim/internal/dataset"
	"sapsim/internal/sim"
)

// hostFamilies and vmFamilies are the metric families the engine's sampler
// writes: eight per host, two per VM.
const (
	hostCPU  = "vrops_hostsystem_cpu_core_utilization_percentage"
	hostCont = "vrops_hostsystem_cpu_contention_percentage"
	hostMem  = "vrops_hostsystem_memory_usage_percentage"
	vmCPU    = "vrops_virtualmachine_cpu_usage_ratio"
	vmMem    = "vrops_virtualmachine_memory_consumed_ratio"
)

var (
	hostFamilies = []string{
		hostCPU, hostMem, hostCont,
		"vrops_hostsystem_network_bytes_tx_kbps",
		"vrops_hostsystem_network_bytes_rx_kbps",
		"vrops_hostsystem_diskspace_usage_gigabytes",
		"vrops_hostsystem_diskspace_usage_percentage",
		"vrops_hostsystem_cpu_ready_milliseconds",
	}
	vmFamilies = []string{vmCPU, vmMem}
)

// cellRun is one cell driven the way cmd/repro drives it, with the wall
// time of each call.
type cellRun struct {
	res       *sapsim.Result
	arts      map[string]string
	build     time.Duration
	run       time.Duration
	render    time.Duration
	renderMax time.Duration
	buildSpan int
	runSpan   int
}

// runCell takes one config from NewSession to its rendered artifacts.
// policy selects a registered placement policy; "" leaves cfg as it is.
func runCell(rec *recorder, parent, rep int, label string, cfg core.Config, policy string) (*cellRun, error) {
	cell := rec.begin("cell "+label, parent, rep, 0)
	defer rec.end(cell)
	var opts []sapsim.Option
	if policy != "" {
		opts = append(opts, sapsim.WithPolicy(policy))
	}
	id := rec.begin("sapsim.new_session", cell, rep, 0)
	s, err := sapsim.NewSession(cfg, opts...)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	c := &cellRun{}
	start := time.Now()
	c.buildSpan = rec.begin("sapsim.build", cell, rep, 0)
	err = s.Build()
	rec.end(c.buildSpan)
	c.build = time.Since(start)
	if err != nil {
		return nil, err
	}

	start = time.Now()
	c.runSpan = rec.begin("sapsim.run", cell, rep, 0)
	err = s.RunToCompletion()
	rec.end(c.runSpan)
	c.run = time.Since(start)
	if err != nil {
		return nil, err
	}

	id = rec.begin("sapsim.result", cell, rep, 0)
	c.res, err = s.Result()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return c, c.renderArtifacts(rec, cell, rep)
}

// renderArtifacts computes all 18 experiments one by one, as cmd/repro and
// sapsim.ArtifactSet do, so that each gets its own span.
func (c *cellRun) renderArtifacts(rec *recorder, parent, rep int) error {
	all := rec.begin("report.render", parent, rep, 0)
	defer rec.end(all)
	c.arts = make(map[string]string, 18)
	c.render, c.renderMax = 0, 0
	for _, exp := range sapsim.Experiments() {
		start := time.Now()
		id := rec.begin("report."+exp.ID, all, rep, 0)
		art, err := exp.Compute(c.res)
		rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		d := time.Since(start)
		c.render += d
		c.renderMax = max(c.renderMax, d)
		c.arts[exp.ID] = art.Text
	}
	return nil
}

func digest(text string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(text))) }

// fingerprint adds the cell's operations under prefix: one entry for the
// simulated statistics, one per artifact.
func (c *cellRun) fingerprint(fp fingerprint, prefix string) {
	r := c.res
	fp[prefix+"sim"] = fmt.Sprintf("events=%d vms=%d scheduled=%d retries=%d failed=%d placement_failures=%d drs_migrations=%d crossbb_moves=%d resizes=%d series=%d samples=%d",
		r.Profile.Events, len(r.VMs), r.SchedStats.Scheduled, r.SchedStats.Retries, r.SchedStats.Failed,
		r.PlacementFailures, r.DRSMigrations, r.CrossBBMoves, r.Resizes,
		r.Store.SeriesCount(), r.Store.SampleCount())
	for id, text := range c.arts {
		fp[prefix+"artifact."+id] = digest(text)
	}
}

// phaseTotals sums the engine profiles of the cells of one rep.
type phaseTotals struct {
	nanos, ops map[string]int64
	accounted  int64
	events     int64
	build, run time.Duration
	render     time.Duration
	renderMax  time.Duration
	series     int
	retries    int
	failures   int
}

func sumCells(cells []*cellRun) phaseTotals {
	t := phaseTotals{nanos: map[string]int64{}, ops: map[string]int64{}}
	for _, c := range cells {
		p := c.res.Profile
		for name, counter := range p.Phases {
			t.nanos[name] += counter.Nanos
			t.ops[name] += counter.Ops
		}
		t.accounted += p.AccountedNanos
		t.events += p.Events
		t.build += c.build
		t.run += c.run
		t.render += c.render
		t.renderMax = max(t.renderMax, c.renderMax)
		t.series += c.res.Store.SeriesCount()
		t.retries += c.res.SchedStats.Retries
		t.failures += c.res.SchedStats.Failed
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineLayers turns the engine's profile of a rep's cells into the
// sapsim, engprof, sim, core, telemetry-ingest, nova, placement, drs and
// report metrics. Counts are totals over the rep's cells; times are per
// cell.
func engineLayers(cells []*cellRun) map[string]float64 {
	t := sumCells(cells)
	n := float64(len(cells))
	share := func(phases ...string) float64 {
		var sum int64
		for _, p := range phases {
			sum += t.nanos[p]
		}
		return 100 * ratio(float64(sum), float64(t.accounted))
	}
	perOp := func(p string) float64 { return ratio(float64(t.nanos[p]), float64(t.ops[p])) }
	ingestNanos := float64(t.nanos["sample/hosts"] + t.nanos["sample/vms"])
	ingestOps := float64(t.ops["sample/hosts"] + t.ops["sample/vms"])
	return map[string]float64{
		"sapsim.build_ms": 1e3 * t.build.Seconds() / n,
		"sapsim.run_s":    t.run.Seconds() / n,
		// The profile accounts for build and run; both spans are its base.
		"engprof.coverage_pct": 100 * ratio(float64(t.accounted), float64((t.build+t.run).Nanoseconds())),
		"sim.events":           float64(t.events),
		"sim.ns_per_event":     ratio(float64(t.run.Nanoseconds()), float64(t.events)),

		"core.sample_hosts.share_pct": share("sample/hosts"),
		"core.sample_hosts.ops":       float64(t.ops["sample/hosts"]),
		"core.sample_hosts.ns_per_op": perOp("sample/hosts"),
		"core.sample_vms.share_pct":   share("sample/vms"),
		"core.sample_vms.ops":         float64(t.ops["sample/vms"]),
		"core.sample_vms.ns_per_op":   perOp("sample/vms"),
		"core.arrive.share_pct":       share("arrive"),
		"core.delete.share_pct":       share("delete"),
		"core.resize.share_pct":       share("resize"),
		"core.build.share_pct":        share("build"),

		"telemetry.ingest.samples":       ingestOps,
		"telemetry.ingest.ns_per_sample": ratio(ingestNanos, ingestOps),
		"telemetry.store.series":         float64(t.series),

		"nova.sched.share_pct":      share("sched/filter", "sched/weigh", "sched/claim"),
		"nova.filter.ops":           float64(t.ops["sched/filter"]),
		"nova.filter.ns_per_op":     perOp("sched/filter"),
		"nova.weigh.ops":            float64(t.ops["sched/weigh"]),
		"placement.claim.ops":       float64(t.ops["sched/claim"]),
		"placement.claim.ns_per_op": perOp("sched/claim"),
		"nova.retries":              float64(t.retries),
		"nova.failures":             float64(t.failures),

		"drs.scan.share_pct": share("drs/scan"),
		"drs.scan.ops":       float64(t.ops["drs/scan"]),
		"drs.scan.ns_per_op": perOp("drs/scan"),
		"drs.decide.ops":     float64(t.ops["drs/decide"]),

		"report.render.total_ms": 1e3 * t.render.Seconds() / n,
		"report.render.max_ms":   1e3 * t.renderMax.Seconds(),
	}
}

// nestedPhases are measured inside a top-level phase and would count
// twice in a ledger.
var nestedPhases = map[string]bool{
	"sched/filter": true, "sched/weigh": true, "sched/claim": true,
	"drs/scan": true, "drs/decide": true,
}

// engineRows are the ledger rows under a cell's build and run spans: the
// engine's top-level phases, which it accounts for itself.
func (c *cellRun) engineRows(extra map[int][]ledgerRow) {
	for name, counter := range c.res.Profile.Phases {
		if nestedPhases[name] || counter.Nanos == 0 {
			continue
		}
		row := ledgerRow{Name: "engine " + name, Self: time.Duration(counter.Nanos)}
		if name == "build" {
			extra[c.buildSpan] = append(extra[c.buildSpan], row)
		} else {
			extra[c.runSpan] = append(extra[c.runSpan], row)
		}
	}
}

// selectLayers times Store.Select over every series of each sampled
// family: the read every artifact and query starts with.
func selectLayers(rec *recorder, res *sapsim.Result, layers map[string]float64) {
	timeFamilies := func(name string, families []string) float64 {
		wall, _ := rec.probe(name, func() error {
			for _, f := range families {
				_ = res.Store.Select(f)
			}
			return nil
		})
		return ms(wall)
	}
	layers["telemetry.select.host_ms"] = timeFamilies("telemetry.select.host", hostFamilies)
	layers["telemetry.select.vm_ms"] = timeFamilies("telemetry.select.vm", vmFamilies)
}

// cellWorkload runs one cell per policy per rep.
type cellWorkload struct {
	cfg      core.Config
	policies []string // "" runs cfg unchanged
	// setups is how many set-up passes fill about a second: the machine
	// has bursts of a few hundred milliseconds at a third of its speed,
	// and the median has to see past one.
	setups int
	// probes adds the session-overhead and dataset probes to the traced
	// run: the workload's cells are short enough to repeat and its store
	// small enough to export.
	probes bool
	last   []*cellRun
}

func newRepro30d(seed uint64, sz sizes) *cellWorkload {
	cfg := sapsim.DefaultConfig(seed)
	if sz.short {
		cfg.Scale, cfg.VMs, cfg.Days = 0.01, 150, 2
	}
	return &cellWorkload{cfg: cfg, policies: []string{""}, setups: 45}
}

func newPlaceChurn(seed uint64, sz sizes) *cellWorkload {
	cfg := sapsim.DefaultConfig(seed)
	cfg.Scale, cfg.VMs = 0.3, 10000
	cfg.SampleEvery, cfg.VMSampleEvery = 24*sim.Hour, 24*sim.Hour
	cfg.RecordVMMetrics = false
	cfg.DRSEvery = 6 * sim.Hour
	cfg.CrossBB = true
	if sz.short {
		cfg.Scale, cfg.VMs, cfg.Days = 0.02, 300, 3
	}
	w := &cellWorkload{cfg: cfg, probes: true, setups: 9}
	for _, p := range sapsim.Policies() {
		w.policies = append(w.policies, p.Name)
	}
	return w
}

func (w *cellWorkload) setupReps() int         { return w.setups }
func (w *cellWorkload) minReps() int           { return 2 }
func (w *cellWorkload) reference() fingerprint { return nil }
func (w *cellWorkload) close()                 {}

// setup assembles the first cell and drops it: the time from a seed to a
// simulation ready to run, which is where work taken out of the run lands.
func (w *cellWorkload) setup() error {
	var opts []sapsim.Option
	if w.policies[0] != "" {
		opts = append(opts, sapsim.WithPolicy(w.policies[0]))
	}
	s, err := sapsim.NewSession(w.cfg, opts...)
	if err != nil {
		return err
	}
	defer s.Close()
	return s.Build()
}

func (w *cellWorkload) label(policy string) string {
	if policy == "" {
		return "default"
	}
	return policy
}

func (w *cellWorkload) rep(rec *recorder, root, id int) (repOut, error) {
	// The last rep's results are garbage from here on, as they would be in
	// a sweep; holding them would put their stores on this rep's collector.
	w.last = nil
	cells := make([]*cellRun, 0, len(w.policies))
	for _, policy := range w.policies {
		c, err := runCell(rec, root, id, w.label(policy), w.cfg, policy)
		if err != nil {
			return repOut{}, fmt.Errorf("cell %s: %w", w.label(policy), err)
		}
		cells = append(cells, c)
	}
	w.last = cells
	return repOut{ops: len(cells), held: cells, check: func() (fingerprint, error) {
		fp := fingerprint{}
		for i, c := range cells {
			c.fingerprint(fp, w.label(w.policies[i])+"/")
		}
		return fp, nil
	}}, nil
}

func (w *cellWorkload) layers(rec *recorder) (map[string]float64, map[int][]ledgerRow, error) {
	layers := engineLayers(w.last)
	extra := map[int][]ledgerRow{}
	for _, c := range w.last {
		c.engineRows(extra)
	}
	selectLayers(rec, w.last[0].res, layers)
	if !w.probes {
		return layers, extra, nil
	}
	if err := sessionOverhead(rec, w.cfg, w.policies[0], layers); err != nil {
		return nil, nil, err
	}
	if err := datasetLayers(rec, w.last[0].res, layers); err != nil {
		return nil, nil, err
	}
	return layers, extra, nil
}

// sessionOverhead compares a Session carrying one observer with the bare
// core.Simulation under it, on the same cell.
func sessionOverhead(rec *recorder, cfg core.Config, policy string, layers map[string]float64) error {
	p, ok := sapsim.PolicyByName(policy)
	if !ok {
		return fmt.Errorf("unknown policy %q", policy)
	}
	p.Apply(&cfg)

	var bareEvents, sessionEvents uint64
	bareWall, err := rec.probe("core.simulation", func() error {
		bare, err := core.NewSimulation(cfg, core.Hooks{})
		if err != nil {
			return err
		}
		defer func() { bareEvents = bare.FiredEvents() }()
		return bare.AdvanceTo(cfg.Horizon(), nil)
	})
	if err != nil {
		return err
	}
	sessionWall, err := rec.probe("sapsim.session+observer", func() error {
		s, err := sapsim.NewSession(cfg, sapsim.WithObserverFunc(func(sapsim.SessionEvent) {}))
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.RunToCompletion(); err != nil {
			return err
		}
		res, err := s.Result()
		if err != nil {
			return err
		}
		sessionEvents = uint64(res.Profile.Events)
		return nil
	})
	if err != nil {
		return err
	}
	if sessionEvents != bareEvents {
		return fmt.Errorf("session fired %d events, the bare simulation %d", sessionEvents, bareEvents)
	}
	layers["sapsim.session_overhead_pct"] = 100 * (sessionWall - bareWall).Seconds() / bareWall.Seconds()
	return nil
}

// datasetLayers exports the store as the released CSV and reads it back,
// checking that every series and sample survives the round trip.
func datasetLayers(rec *recorder, res *sapsim.Result, layers map[string]float64) error {
	var buf bytes.Buffer
	wall, err := rec.probe("dataset.write", func() error {
		return dataset.Write(&buf, res.Store, dataset.WriteOptions{})
	})
	if err != nil {
		return err
	}
	layers["dataset.write_ms"] = ms(wall)
	layers["dataset.bytes"] = float64(buf.Len())

	var series, samples int
	wall, err = rec.probe("dataset.read", func() error {
		back, err := dataset.Read(&buf)
		if err != nil {
			return err
		}
		series, samples = back.SeriesCount(), back.SampleCount()
		return nil
	})
	if err != nil {
		return err
	}
	layers["dataset.read_ms"] = ms(wall)
	if series != res.Store.SeriesCount() || samples != res.Store.SampleCount() {
		return fmt.Errorf("dataset round trip: %d series / %d samples became %d / %d",
			res.Store.SeriesCount(), res.Store.SampleCount(), series, samples)
	}
	return nil
}
