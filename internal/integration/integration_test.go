// Package integration cross-validates the subsystems end to end: a live
// discrete-event simulation drives the fleet while the Prometheus-style
// exporter serves metrics over real HTTP, a scraper pulls them into the
// TSDB on the production cadence, PromQL queries the result, and the
// dataset layer round-trips everything — the complete Sec. 4 pipeline.
package integration

import (
	"bytes"
	"math"
	"testing"

	"net/http/httptest"

	"sapsim/internal/analysis"
	"sapsim/internal/dataset"
	"sapsim/internal/drs"
	"sapsim/internal/esx"
	"sapsim/internal/exporter"
	"sapsim/internal/nova"
	"sapsim/internal/placement"
	"sapsim/internal/promql"
	"sapsim/internal/scrape"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// pipeline is the assembled system under test.
type pipeline struct {
	region *topology.Region
	fleet  *esx.Fleet
	sched  *nova.Scheduler
	engine *sim.Engine
	live   map[vmmodel.ID]*vmmodel.VM
}

func buildPipeline(t *testing.T, vms int, seed uint64) *pipeline {
	t.Helper()
	region, err := topology.Build(topology.DefaultBuildSpec(0.015))
	if err != nil {
		t.Fatal(err)
	}
	fleet := esx.NewFleet(region, esx.DefaultConfig())
	sched, err := nova.NewScheduler(fleet, placement.NewService(), nova.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := &pipeline{
		region: region,
		fleet:  fleet,
		sched:  sched,
		engine: sim.NewEngine(),
		live:   make(map[vmmodel.ID]*vmmodel.VM),
	}
	spec := workload.DefaultSpec(vms, seed)
	spec.Horizon = 2 * sim.Day
	for _, in := range workload.NewGenerator(spec).Generate() {
		in := in
		schedule := func(at sim.Time) {
			if _, err := sched.Schedule(&nova.RequestSpec{VM: in.VM}, at); err != nil {
				return
			}
			p.live[in.VM.ID] = in.VM
			if del := in.DeleteAt(); del < 2*sim.Day {
				p.engine.SchedulePriority(del, -1, func(at sim.Time) {
					if _, ok := p.live[in.VM.ID]; ok {
						delete(p.live, in.VM.ID)
						_ = sched.Delete(in.VM, at)
					}
				})
			}
		}
		if in.ArriveAt <= 0 {
			schedule(0)
		} else if _, err := p.engine.Schedule(in.ArriveAt, schedule); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestFullPipelineHTTPScrape runs two simulated days with the exporter
// scraped over HTTP every 30 minutes, then checks that the scraped TSDB
// agrees with direct hypervisor snapshots and supports the paper's
// analyses.
func TestFullPipelineHTTPScrape(t *testing.T) {
	p := buildPipeline(t, 250, 99)

	now := sim.Time(0)
	exp := &exporter.Exporter{
		Fleet: p.fleet,
		VMs: func() []*vmmodel.VM {
			out := make([]*vmmodel.VM, 0, len(p.live))
			for _, vm := range p.live {
				out = append(out, vm)
			}
			return out
		},
		Clock:    func() sim.Time { return now },
		Interval: 30 * sim.Minute,
	}
	srv := httptest.NewServer(exp.Handler())
	defer srv.Close()

	store := telemetry.NewStore()
	scraper := &scrape.Scraper{Store: store, Client: srv.Client()}

	// DRS runs hourly, scrapes every 30 minutes, all inside the DES.
	rebalancer := drs.New(p.fleet, drs.DefaultConfig())
	if _, err := p.engine.Every(sim.Hour, sim.Hour, func(at sim.Time) {
		rebalancer.RebalanceAll(at)
	}); err != nil {
		t.Fatal(err)
	}
	scraped := 0
	if _, err := p.engine.Every(0, 30*sim.Minute, func(at sim.Time) {
		now = at
		n, err := scraper.ScrapeTarget(srv.URL, at)
		if err != nil {
			t.Errorf("scrape at %v: %v", at, err)
			return
		}
		scraped += n
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.engine.Run(2 * sim.Day); err != nil {
		t.Fatal(err)
	}
	if scraped == 0 {
		t.Fatal("nothing scraped")
	}

	// 1. Scraped host series must exist for every non-maintenance node
	// and have one sample per scrape tick.
	series := store.Select(exporter.MetricHostCPUUtil)
	if len(series) != p.region.NodeCount() {
		t.Errorf("scraped %d host series, region has %d nodes", len(series), p.region.NodeCount())
	}
	wantTicks := int(2*sim.Day/(30*sim.Minute)) + 1
	for _, s := range series[:3] {
		if s.Len() != wantTicks {
			t.Errorf("series %s has %d samples, want %d", s.Labels, s.Len(), wantTicks)
		}
	}

	// 2. The final scraped values must match direct snapshots at the
	// same instant (the wire adds no distortion).
	final := 2 * sim.Day
	now = final
	for _, h := range p.fleet.Hosts()[:5] {
		m := h.Snapshot(final, 30*sim.Minute)
		got := store.Select(exporter.MetricHostCPUUtil,
			telemetry.Matcher{Name: "hostsystem", Value: string(h.Node.ID)})
		if len(got) != 1 {
			t.Fatalf("missing scraped series for %s", h.Node.ID)
		}
		v, ok := got[0].At(final)
		if !ok {
			t.Fatalf("no sample at final tick for %s", h.Node.ID)
		}
		if math.Abs(v-m.CPUUtilPct) > 1e-6 {
			t.Errorf("%s: scraped %.6f vs snapshot %.6f", h.Node.ID, v, m.CPUUtilPct)
		}
	}

	// 3. PromQL over the scraped store answers a Fig. 6-style question.
	engine := &promql.Engine{Store: store}
	vec, err := engine.Query(
		`100 - avg by (cluster) (avg_over_time(`+exporter.MetricHostCPUUtil+`[1d]))`, final)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != len(p.region.BBs()) {
		t.Errorf("per-cluster query returned %d groups, region has %d BBs", len(vec), len(p.region.BBs()))
	}
	for _, s := range vec {
		if s.Value < 0 || s.Value > 100 {
			t.Errorf("free CPU out of range: %v", s.Value)
		}
	}

	// 4. Dataset round-trip preserves the scraped store exactly.
	var buf bytes.Buffer
	anon := dataset.NewAnonymizer("integration")
	opts := dataset.WriteOptions{Anonymizer: anon, AnonymizeLabels: dataset.DefaultAnonymizedLabels()}
	if err := dataset.Write(&buf, store, opts); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.SampleCount() != store.SampleCount() {
		t.Errorf("round trip: %d samples vs %d", back.SampleCount(), store.SampleCount())
	}

	// 5. The anonymized dataset still supports the Fig. 5 heatmap with
	// identical column statistics (pseudonyms permute, values don't).
	origH := analysis.DailyHeatmap(store, exporter.MetricHostCPUUtil, "hostsystem", 2, analysis.FreePercent)
	anonH := analysis.DailyHeatmap(back, exporter.MetricHostCPUUtil, "hostsystem", 2, analysis.FreePercent)
	if len(origH.Columns) != len(anonH.Columns) {
		t.Fatalf("heatmap columns differ: %d vs %d", len(origH.Columns), len(anonH.Columns))
	}
	for c := range origH.Columns {
		a, b := origH.ColumnMean(c), anonH.ColumnMean(c)
		if math.Abs(a-b) > 1e-9 && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Errorf("column %d mean differs after anonymized round trip: %v vs %v", c, a, b)
		}
	}
}

// TestScrapeConsistencyUnderChurn verifies that deletions during the window
// stop VM series cleanly (no samples after the VM's deletion).
func TestScrapeConsistencyUnderChurn(t *testing.T) {
	p := buildPipeline(t, 150, 7)

	now := sim.Time(0)
	exp := &exporter.Exporter{
		Fleet: p.fleet,
		VMs: func() []*vmmodel.VM {
			out := make([]*vmmodel.VM, 0, len(p.live))
			for _, vm := range p.live {
				out = append(out, vm)
			}
			return out
		},
		Clock:    func() sim.Time { return now },
		Interval: sim.Hour,
	}
	srv := httptest.NewServer(exp.Handler())
	defer srv.Close()

	store := telemetry.NewStore()
	scraper := &scrape.Scraper{Store: store, Client: srv.Client()}
	if _, err := p.engine.Every(0, sim.Hour, func(at sim.Time) {
		now = at
		if _, err := scraper.ScrapeTarget(srv.URL, at); err != nil {
			t.Errorf("scrape: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.engine.Run(2 * sim.Day); err != nil {
		t.Fatal(err)
	}

	// Every VM series must end at or before that VM's deletion time.
	deleted := map[string]sim.Time{}
	for id := range p.live {
		_ = id
	}
	for _, s := range store.Select(exporter.MetricVMCPURatio) {
		id := s.Labels.Get("virtualmachine")
		last, _ := s.Last()
		if del, ok := deleted[id]; ok && last.T > del {
			t.Errorf("VM %s has samples after deletion (%v > %v)", id, last.T, del)
		}
	}

	// The instance gauge must track the live population at the end.
	inst := store.Select(exporter.MetricInstancesTotal)
	if len(inst) != 1 {
		t.Fatal("missing instance gauge")
	}
	last, _ := inst[0].Last()
	if int(last.V) != len(p.live) {
		t.Errorf("instance gauge = %v, live = %d", last.V, len(p.live))
	}
}
