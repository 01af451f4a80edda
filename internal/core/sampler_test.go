package core_test

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sapsim/internal/core"
	"sapsim/internal/exporter"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
	"sapsim/internal/snapshot"
	"sapsim/internal/telemetry"
)

func smallConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.Scale = 0.02
	cfg.VMs = 300
	cfg.Days = 3
	return cfg
}

// dumpKeys renders a store's series identities in creation order.
func dumpKeys(st *telemetry.Store) []string {
	var keys []string
	for _, d := range st.Dump() {
		keys = append(keys, d.Metric+"{"+strings.Join(d.Labels, ",")+"}")
	}
	return keys
}

// TestSeriesCreationOrderIsDeterministic: two runs of one config must create
// their series — the VM families included, which used to follow map
// iteration — in the same order, so Dump, Select and snapshot bytes repeat.
func TestSeriesCreationOrderIsDeterministic(t *testing.T) {
	cfg := smallConfig(7)
	var keys [][]string
	var blobs [][]byte
	for i := 0; i < 2; i++ {
		s, err := core.NewSimulation(cfg, core.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AdvanceTo(2*sim.Day, nil); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := snapshot.EncodeBytes(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AdvanceTo(s.Horizon(), nil); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, dumpKeys(s.Result().Store))
		blobs = append(blobs, blob)
	}
	if !reflect.DeepEqual(keys[0], keys[1]) {
		t.Error("same seed, different series creation order")
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Error("same seed, same instant, different snapshot bytes")
	}
}

// lateHost keeps one ordinary host out of service from injection time until
// At, so its series are created mid-run.
type lateHost struct{ At sim.Time }

func (lateHost) Name() string { return "late-host" }

func (l lateHost) Inject(env *core.Env) error {
	nodes := env.Region.Nodes()
	n := nodes[len(nodes)/2]
	env.OnRestore("up", func([]byte) (sim.Handler, error) {
		return func(sim.Time) { env.BringUp(n) }, nil
	})
	env.TakeDown(n)
	_, err := env.ScheduleOwned(l.At, "up", nil)
	return err
}

// TestHostSeriesOrderMatchesBufferedAppender: the handle path must create
// host series in the order the buffered Appender path did — per sweep,
// shard-major, then host-major in schema order — including hosts whose
// first sample comes mid-run (a capacity expansion's blocks, a host out of
// service at t=0). The reference replays the cell's own host samples
// through an Appender into a fresh store, one commit per sweep.
func TestHostSeriesOrderMatchesBufferedAppender(t *testing.T) {
	cfg := smallConfig(11)
	cfg.RecordVMMetrics = false
	cfg.Injectors = []core.Injector{
		lateHost{At: 10 * sim.Hour}, // first: picks among the region's original nodes
		scenario.CapacityExpansion{At: sim.Day, Blocks: 2, Every: 6 * sim.Hour, Salt: 3},
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	schema := map[string]int{}
	for i, m := range []string{
		exporter.MetricHostCPUUtil, exporter.MetricHostMemUsage,
		exporter.MetricHostNetTx, exporter.MetricHostNetRx,
		exporter.MetricHostDiskUsage, core.MetricHostDiskPct,
		exporter.MetricHostCPUCont, exporter.MetricHostCPUReady,
	} {
		schema[m] = i
	}
	type point struct {
		t      sim.Time
		host   string
		field  int
		metric string
		labels telemetry.Labels
		v      float64
	}
	var points []point
	firstSample := map[sim.Time]bool{}
	for _, d := range res.Store.Dump() {
		field, ok := schema[d.Metric]
		if !ok {
			t.Fatalf("unexpected series %s", d.Metric)
		}
		if len(d.Times) > 0 {
			t.Fatalf("sampler-written series %s%v fell off its grid", d.Metric, d.Labels)
		}
		l := telemetry.MustLabels(d.Labels...)
		firstSample[d.Start] = true
		for i, v := range d.Values {
			points = append(points, point{d.Start + sim.Time(i)*d.Step, l.Get("hostsystem"), field, d.Metric, l, v})
		}
	}
	if len(firstSample) < 4 {
		t.Fatalf("hosts first sampled at %d distinct instants, want t=0, the late host and two expansion blocks", len(firstSample))
	}
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i], points[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.host != b.host {
			return a.host < b.host
		}
		return a.field < b.field
	})
	ref := telemetry.NewStore()
	app := ref.Appender()
	for i, p := range points {
		app.Append(p.metric, p.labels, p.t, p.v)
		if i+1 == len(points) || points[i+1].t != p.t {
			if _, err := app.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := dumpKeys(res.Store), dumpKeys(ref); !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("creation order diverges at series %d of %d:\n  handles:  %s\n  appender: %s", i, len(want), got[i], want[i])
			}
		}
		t.Fatalf("%d series through handles, %d through the appender", len(got), len(want))
	}
}

// TestRejectedSampleFailsTheRun: an out-of-order append in a sampling sweep
// used to be dropped; it must come back from AdvanceTo.
func TestRejectedSampleFailsTheRun(t *testing.T) {
	s, err := core.NewSimulation(smallConfig(5), core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	// A sample ahead of the clock makes the sampler's next hour of appends
	// to that series non-advancing.
	res := s.Result()
	n := res.Fleet.Hosts()[0].Node
	l := telemetry.MustLabels("hostsystem", string(n.ID), "cluster", string(n.BB.ID), "datacenter", n.Datacenter().Name)
	if err := res.Store.Append(exporter.MetricHostCPUUtil, l, sim.Hour, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(s.Horizon(), nil); !errors.Is(err, telemetry.ErrOutOfOrder) {
		t.Fatalf("AdvanceTo = %v, want telemetry.ErrOutOfOrder", err)
	}
}

// TestResumeKeepsFirstSampleFlavor: a VM resized before a snapshot keeps
// appending, after restore, to the series opened under the flavor of its
// first sample — one series per VM and metric, never a second one under the
// current flavor.
func TestResumeKeepsFirstSampleFlavor(t *testing.T) {
	cfg := smallConfig(3)
	cfg.Days = 4
	cfg.ResizeRate = 6 // ~60 resizes a day
	s, err := core.NewSimulation(cfg, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(2*sim.Day, nil); err != nil {
		t.Fatal(err)
	}
	if s.Result().Resizes == 0 {
		t.Fatal("no resize before the snapshot")
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreSimulation(cfg, core.Hooks{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range []*core.Simulation{s, restored} {
		if err := sm.AdvanceTo(sm.Horizon(), nil); err != nil {
			t.Fatal(err)
		}
	}
	res := restored.Result()
	flavorNow := map[string]string{}
	for _, vm := range res.VMs {
		flavorNow[string(vm.ID)] = vm.Flavor.Name
	}
	for _, metric := range []string{exporter.MetricVMCPURatio, exporter.MetricVMMemRatio} {
		perVM := map[string]int{}
		pinned := 0
		for _, series := range res.Store.Select(metric) {
			id := series.Labels.Get("virtualmachine")
			perVM[id]++
			if series.Labels.Get("flavor") != flavorNow[id] {
				pinned++
			}
		}
		for id, n := range perVM {
			if n != 1 {
				t.Errorf("%s: %d series for %s, want 1", metric, n, id)
			}
		}
		if pinned == 0 {
			t.Errorf("%s: no series carries a pre-resize flavor; the test exercises nothing", metric)
		}
	}
	if !reflect.DeepEqual(dumpKeys(s.Result().Store), dumpKeys(res.Store)) {
		t.Error("restored run's series differ from the uninterrupted run's")
	}
}
