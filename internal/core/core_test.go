package core

import (
	"math"
	"testing"

	"sapsim/internal/analysis"
	"sapsim/internal/exporter"
	"sapsim/internal/nova"
	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
)

// smallConfig is a fast experiment for unit tests: 2% region scale, one
// week, coarse sampling.
func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.02
	cfg.VMs = 400
	cfg.Days = 7
	cfg.SampleEvery = 30 * sim.Minute
	cfg.VMSampleEvery = 2 * sim.Hour
	return cfg
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.VMs = 0 },
		func(c *Config) { c.Days = 0 },
		func(c *Config) { c.SampleEvery = 0 },
		func(c *Config) { c.VMSampleEvery = 0 },
	}
	for i, mutate := range bad {
		cfg := smallConfig(1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := smallConfig(1).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRunProducesTelemetry(t *testing.T) {
	res, err := Run(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	// Host series exist for every non-maintenance node.
	nodes := res.Region.NodeCount()
	cpuSeries := res.Store.Select(exporter.MetricHostCPUUtil)
	if len(cpuSeries) != nodes {
		t.Errorf("CPU series = %d, nodes = %d", len(cpuSeries), nodes)
	}
	// 7 days at 30-minute sampling = 336 samples (+1 at t=0).
	wantSamples := 7*48 + 1
	if got := cpuSeries[0].Len(); got != wantSamples {
		t.Errorf("samples per host = %d, want %d", got, wantSamples)
	}
	// Every Table 4 host metric present.
	for _, m := range []string{
		exporter.MetricHostMemUsage, exporter.MetricHostNetTx, exporter.MetricHostNetRx,
		exporter.MetricHostDiskUsage, exporter.MetricHostCPUCont, exporter.MetricHostCPUReady,
		MetricHostDiskPct,
	} {
		if len(res.Store.Select(m)) == 0 {
			t.Errorf("metric %s missing", m)
		}
	}
	// VM metrics and instance gauge.
	if len(res.Store.Select(exporter.MetricVMCPURatio)) == 0 {
		t.Error("no VM CPU series")
	}
	inst := res.Store.Select(exporter.MetricInstancesTotal)
	if len(inst) != 1 || inst[0].Len() == 0 {
		t.Fatal("instance gauge missing")
	}
	if v := inst[0].Sample(0).V; v < 300 {
		t.Errorf("initial population = %v, want ≥300", v)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig(11)
	cfg.Days = 3
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Store.SampleCount() != b.Store.SampleCount() {
		t.Errorf("sample counts differ: %d vs %d", a.Store.SampleCount(), b.Store.SampleCount())
	}
	if len(a.VMs) != len(b.VMs) {
		t.Fatalf("VM counts differ: %d vs %d", len(a.VMs), len(b.VMs))
	}
	if a.SchedStats.Scheduled != b.SchedStats.Scheduled || a.DRSMigrations != b.DRSMigrations {
		t.Errorf("scheduling activity differs: %+v vs %+v", a.SchedStats, b.SchedStats)
	}
	// Spot-check one series is bit-identical.
	sa := a.Store.Select(exporter.MetricHostCPUUtil)[0]
	sb := b.Store.Select(exporter.MetricHostCPUUtil)[0]
	for i := 0; i < sa.Len(); i++ {
		if sa.Sample(i) != sb.Sample(i) {
			t.Fatalf("sample %d differs: %+v vs %+v", i, sa.Sample(i), sb.Sample(i))
		}
	}
}

func TestRunPlacesMostVMs(t *testing.T) {
	res, err := Run(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.VMs)
	if total < 400 {
		t.Fatalf("only %d VM instances generated", total)
	}
	failRate := float64(res.PlacementFailures) / float64(total)
	if failRate > 0.2 {
		t.Errorf("placement failure rate = %.2f (%d/%d), too high for a fresh region",
			failRate, res.PlacementFailures, total)
	}
	if res.SchedStats.Scheduled == 0 {
		t.Error("nothing scheduled")
	}
}

func TestRunChurnHappens(t *testing.T) {
	res, err := Run(smallConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	deleted := 0
	for _, vm := range res.VMs {
		if vm.State == vmmodel.Deleted {
			deleted++
		}
	}
	// Short-lived flavors guarantee some deletions within a week.
	if deleted == 0 {
		t.Error("no VM deletions in a week of churn")
	}
	// Lifetime records exist for every instance.
	if len(res.Lifetimes) != len(res.VMs) {
		t.Errorf("lifetimes = %d, VMs = %d", len(res.Lifetimes), len(res.VMs))
	}
}

func TestRunDRSActivity(t *testing.T) {
	cfg := smallConfig(19)
	cfg.Days = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withDRS := res.DRSMigrations
	cfg.DRS = false
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DRSMigrations != 0 {
		t.Error("DRS disabled but migrations recorded")
	}
	_ = withDRS // DRS may legitimately be idle on a balanced run
}

func TestRunUtilizationShapes(t *testing.T) {
	cfg := smallConfig(23)
	cfg.Days = 7
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 14a shape: most VMs below 70% mean CPU usage.
	cdf := analysis.VMMeanUsage(res.Store, exporter.MetricVMCPURatio, 0, cfg.Horizon())
	split := analysis.SplitUtilization(cdf)
	if split.N == 0 {
		t.Fatal("no VM usage data")
	}
	if split.Under < 0.70 {
		t.Errorf("CPU under-utilized fraction = %.2f, want ≥0.70 (Fig. 14a shape)", split.Under)
	}
	// Fig. 14b shape: memory much better utilized than CPU.
	mem := analysis.SplitUtilization(analysis.VMMeanUsage(res.Store, exporter.MetricVMMemRatio, 0, cfg.Horizon()))
	if mem.Over < split.Over {
		t.Errorf("memory over fraction %.2f should exceed CPU over fraction %.2f", mem.Over, split.Over)
	}
	// Node imbalance (Fig. 5): free-CPU spread across nodes should be wide.
	h := analysis.DailyHeatmap(res.Store, exporter.MetricHostCPUUtil, "hostsystem", cfg.Days, analysis.FreePercent)
	if len(h.Columns) == 0 {
		t.Fatal("empty heatmap")
	}
	mostFree := h.ColumnMean(0)
	leastFree := h.ColumnMean(len(h.Columns) - 1)
	if math.IsNaN(mostFree) || math.IsNaN(leastFree) {
		t.Fatal("NaN column means")
	}
	if mostFree-leastFree < 10 {
		t.Errorf("node imbalance too small: most free %.1f, least free %.1f", mostFree, leastFree)
	}
}

func TestRunNetworkHeadroom(t *testing.T) {
	res, err := Run(smallConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	// Figs. 11/12: network is never a constraint (200 Gbps NICs).
	for _, s := range res.Store.Select(exporter.MetricHostNetTx) {
		for i := 0; i < s.Len(); i++ {
			smp := s.Sample(i)
			pct := smp.V / (200 * 1e6) * 100 // Kbps over 200 Gbps
			if pct > 1.0 {
				t.Fatalf("TX utilization %.3f%% exceeds 1%%; paper reports ≤0.3%%", pct)
			}
		}
	}
}

// TestRunContentionFeedEnablesWeigher checks that host samples reach the
// scheduler's per-BB contention view when its weighers hold a
// ContentionWeigher, and never with the default weighers.
func TestRunContentionFeedEnablesWeigher(t *testing.T) {
	cfg := smallConfig(31)
	cfg.Scheduler.Weighers = nova.ContentionAwareWeighers()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fed := res.Scheduler.Contention()
	if len(fed) == 0 {
		t.Fatal("the contention feed never reached the scheduler")
	}
	for bb := range fed {
		if _, err := res.Region.BB(bb); err != nil {
			t.Errorf("contention fed for unknown block: %v", err)
		}
	}
	if res, err = Run(smallConfig(31)); err != nil {
		t.Fatal(err)
	}
	if fed := res.Scheduler.Contention(); len(fed) != 0 {
		t.Errorf("contention reached the scheduler without the feed: %v", fed)
	}
}
