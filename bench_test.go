package sapsim

// This file is the benchmark harness required by DESIGN.md: one testing.B
// benchmark per paper table and figure (regenerating the artifact from the
// shared 30-day fixture run), plus the A1-A7 ablation benches for the
// design choices the paper's guidance section calls out.
//
// Figure/table benches measure the analysis+render step over the fixture's
// telemetry; ablation benches run full (small) simulations per iteration
// and report domain metrics via b.ReportMetric.

import (
	"math/rand/v2"
	"strings"
	"testing"

	"sapsim/internal/analysis"
	"sapsim/internal/binpack"
	"sapsim/internal/esx"
	"sapsim/internal/nova"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// benchArtifact runs one experiment's Compute per iteration.
func benchArtifact(b *testing.B, id string) {
	res := fixture(b)
	exp, ok := ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ResetTimer()
	var art *Artifact
	for i := 0; i < b.N; i++ {
		var err error
		art, err = exp.Compute(res)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportValues(b, art)
}

func reportValues(b *testing.B, art *Artifact) {
	for k, v := range art.Values {
		b.ReportMetric(v, strings.ReplaceAll(k, " ", "_"))
	}
}

func BenchmarkFigure5NodeCPUHeatmap(b *testing.B)          { benchArtifact(b, "fig5") }
func BenchmarkFigure6BuildingBlockCPUHeatmap(b *testing.B) { benchArtifact(b, "fig6") }
func BenchmarkFigure7IntraBBCPUHeatmap(b *testing.B)       { benchArtifact(b, "fig7") }
func BenchmarkFigure8CPUReadyTime(b *testing.B)            { benchArtifact(b, "fig8") }
func BenchmarkFigure9CPUContention(b *testing.B)           { benchArtifact(b, "fig9") }
func BenchmarkFigure10MemoryHeatmap(b *testing.B)          { benchArtifact(b, "fig10") }
func BenchmarkFigure11NetworkTX(b *testing.B)              { benchArtifact(b, "fig11") }
func BenchmarkFigure12NetworkRX(b *testing.B)              { benchArtifact(b, "fig12") }
func BenchmarkFigure13StorageHeatmap(b *testing.B)         { benchArtifact(b, "fig13") }
func BenchmarkFigure14aCPUUsageCDF(b *testing.B)           { benchArtifact(b, "fig14a") }
func BenchmarkFigure14bMemoryUsageCDF(b *testing.B)        { benchArtifact(b, "fig14b") }
func BenchmarkFigure15aLifetimeByVCPU(b *testing.B)        { benchArtifact(b, "fig15a") }
func BenchmarkFigure15bLifetimeByRAM(b *testing.B)         { benchArtifact(b, "fig15b") }
func BenchmarkTable1VCPUClassification(b *testing.B)       { benchArtifact(b, "table1") }
func BenchmarkTable2RAMClassification(b *testing.B)        { benchArtifact(b, "table2") }
func BenchmarkTable3DatasetComparison(b *testing.B)        { benchArtifact(b, "table3") }
func BenchmarkTable4MetricCatalog(b *testing.B)            { benchArtifact(b, "table4") }
func BenchmarkTable5DatacenterOverview(b *testing.B)       { benchArtifact(b, "table5") }

// ablationConfig is a small, fast experiment for per-iteration simulation.
func ablationConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.02
	cfg.VMs = 500
	cfg.Days = 3
	cfg.SampleEvery = sim.Hour
	cfg.VMSampleEvery = 3 * sim.Hour
	return cfg
}

// maxBBMemSpreadPct measures the memory-allocation imbalance across
// general-purpose building blocks — the fragmentation signal of Sec. 7.
func maxBBMemSpreadPct(res *Result) float64 {
	min, max := 101.0, -1.0
	for _, bb := range res.Region.BBs() {
		a := res.Fleet.BBAlloc(bb)
		if a.MemCapMB == 0 {
			continue
		}
		pct := float64(a.MemAllocMB) / float64(a.MemCapMB) * 100
		if pct < min {
			min = pct
		}
		if pct > max {
			max = pct
		}
	}
	if max < min {
		return 0
	}
	return max - min
}

// maxContention pools the region's contention series and returns the max.
func maxContention(res *Result) float64 {
	max := 0.0
	for _, d := range analysis.DailyPooled(res.Store, "vrops_hostsystem_cpu_contention_percentage", res.Config.Days) {
		if d.N > 0 && d.Max > max {
			max = d.Max
		}
	}
	return max
}

// BenchmarkAblationPackVsSpread (A1): Nova's SAP policy — spread general
// workloads, bin-pack HANA — against pure spreading for everything. The
// packed configuration should concentrate HANA memory onto fewer nodes
// (higher max node memory usage) at equal placement success.
func BenchmarkAblationPackVsSpread(b *testing.B) {
	run := func(b *testing.B, pack bool) {
		var failures, hotNodes int
		for i := 0; i < b.N; i++ {
			cfg := ablationConfig(uint64(100 + i))
			if !pack {
				cfg.Scheduler.Weighers = []nova.Weigher{
					nova.RAMWeigher{Mult: 1, SAPPolicy: false},
					nova.CPUWeigher{Mult: 0.5},
				}
				cfg.Scheduler.HANANodePolicy = nova.SpreadNodes
			}
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			failures += res.PlacementFailures
			for _, h := range res.Fleet.Hosts() {
				if float64(h.AllocatedMemMB()) > 0.8*float64(h.MemCapacityMB()) {
					hotNodes++
				}
			}
		}
		b.ReportMetric(float64(failures)/float64(b.N), "placement_failures")
		b.ReportMetric(float64(hotNodes)/float64(b.N), "nodes_above_80pct_mem")
	}
	b.Run("sap-policy-pack-hana", func(b *testing.B) { run(b, true) })
	b.Run("spread-everything", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationDRS (A2): DRS on vs off — intra-BB imbalance and
// migration cost.
func BenchmarkAblationDRS(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		var migrations int
		var contention float64
		for i := 0; i < b.N; i++ {
			cfg := ablationConfig(uint64(200 + i))
			cfg.DRS = enabled
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			migrations += res.DRSMigrations
			contention += maxContention(res)
		}
		b.ReportMetric(float64(migrations)/float64(b.N), "migrations")
		b.ReportMetric(contention/float64(b.N), "max_contention_pct")
	}
	b.Run("drs-on", func(b *testing.B) { run(b, true) })
	b.Run("drs-off", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationContentionAware (A3): vanilla weighers vs the
// contention-aware weigher fed by live telemetry (Sec. 7 guidance).
func BenchmarkAblationContentionAware(b *testing.B) {
	run := func(b *testing.B, aware bool) {
		var contention float64
		for i := 0; i < b.N; i++ {
			cfg := ablationConfig(uint64(300 + i))
			if aware {
				cfg.ContentionFeed = true
				cfg.Scheduler.Weighers = nova.ContentionAwareWeighers()
			}
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			contention += maxContention(res)
		}
		b.ReportMetric(contention/float64(b.N), "max_contention_pct")
	}
	b.Run("vanilla", func(b *testing.B) { run(b, false) })
	b.Run("contention-aware", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationOvercommit (A4): the vCPU:pCPU overcommit factor sweep —
// the paper's "overcommit factor should be reconsidered" guidance. Higher
// ratios admit more vCPUs and trade placement success for contention.
func BenchmarkAblationOvercommit(b *testing.B) {
	for _, ratio := range []float64{1, 2, 4, 8} {
		b.Run(benchName("ratio", ratio), func(b *testing.B) {
			var failures int
			var contention float64
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(uint64(400 + i))
				cfg.ESX.OvercommitCPU = ratio
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				failures += res.PlacementFailures
				contention += maxContention(res)
			}
			b.ReportMetric(float64(failures)/float64(b.N), "placement_failures")
			b.ReportMetric(contention/float64(b.N), "max_contention_pct")
		})
	}
}

// BenchmarkAblationBinPacking (A5): classic strategies on the paper's
// general-purpose flavor mix packed onto 1:1-committed general nodes
// (96 cores, 256 GiB) — the tight packing regime where strategy choice
// matters (Sec. 3.2).
func BenchmarkAblationBinPacking(b *testing.B) {
	items := flavorItems(2000)
	for _, s := range binpack.Strategies() {
		b.Run(s.Name(), func(b *testing.B) {
			var res *binpack.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = binpack.Pack(items, 96, 256<<10, s)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Opened), "bins")
			b.ReportMetric(float64(res.LowerBound), "lower_bound")
			b.ReportMetric(res.Utilization()*100, "utilization_pct")
		})
	}
}

// flavorItems samples the catalog proportionally to Fig. 15 counts and
// shuffles deterministically: arrival order in production interleaves
// flavors, and strategy differences vanish on flavor-sorted input.
func flavorItems(n int) []binpack.Item {
	catalog := vmmodel.Catalog()
	total := vmmodel.TotalPaperVMs()
	var items []binpack.Item
	for _, f := range catalog {
		if f.Class == vmmodel.HANA {
			continue // HANA flavors live on dedicated blocks
		}
		k := f.PaperCount * n / total
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			items = append(items, binpack.Item{
				ID:    f.Name,
				CPU:   int64(f.VCPUs),
				MemMB: int64(f.RAMGiB) << 10,
			})
		}
	}
	rng := rand.New(rand.NewPCG(42, 42))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// BenchmarkAblationLifetimeAware (A6): placement that segregates short- and
// long-lived VMs reduces fragmentation churn (Sec. 7, "placement strategies
// that incorporate workload lifetime"). We proxy lifetime awareness with a
// VM-count weigher that spreads churny small flavors away from stable ones.
func BenchmarkAblationLifetimeAware(b *testing.B) {
	run := func(b *testing.B, aware bool) {
		var spread float64
		for i := 0; i < b.N; i++ {
			cfg := ablationConfig(uint64(600 + i))
			if aware {
				cfg.Scheduler.Weighers = []nova.Weigher{
					nova.RAMWeigher{Mult: 1, SAPPolicy: true},
					nova.VMCountWeigher{Mult: 1.5},
				}
			}
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			spread += maxBBMemSpreadPct(res)
		}
		b.ReportMetric(spread/float64(b.N), "bb_mem_spread_pct")
	}
	b.Run("lifetime-blind", func(b *testing.B) { run(b, false) })
	b.Run("lifetime-aware", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationHolistic (A7): two-layer Nova→BB scheduling vs holistic
// node-aware placement (NodeFitFilter wired to the live fleet), measuring
// fragmentation retries and placement failures.
func BenchmarkAblationHolistic(b *testing.B) {
	run := func(b *testing.B, holistic bool) {
		var retries, failures int
		for i := 0; i < b.N; i++ {
			cfg := ablationConfig(uint64(700 + i))
			cfg.HolisticNodeFit = holistic
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			retries += res.SchedStats.Retries
			failures += res.PlacementFailures
		}
		b.ReportMetric(float64(retries)/float64(b.N), "retries")
		b.ReportMetric(float64(failures)/float64(b.N), "placement_failures")
	}
	b.Run("two-layer", func(b *testing.B) { run(b, false) })
	b.Run("holistic-nodefit", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationCPUPinning (A8): the Sec. 8 QoS outlook — a
// latency-sensitive VM co-located with noisy neighbors, with and without
// dedicated cores. Reports the critical VM's delivered CPU ratio and ready
// time under heavy host contention.
func BenchmarkAblationCPUPinning(b *testing.B) {
	run := func(b *testing.B, pinned bool) {
		var delivered, readyMs float64
		for i := 0; i < b.N; i++ {
			r := topology.NewRegion("bench")
			dc := r.AddAZ("a").AddDC("d")
			bb, err := dc.AddBB("bb", topology.GeneralPurpose, 1, topology.Capacity{
				PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200,
			})
			if err != nil {
				b.Fatal(err)
			}
			fleet := esx.NewFleet(r, esx.DefaultConfig())
			critical := &vmmodel.VM{
				ID: "critical",
				Flavor: &vmmodel.Flavor{Name: "CRIT", VCPUs: 8, RAMGiB: 32, DiskGB: 100,
					PinCPU: pinned},
				Profile: &workload.Profile{Seed: 1, MeanCPU: 0.9},
			}
			if err := fleet.Place(critical, bb.Nodes[0], 0); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 4; j++ {
				noisy := &vmmodel.VM{
					ID:      vmmodel.ID(rune('a' + j)),
					Flavor:  vmmodel.CatalogByName()["MJ"],
					Profile: &workload.Profile{Seed: uint64(j + 2), MeanCPU: 0.9, BurstProb: 0.3, BurstMag: 1.6},
				}
				if err := fleet.Place(noisy, bb.Nodes[0], 0); err != nil {
					b.Fatal(err)
				}
			}
			h, err := fleet.Host(bb.Nodes[0].ID)
			if err != nil {
				b.Fatal(err)
			}
			for ts := sim.Time(0); ts < sim.Day; ts += 5 * sim.Minute {
				m := h.Snapshot(ts, 5*sim.Minute)
				u := h.VMSnapshot(critical, ts, 5*sim.Minute, m.CPUContentionPct)
				delivered += u.CPUUsageRatio
				readyMs += u.ReadyMillis
			}
		}
		samples := float64(b.N) * float64(sim.Day/(5*sim.Minute))
		b.ReportMetric(delivered/samples, "mean_delivered_ratio")
		b.ReportMetric(readyMs/samples/1000, "mean_ready_s")
	}
	b.Run("shared", func(b *testing.B) { run(b, false) })
	b.Run("pinned", func(b *testing.B) { run(b, true) })
}

func benchName(prefix string, v float64) string {
	switch v {
	case 1:
		return prefix + "-1to1"
	case 2:
		return prefix + "-2to1"
	case 4:
		return prefix + "-4to1"
	case 8:
		return prefix + "-8to1"
	default:
		return prefix
	}
}
