// Package sapsim reproduces "The SAP Cloud Infrastructure Dataset: A
// Reality Check of Scheduling and Placement of VMs in Cloud Computing"
// (IMC '25) as a runnable system: a discrete-event simulation of the
// paper's regional deployment — OpenStack Nova filter/weigher placement on
// top of VMware-style building blocks with DRS rebalancing — driven by a
// workload generator calibrated to the paper's published distributions, and
// an analysis layer that regenerates every table and figure of the
// evaluation.
//
// Quick start (blocking wrapper):
//
//	res, err := sapsim.Run(sapsim.DefaultConfig(42))
//	...
//	for _, exp := range sapsim.Experiments() {
//	    art, err := exp.Compute(res)
//	    fmt.Println(art.Text)
//	}
//
// The primary API is the Session lifecycle — composable, observable, and
// cancellable:
//
//	s, _ := sapsim.NewSession(cfg, sapsim.WithContext(ctx),
//	    sapsim.WithObserverFunc(func(ev sapsim.SessionEvent) { ... }))
//	defer s.Close()
//	if err := s.RunToCompletion(); err != nil { ... }
//	res, _ := s.Result()
package sapsim

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"sapsim/internal/analysis"
	"sapsim/internal/core"
	"sapsim/internal/exporter"
	"sapsim/internal/report"
	"sapsim/internal/telemetry"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// telemetryMatcher restricts heatmaps to one DC or cluster.
type telemetryMatcher = telemetry.Matcher

// Config configures an experiment run. It is core.Config re-exported.
type Config = core.Config

// Result carries a finished run. It is core.Result re-exported.
type Result = core.Result

// DefaultConfig returns the laptop-scale replica of the paper's setup.
func DefaultConfig(seed uint64) Config { return core.DefaultConfig(seed) }

// Artifact is one regenerated table or figure.
type Artifact struct {
	ID    string
	Title string
	// PaperClaim states what the paper reports, for side-by-side review.
	PaperClaim string
	// Text is the rendered table or series.
	Text string
	// Values holds the measured headline numbers keyed by name.
	Values map[string]float64
}

// Experiment maps one paper artifact to the code that regenerates it.
type Experiment struct {
	ID         string
	Title      string
	PaperClaim string
	Compute    func(res *Result) (*Artifact, error)
}

// netFreeTransform converts a NIC rate in Kbps to free-bandwidth percent
// given the 200 Gbps line rate of the paper's data center.
func netFreeTransform(kbps float64) float64 {
	const lineKbps = 200 * 1e6 // 200 Gbps in Kbit/s
	return 100 - kbps/lineKbps*100
}

// msToSec converts milliseconds to seconds (Fig. 8 axis).
func msToSec(ms float64) float64 { return ms / 1000 }

// firstDC returns the name of the region's first data center — the "single
// data center" of Figs. 5 and 10–13.
func firstDC(res *Result) string {
	dcs := res.Region.Datacenters()
	if len(dcs) == 0 {
		return ""
	}
	return dcs[0].Name
}

// largestBB returns the building block with the most nodes in the first DC
// (Fig. 7 zooms into one BB).
func largestBB(res *Result) *topology.BuildingBlock {
	dcs := res.Region.Datacenters()
	if len(dcs) == 0 {
		return nil
	}
	var best *topology.BuildingBlock
	for _, bb := range dcs[0].BBs {
		if best == nil || len(bb.Nodes) > len(best.Nodes) {
			best = bb
		}
	}
	return best
}

// heatmapArtifact assembles a heatmap artifact with spread statistics.
func heatmapArtifact(id, title, claim string, h *analysis.Heatmap) *Artifact {
	values := map[string]float64{"columns": float64(len(h.Columns))}
	if n := len(h.Columns); n > 0 {
		values["most_free_pct"] = h.ColumnMean(0)
		values["least_free_pct"] = h.ColumnMean(n - 1)
		values["spread_pct"] = h.ColumnMean(0) - h.ColumnMean(n-1)
	}
	return &Artifact{
		ID: id, Title: title, PaperClaim: claim,
		// A shaded preview (the figure's visual) followed by the full
		// CSV series (the figure's data).
		Text:   report.HeatmapASCII(h, 0, 100) + "\n" + report.HeatmapCSV(h),
		Values: values,
	}
}

// experimentIndex is the experiment list plus its by-ID index, built
// exactly once: Experiments and ExperimentByID share it, so the lookup map
// and the slice cannot drift.
type experimentIndex struct {
	list  []Experiment
	index map[string]int
}

var experimentCatalog = sync.OnceValue(func() experimentIndex {
	list := buildExperiments()
	index := make(map[string]int, len(list))
	for i, e := range list {
		if _, dup := index[e.ID]; dup {
			panic(fmt.Sprintf("sapsim: duplicate experiment ID %q", e.ID))
		}
		index[e.ID] = i
	}
	return experimentIndex{list: list, index: index}
})

// Experiments returns every table and figure of the paper's evaluation, in
// paper order. Each Compute consumes a finished Run result.
func Experiments() []Experiment {
	c := experimentCatalog()
	out := make([]Experiment, len(c.list))
	copy(out, c.list)
	return out
}

// ExperimentByID looks up one experiment through the catalog's index (built
// once; no linear scan).
func ExperimentByID(id string) (Experiment, bool) {
	c := experimentCatalog()
	i, ok := c.index[id]
	if !ok {
		return Experiment{}, false
	}
	return c.list[i], true
}

// ArtifactSet computes every experiment over the finished run and returns
// artifact ID → rendered text: the artifact bodies themselves, in the form
// ArtifactDigests fingerprints and the dispatch layer ships into the
// content-addressed store behind report bundles.
func ArtifactSet(res *Result) (map[string]string, error) {
	out := make(map[string]string)
	for _, exp := range Experiments() {
		art, err := exp.Compute(res)
		if err != nil {
			return nil, fmt.Errorf("sapsim: %s: %w", exp.ID, err)
		}
		out[exp.ID] = art.Text
	}
	return out, nil
}

// ArtifactDigests computes every experiment over the finished run and
// returns artifact ID → SHA-256 of the rendered text. It is the full
// fingerprint of a run — the basis of the golden harness, of cross-cell
// artifact diffing (cmd/sweep -diff), and of the dispatcher's byte-identity
// guarantee for distributed sweeps.
func ArtifactDigests(res *Result) (map[string]string, error) {
	set, err := ArtifactSet(res)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(set))
	for id, text := range set {
		out[id] = fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
	}
	return out, nil
}

func buildExperiments() []Experiment {
	return []Experiment{
		{
			ID:         "fig5",
			Title:      "Daily average free CPU resources per node within a single data center",
			PaperClaim: "Strong imbalance: some nodes <20% free while others show >90% free, persistent across 30 days",
			Compute: func(res *Result) (*Artifact, error) {
				h := analysis.DailyHeatmap(res.Store, exporter.MetricHostCPUUtil, "hostsystem",
					res.Config.Days, analysis.FreePercent,
					matcherDC(res))
				return heatmapArtifact("fig5", "Free CPU per node (single DC)",
					"imbalanced node utilization", h), nil
			},
		},
		{
			ID:         "fig6",
			Title:      "Daily average free CPU resources per building block",
			PaperClaim: "BB-level utilization spans roughly 70-95% free with visible imbalance across BBs",
			Compute: func(res *Result) (*Artifact, error) {
				dc := firstDC(res)
				groupOf := func(node string) string {
					n, err := res.Region.Node(topology.NodeID(node))
					if err != nil || n.Datacenter().Name != dc {
						return ""
					}
					return string(n.BB.ID)
				}
				h := analysis.GroupedHeatmap(res.Store, exporter.MetricHostCPUUtil, "hostsystem",
					res.Config.Days, analysis.FreePercent, groupOf)
				return heatmapArtifact("fig6", "Free CPU per building block",
					"inter-BB imbalance", h), nil
			},
		},
		{
			ID:         "fig7",
			Title:      "Daily average free CPU resources per node within one building block",
			PaperClaim: "Within a BB some nodes are heavily utilized (down to ~60% free or less) while others stay free — intra-BB contention",
			Compute: func(res *Result) (*Artifact, error) {
				bb := largestBB(res)
				if bb == nil {
					return nil, fmt.Errorf("sapsim: region has no building blocks")
				}
				h := analysis.DailyHeatmap(res.Store, exporter.MetricHostCPUUtil, "hostsystem",
					res.Config.Days, analysis.FreePercent,
					matcherCluster(bb))
				return heatmapArtifact("fig7", fmt.Sprintf("Free CPU per node in BB %s", bb.ID),
					"intra-BB imbalance", h), nil
			},
		},
		{
			ID:         "fig8",
			Title:      "Top-10 nodes by CPU ready time across the region",
			PaperClaim: "Spikes up to ~220 s; multiple nodes exceed the 30 s baseline several times during the month",
			Compute: func(res *Result) (*Artifact, error) {
				top := analysis.TopKByMax(res.Store, exporter.MetricHostCPUReady, "hostsystem", 10, msToSec)
				values := map[string]float64{"nodes": float64(len(top))}
				above30 := 0
				for _, s := range top {
					if s.Max > 30 {
						above30++
					}
				}
				values["nodes_above_30s"] = float64(above30)
				if len(top) > 0 {
					values["max_ready_s"] = top[0].Max
					values["top_p95_s"] = top[0].P95
				}
				return &Artifact{
					ID: "fig8", Title: "CPU ready time, top-10 nodes",
					PaperClaim: "max ready time up to 220 s, 30 s threshold crossed repeatedly",
					Text:       report.NodeStatsTable(top, "s"),
					Values:     values,
				}, nil
			},
		},
		{
			ID:         "fig9",
			Title:      "Aggregated CPU contention over all nodes within the region",
			PaperClaim: "Daily mean and p95 below 5%; maxima between 10% and 40%, exceeding the 10% strict threshold; persistent, no weekly pattern",
			Compute: func(res *Result) (*Artifact, error) {
				days := analysis.DailyPooled(res.Store, exporter.MetricHostCPUCont, res.Config.Days)
				var meanSum, maxMax float64
				n := 0
				daysAbove10 := 0
				for _, d := range days {
					if d.N == 0 {
						continue
					}
					meanSum += d.Mean
					n++
					if d.Max > maxMax {
						maxMax = d.Max
					}
					if d.Max > 10 {
						daysAbove10++
					}
				}
				values := map[string]float64{"max_contention_pct": maxMax, "days_max_above_10pct": float64(daysAbove10)}
				if n > 0 {
					values["overall_mean_pct"] = meanSum / float64(n)
				}
				return &Artifact{
					ID: "fig9", Title: "Region-wide CPU contention per day",
					PaperClaim: "mean/p95 < 5%, max 10-40%+",
					Text:       report.DailySeriesCSV(days),
					Values:     values,
				}, nil
			},
		},
		{
			ID:         "fig10",
			Title:      "Daily average free memory resources per node within a single data center",
			PaperClaim: "Bimodal: a set of nodes nearly full (<20% free, bin-packed HANA) and a set with plentiful free memory; abrupt shifts from migrations/terminations",
			Compute: func(res *Result) (*Artifact, error) {
				h := analysis.DailyHeatmap(res.Store, exporter.MetricHostMemUsage, "hostsystem",
					res.Config.Days, analysis.FreePercent, matcherDC(res))
				return heatmapArtifact("fig10", "Free memory per node (single DC)",
					"memory-constrained subset of hosts", h), nil
			},
		},
		{
			ID:         "fig11",
			Title:      "Daily average free network TX bandwidth per node",
			PaperClaim: "Free TX bandwidth ≥99.85% everywhere: network load far below the 200 Gbps line rate",
			Compute: func(res *Result) (*Artifact, error) {
				h := analysis.DailyHeatmap(res.Store, exporter.MetricHostNetTx, "hostsystem",
					res.Config.Days, netFreeTransform, matcherDC(res))
				a := heatmapArtifact("fig11", "Free network TX bandwidth per node",
					"network not a scheduling constraint", h)
				return a, nil
			},
		},
		{
			ID:         "fig12",
			Title:      "Daily average free network RX bandwidth per node",
			PaperClaim: "Free RX bandwidth ≥99.75% everywhere",
			Compute: func(res *Result) (*Artifact, error) {
				h := analysis.DailyHeatmap(res.Store, exporter.MetricHostNetRx, "hostsystem",
					res.Config.Days, netFreeTransform, matcherDC(res))
				return heatmapArtifact("fig12", "Free network RX bandwidth per node",
					"network not a scheduling constraint", h), nil
			},
		},
		{
			ID:         "fig13",
			Title:      "Daily average free storage resources per node",
			PaperClaim: "Uneven storage use: 18% of hosts >90% free, 7% using >30%",
			Compute: func(res *Result) (*Artifact, error) {
				h := analysis.DailyHeatmap(res.Store, core.MetricHostDiskPct, "hostsystem",
					res.Config.Days, analysis.FreePercent, matcherDC(res))
				a := heatmapArtifact("fig13", "Free storage per node (single DC)",
					"uneven storage utilization", h)
				d := analysis.StorageSummary(h)
				a.Values["frac_above_90_free"] = d.FracAbove90Free
				a.Values["frac_above_30_used"] = d.FracAbove30Used
				return a, nil
			},
		},
		{
			ID:         "fig14a",
			Title:      "CDF of average VM CPU usage ratio",
			PaperClaim: "VMs predominantly overprovisioned: >80% of VMs below the 70% threshold, small optimal band, tiny overutilized tail",
			Compute: func(res *Result) (*Artifact, error) {
				cdf := analysis.VMMeanUsage(res.Store, exporter.MetricVMCPURatio, 0, res.Config.Horizon())
				split := analysis.SplitUtilization(cdf)
				return &Artifact{
					ID: "fig14a", Title: "CDF of VM CPU usage",
					PaperClaim: ">80% of VMs under-utilize CPU",
					Text:       report.UtilizationSplitTable(split) + "\n" + report.CDFCSV(cdf, 21),
					Values: map[string]float64{
						"under": split.Under, "optimal": split.Optimal, "over": split.Over,
						"n": float64(split.N),
					},
				}, nil
			},
		},
		{
			ID:         "fig14b",
			Title:      "CDF of average VM memory usage ratio",
			PaperClaim: "Memory much better aligned: ≈38% under-utilized, ≈10% optimal, majority above 85%",
			Compute: func(res *Result) (*Artifact, error) {
				cdf := analysis.VMMeanUsage(res.Store, exporter.MetricVMMemRatio, 0, res.Config.Horizon())
				split := analysis.SplitUtilization(cdf)
				return &Artifact{
					ID: "fig14b", Title: "CDF of VM memory usage",
					PaperClaim: "memory requests track actual usage far better than CPU",
					Text:       report.UtilizationSplitTable(split) + "\n" + report.CDFCSV(cdf, 21),
					Values: map[string]float64{
						"under": split.Under, "optimal": split.Optimal, "over": split.Over,
						"n": float64(split.N),
					},
				}, nil
			},
		},
		{
			ID:         "fig15a",
			Title:      "Average VM lifetime per flavor, grouped by vCPU class",
			PaperClaim: "Lifetimes span minutes to years, median ≈1 week; no monotone size→lifetime relation",
			Compute:    lifetimeExperiment("fig15a", false),
		},
		{
			ID:         "fig15b",
			Title:      "Average VM lifetime per flavor, grouped by RAM class",
			PaperClaim: "Memory-intensive flavors exhibit significant lifetimes (stable long-term deployments)",
			Compute:    lifetimeExperiment("fig15b", true),
		},
		{
			ID:         "table1",
			Title:      "VM classification by number of vCPUs",
			PaperClaim: "Small 28,446 · Medium 14,340 · Large 1,831 · Extra Large 738",
			Compute: func(res *Result) (*Artifact, error) {
				return classArtifact("table1", "Table 1: classification by vCPUs", res,
					func(f *vmmodel.Flavor) vmmodel.SizeClass { return f.VCPUClass() },
					[]string{"Small (<=4)", "Medium (4<v<=16)", "Large (16<v<=64)", "Extra Large (>64)"}), nil
			},
		},
		{
			ID:         "table2",
			Title:      "VM classification by memory resources",
			PaperClaim: "Small 991 · Medium 41,395 · Large 787 · Extra Large 2,184",
			Compute: func(res *Result) (*Artifact, error) {
				return classArtifact("table2", "Table 2: classification by RAM", res,
					func(f *vmmodel.Flavor) vmmodel.SizeClass { return f.RAMClass() },
					[]string{"Small (<=2 GiB)", "Medium (2<r<=64)", "Large (64<r<=128)", "Extra Large (>128)"}), nil
			},
		},
		{
			ID:         "table3",
			Title:      "Comparison of prior work and the SAP Cloud Infrastructure Dataset",
			PaperClaim: "SAP is the only public dataset with VM workloads, lifetimes to years, and 30s-300s sampling",
			Compute: func(res *Result) (*Artifact, error) {
				return &Artifact{
					ID: "table3", Title: "Table 3: dataset comparison",
					PaperClaim: "unique position of the SAP dataset",
					Text:       report.Table3Text(),
					Values:     map[string]float64{"datasets": float64(len(report.Table3()))},
				}, nil
			},
		},
		{
			ID:         "table4",
			Title:      "Metric details for vROps and OpenStack Compute (Appendix C)",
			PaperClaim: "14 metrics across compute-host and VM subsystems",
			Compute: func(res *Result) (*Artifact, error) {
				rows := make([][]string, 0, len(exporter.Catalog()))
				for _, c := range exporter.Catalog() {
					rows = append(rows, []string{c.Name, c.Subsystem, c.Resource, c.Description})
				}
				return &Artifact{
					ID: "table4", Title: "Table 4: metric catalog",
					PaperClaim: "the released metric set",
					Text:       report.Table([]string{"metric", "subsystem", "resource", "description"}, rows),
					Values:     map[string]float64{"metrics": float64(len(rows))},
				}, nil
			},
		},
		{
			ID:         "table5",
			Title:      "Data center overview (Appendix D)",
			PaperClaim: "29 DCs; studied region 9 has 1,823 hypervisors and 47,116 VMs",
			Compute: func(res *Result) (*Artifact, error) {
				rows := make([][]string, 0, len(topology.Table5))
				for _, r := range topology.Table5 {
					rows = append(rows, []string{
						fmt.Sprintf("%d", r.RegionID), r.Datacenter,
						fmt.Sprintf("%d", r.Hypervisors), fmt.Sprintf("%d", r.VMs),
					})
				}
				hv, vms := topology.Totals()
				return &Artifact{
					ID: "table5", Title: "Table 5: data center overview",
					PaperClaim: "platform-wide scale",
					Text:       report.Table([]string{"region", "dc", "hypervisors", "vms"}, rows),
					Values:     map[string]float64{"hypervisors_total": float64(hv), "vms_total": float64(vms)},
				}, nil
			},
		},
	}
}

func matcherDC(res *Result) telemetryMatcher {
	return telemetryMatcher{Name: "datacenter", Value: firstDC(res)}
}

func matcherCluster(bb *topology.BuildingBlock) telemetryMatcher {
	return telemetryMatcher{Name: "cluster", Value: string(bb.ID)}
}

func lifetimeExperiment(id string, byRAM bool) func(res *Result) (*Artifact, error) {
	return func(res *Result) (*Artifact, error) {
		// The paper cuts at 30 instances; scale the cutoff with the
		// simulated population so down-scaled runs keep full coverage.
		minCount := len(res.Lifetimes) / 1500
		if minCount < 1 {
			minCount = 1
		}
		rows := analysis.LifetimeByFlavor(res.Lifetimes, minCount)
		if byRAM {
			sortByRAMClass(rows)
		}
		med := analysis.MedianLifetimeHours(res.Lifetimes)
		var min, max float64
		for i, r := range rows {
			if i == 0 || r.MeanHours < min {
				min = r.MeanHours
			}
			if i == 0 || r.MeanHours > max {
				max = r.MeanHours
			}
		}
		return &Artifact{
			ID: id, Title: "VM lifetime per flavor",
			PaperClaim: "median ≈1 week, range minutes to years",
			Text:       report.LifetimeTable(rows),
			Values: map[string]float64{
				"median_hours":    med,
				"min_flavor_mean": min,
				"max_flavor_mean": max,
				"flavors":         float64(len(rows)),
			},
		}, nil
	}
}

func sortByRAMClass(rows []analysis.FlavorLifetime) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].RAMClass != rows[j].RAMClass {
			return rows[i].RAMClass < rows[j].RAMClass
		}
		return rows[i].Flavor.Name < rows[j].Flavor.Name
	})
}

func classArtifact(id, title string, res *Result, classify func(*vmmodel.Flavor) vmmodel.SizeClass, bounds []string) *Artifact {
	// Classify the population present at the observation epoch, matching
	// the paper's "average of VM classification": churn instances would
	// over-weight short-lived small flavors.
	var epoch []*vmmodel.VM
	for _, vm := range res.VMs {
		if vm.CreatedAt <= 0 {
			epoch = append(epoch, vm)
		}
	}
	counts := analysis.ClassCount(epoch, classify)
	ordered := make([]int, len(vmmodel.SizeClasses))
	values := map[string]float64{}
	for i, c := range vmmodel.SizeClasses {
		ordered[i] = counts[c]
		values[c.String()] = float64(counts[c])
	}
	return &Artifact{
		ID: id, Title: title,
		PaperClaim: "size-class distribution of the VM population",
		Text:       report.ClassTable(title, bounds, ordered),
		Values:     values,
	}
}
