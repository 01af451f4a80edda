// Command analyze recomputes figures from a previously exported dataset
// CSV, demonstrating that the released artifact alone suffices for the
// paper's telemetry-based analysis (Figs. 5, 8, 9, 10-14).
//
// Usage:
//
//	analyze -i dataset.csv [-days N] [-fig fig9]
//	analyze -scrape URL[,URL...] -query EXPR
//	analyze -record DIR -scrape URL[,URL...] [-every D] [-for D]
//	analyze -fleet DIR
//	analyze -critpath trace.json
//	analyze -engprof DIR|FILE [-against DIR|FILE] [-top N] [-critpath trace.json]
//
// With -scrape, analyze pulls live Prometheus exposition endpoints (a
// dispatchd's and any simworker -metrics listeners) into a fresh telemetry
// store instead of loading a CSV, and answers -query against the fleet's
// current state — e.g. `sum(dispatch_queue_jobs)` mid-sweep.
//
// With -record, the same endpoints are polled continuously — the fleet
// flight recorder — appending every sample to DIR/fleet.csv until
// interrupted (or -for elapses). -fleet replays such a recording into
// queue-depth and worker-utilization timelines; -critpath analyzes a
// Chrome trace exported by sweep/dispatchd -trace: critical path through
// the slowest cell plus a per-phase latency breakdown.
//
// With -engprof, analyze aggregates the per-cell engine self-profiles a
// sweep exports (sweep -engprof DIR): the fleet-wide per-phase time/work
// attribution table, the top event owners, and the straggler cells with
// their dominant phase. -against diffs two exports; combining with
// -critpath joins each straggler's attributed time against its wall-clock
// cell span from the trace.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sapsim/internal/analysis"
	"sapsim/internal/core"
	"sapsim/internal/dataset"
	"sapsim/internal/exporter"
	"sapsim/internal/forecast"
	"sapsim/internal/promql"
	"sapsim/internal/report"
	"sapsim/internal/scrape"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

func main() {
	var (
		in      = flag.String("i", "dataset.csv", "input dataset CSV")
		days    = flag.Int("days", 30, "observation window in days")
		fig     = flag.String("fig", "all", "figure to compute: fig5, fig8, fig9, fig10, fig13, fig14a, fig14b, or all")
		query   = flag.String("query", "", "PromQL expression to evaluate instead of figures")
		at      = flag.Float64("at", -1, "query evaluation time in seconds since epoch (default: end of window)")
		oc      = flag.Bool("recommend-overcommit", false, "derive a workload-based vCPU:pCPU overcommit factor (Sec. 7 guidance)")
		scrapes = flag.String("scrape", "", "comma-separated /metrics URLs to scrape into the store instead of reading -i")
		timeout = flag.Duration("timeout", 0, "wall-clock limit for load + analysis (0 = none)")
		record  = flag.String("record", "", "flight-recorder mode: poll -scrape targets into DIR/fleet.csv until interrupted")
		every   = flag.Duration("every", time.Second, "polling cadence for -record")
		forDur  = flag.Duration("for", 0, "stop -record after this long (0 = until interrupted)")
		fleet   = flag.String("fleet", "", "render queue-depth and worker-utilization timelines from a flight recording (dir or CSV)")
		crit    = flag.String("critpath", "", "critical-path and per-phase latency analysis of an exported Chrome trace")
		engprof = flag.String("engprof", "", "aggregate per-cell engine self-profiles (a sweep -engprof export dir, or one .engprof.json file)")
		against = flag.String("against", "", "second -engprof export to diff against")
		topN    = flag.Int("top", 12, "event-owner rows to show in -engprof mode")
	)
	flag.Parse()

	switch {
	case *engprof != "":
		if err := runEngprof(*engprof, *against, *crit, *topN); err != nil {
			fatal(err)
		}
		return
	case *crit != "":
		if err := runCritpath(*crit); err != nil {
			fatal(err)
		}
		return
	case *fleet != "":
		if err := runFleet(*fleet); err != nil {
			fatal(err)
		}
		return
	case *record != "":
		if *scrapes == "" {
			fatal(fmt.Errorf("-record needs -scrape targets"))
		}
		if err := runRecord(*record, *scrapes, *every, *forDur); err != nil {
			fatal(err)
		}
		return
	}

	// The analysis pipeline is a straight-line batch job with no run loop
	// to interrupt, so the timeout is a watchdog over the whole process.
	if *timeout > 0 {
		time.AfterFunc(*timeout, func() {
			fatal(fmt.Errorf("timed out after %v", *timeout))
		})
	}

	var store *telemetry.Store
	if *scrapes != "" {
		// Live fleet mode: every endpoint's samples land at t=0, so
		// queries default to evaluating there — a point-in-time snapshot
		// of fleet health, not a time series.
		store = telemetry.NewStore()
		sc := &scrape.Scraper{Store: store}
		for _, url := range strings.Split(*scrapes, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				continue
			}
			n, err := sc.ScrapeTarget(url, 0)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("scraped %s: %d samples\n", url, n)
		}
		fmt.Println()
	} else {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		store, err = dataset.Read(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s: %d series, %d samples\n\n", *in, store.SeriesCount(), store.SampleCount())
	}

	if *query != "" {
		engine := &promql.Engine{Store: store}
		evalAt := sim.Time(*days) * sim.Day
		if *scrapes != "" {
			evalAt = 0
		}
		if *at >= 0 {
			evalAt = sim.Time(*at * float64(sim.Second))
		}
		vec, err := engine.Query(*query, evalAt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("query %s @ %s:\n%s", *query, evalAt, promql.Format(vec))
		return
	}

	if *oc {
		// Overcommit works through statistical multiplexing: the input
		// is the *aggregate* per-vCPU demand ratio of the population at
		// each sampling instant, not individual VM tails.
		sums := map[sim.Time]float64{}
		counts := map[sim.Time]int{}
		for _, s := range store.Select(exporter.MetricVMCPURatio) {
			for i := 0; i < s.Len(); i++ {
				smp := s.Sample(i)
				sums[smp.T] += smp.V
				counts[smp.T]++
			}
		}
		var ratios []float64
		for ts, sum := range sums {
			ratios = append(ratios, sum/float64(counts[ts]))
		}
		rec, err := forecast.DynamicOvercommit(ratios, 1.25)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("p99 aggregate per-vCPU demand ratio: %.3f (over %d instants)\n", rec.PeakDemandRatio, len(ratios))
		fmt.Printf("recommended vCPU:pCPU overcommit:    %.1f:1 (headroom %.2f)\n", rec.Ratio, rec.Headroom)
		return
	}

	want := func(id string) bool { return *fig == "all" || *fig == id }

	if want("fig5") {
		h := analysis.DailyHeatmap(store, exporter.MetricHostCPUUtil, "hostsystem", *days, analysis.FreePercent)
		fmt.Println("fig5: free CPU per node — top columns (most free first):")
		fmt.Println(report.HeatmapSummary(h, 10))
	}
	if want("fig8") {
		top := analysis.TopKByMax(store, exporter.MetricHostCPUReady, "hostsystem", 10,
			func(ms float64) float64 { return ms / 1000 })
		fmt.Println("fig8: top-10 nodes by CPU ready time (s):")
		fmt.Println(report.NodeStatsTable(top, "s"))
	}
	if want("fig9") {
		daily := analysis.DailyPooled(store, exporter.MetricHostCPUCont, *days)
		fmt.Println("fig9: region-wide CPU contention per day:")
		fmt.Println(report.DailySeriesCSV(daily))
	}
	if want("fig10") {
		h := analysis.DailyHeatmap(store, exporter.MetricHostMemUsage, "hostsystem", *days, analysis.FreePercent)
		fmt.Println("fig10: free memory per node — top columns:")
		fmt.Println(report.HeatmapSummary(h, 10))
	}
	if want("fig13") {
		h := analysis.DailyHeatmap(store, core.MetricHostDiskPct, "hostsystem", *days, analysis.FreePercent)
		d := analysis.StorageSummary(h)
		fmt.Printf("fig13: storage — %.0f%% of hosts >90%% free, %.0f%% using >30%% (paper: 18%% / 7%%)\n\n",
			d.FracAbove90Free*100, d.FracAbove30Used*100)
	}
	if want("fig14a") {
		printCDF(store, exporter.MetricVMCPURatio, "fig14a: VM CPU usage", *days)
	}
	if want("fig14b") {
		printCDF(store, exporter.MetricVMMemRatio, "fig14b: VM memory usage", *days)
	}
}

func printCDF(store telemetry.Querier, metric, title string, days int) {
	cdf := analysis.VMMeanUsage(store, metric, 0, sim.Time(days)*sim.Day)
	split := analysis.SplitUtilization(cdf)
	fmt.Println(title + ":")
	fmt.Println(report.UtilizationSplitTable(split))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "analyze:", err)
	os.Exit(1)
}
