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
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sapsim/internal/analysis"
	"sapsim/internal/cli"
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

func main() { cli.Main("analyze", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs, cell := cli.Flags("analyze", stderr)
	var (
		in      = fs.String("i", "dataset.csv", "input dataset CSV")
		fig     = fs.String("fig", "all", "figure to compute: fig5, fig8, fig9, fig10, fig13, fig14a, fig14b, or all")
		query   = fs.String("query", "", "PromQL expression to evaluate instead of figures")
		at      = fs.Float64("at", -1, "query evaluation time in seconds since epoch (default: end of window)")
		oc      = fs.Bool("recommend-overcommit", false, "derive a workload-based vCPU:pCPU overcommit factor (Sec. 7 guidance)")
		scrapes = fs.String("scrape", "", "comma-separated /metrics URLs to scrape into the store instead of reading -i")
		record  = fs.String("record", "", "flight-recorder mode: poll -scrape targets into DIR/fleet.csv until interrupted")
		every   = fs.Duration("every", time.Second, "polling cadence for -record")
		forDur  = fs.Duration("for", 0, "stop -record after this long (0 = until interrupted)")
		fleet   = fs.String("fleet", "", "render queue-depth and worker-utilization timelines from a flight recording (dir or CSV)")
		crit    = fs.String("critpath", "", "critical-path and per-phase latency analysis of an exported Chrome trace")
		engprof = fs.String("engprof", "", "aggregate per-cell engine self-profiles (a sweep -engprof export dir, or one .engprof.json file)")
		against = fs.String("against", "", "second -engprof export to diff against")
		topN    = fs.Int("top", 12, "event-owner rows to show in -engprof mode")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	days := cell.Config().Days
	var urls []string
	for _, u := range strings.Split(*scrapes, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	switch {
	case *engprof != "":
		return runEngprof(stdout, *engprof, *against, *crit, *topN)
	case *crit != "":
		return runCritpath(stdout, *crit)
	case *fleet != "":
		return runFleet(stdout, *fleet)
	case *record != "":
		if len(urls) == 0 {
			return errors.New("-record needs -scrape targets")
		}
		return runRecord(stdout, stderr, *record, urls, *every, *forDur)
	}

	// The analysis pipeline is a straight-line batch job with no run loop
	// to interrupt, so the timeout is a watchdog over the whole process.
	if cell.Timeout > 0 {
		watchdog := time.AfterFunc(cell.Timeout, func() {
			fmt.Fprintf(stderr, "analyze: timed out after %v\n", cell.Timeout)
			os.Exit(1)
		})
		defer watchdog.Stop()
	}

	var store *telemetry.Store
	if len(urls) > 0 {
		// Live fleet mode: every endpoint's samples land at t=0, so
		// queries default to evaluating there — a point-in-time snapshot
		// of fleet health, not a time series.
		store = telemetry.NewStore()
		sc := &scrape.Scraper{Store: store}
		for _, url := range urls {
			n, err := sc.ScrapeTarget(url, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "scraped %s: %d samples\n", url, n)
		}
		fmt.Fprintln(stdout)
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		store, err = dataset.Read(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %s: %d series, %d samples\n\n", *in, store.SeriesCount(), store.SampleCount())
	}

	if *query != "" {
		engine := &promql.Engine{Store: store}
		evalAt := sim.Time(days) * sim.Day
		if len(urls) > 0 {
			evalAt = 0
		}
		if *at >= 0 {
			evalAt = sim.Time(*at * float64(sim.Second))
		}
		vec, err := engine.Query(*query, evalAt)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "query %s @ %s:\n%s", *query, evalAt, promql.Format(vec))
		return nil
	}

	if *oc {
		rec, instants, err := forecast.RecommendOvercommit(store)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "p99 aggregate per-vCPU demand ratio: %.3f (over %d instants)\n", rec.PeakDemandRatio, instants)
		fmt.Fprintf(stdout, "recommended vCPU:pCPU overcommit:    %.1f:1 (headroom %.2f)\n", rec.Ratio, rec.Headroom)
		return nil
	}

	want := func(id string) bool { return *fig == "all" || *fig == id }

	if want("fig5") {
		h := analysis.DailyHeatmap(store, exporter.MetricHostCPUUtil, "hostsystem", days, analysis.FreePercent)
		fmt.Fprintln(stdout, "fig5: free CPU per node — top columns (most free first):")
		fmt.Fprintln(stdout, report.HeatmapSummary(h, 10))
	}
	if want("fig8") {
		top := analysis.TopKByMax(store, exporter.MetricHostCPUReady, "hostsystem", 10,
			func(ms float64) float64 { return ms / 1000 })
		fmt.Fprintln(stdout, "fig8: top-10 nodes by CPU ready time (s):")
		fmt.Fprintln(stdout, report.NodeStatsTable(top, "s"))
	}
	if want("fig9") {
		daily := analysis.DailyPooled(store, exporter.MetricHostCPUCont, days)
		fmt.Fprintln(stdout, "fig9: region-wide CPU contention per day:")
		fmt.Fprintln(stdout, report.DailySeriesCSV(daily))
	}
	if want("fig10") {
		h := analysis.DailyHeatmap(store, exporter.MetricHostMemUsage, "hostsystem", days, analysis.FreePercent)
		fmt.Fprintln(stdout, "fig10: free memory per node — top columns:")
		fmt.Fprintln(stdout, report.HeatmapSummary(h, 10))
	}
	if want("fig13") {
		h := analysis.DailyHeatmap(store, core.MetricHostDiskPct, "hostsystem", days, analysis.FreePercent)
		d := analysis.StorageSummary(h)
		fmt.Fprintf(stdout, "fig13: storage — %.0f%% of hosts >90%% free, %.0f%% using >30%% (paper: 18%% / 7%%)\n\n",
			d.FracAbove90Free*100, d.FracAbove30Used*100)
	}
	if want("fig14a") {
		printCDF(stdout, store, exporter.MetricVMCPURatio, "fig14a: VM CPU usage", days)
	}
	if want("fig14b") {
		printCDF(stdout, store, exporter.MetricVMMemRatio, "fig14b: VM memory usage", days)
	}
	return nil
}

func printCDF(w io.Writer, store *telemetry.Store, metric, title string, days int) {
	cdf := analysis.VMMeanUsage(store, metric, 0, sim.Time(days)*sim.Day)
	split := analysis.SplitUtilization(cdf)
	fmt.Fprintln(w, title+":")
	fmt.Fprintln(w, report.UtilizationSplitTable(split))
}
