// Capacity planning: the proactive-management loop the paper's guidance
// sketches (Sec. 7) — fit a seasonal demand model to each building block's
// telemetry, forecast a week ahead, derive a workload-based overcommit
// recommendation, and flag the blocks that will run out of memory headroom
// first.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"sapsim"
	"sapsim/internal/analysis"
	"sapsim/internal/exporter"
	"sapsim/internal/forecast"
	"sapsim/internal/promql"
	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
)

func main() {
	cfg := sapsim.DefaultConfig(21)
	cfg.Scale = 0.03
	cfg.VMs = 900
	cfg.Days = 14
	cfg.SampleEvery = 15 * sim.Minute
	cfg.VMSampleEvery = sim.Hour

	// A bounded, cancellable run: the context caps the wall-clock cost of
	// the planning loop (generous here; a 14-day window simulates in
	// seconds).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	session, err := sapsim.NewSession(cfg, sapsim.WithContext(ctx))
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	if err := session.RunToCompletion(); err != nil {
		log.Fatal(err)
	}
	res, err := session.Result()
	if err != nil {
		log.Fatal(err)
	}
	horizon := cfg.Horizon()

	// 1. Seasonal demand forecasting per building block: average the
	// member-node CPU series and fit Holt-Winters with a daily period.
	fmt.Println("per-building-block CPU demand forecast (one week ahead):")
	fmt.Printf("%-18s %10s %12s %12s\n", "building block", "now (%)", "forecast (%)", "fit MAE")
	period := int(sim.Day / cfg.SampleEvery)
	type row struct {
		bb             string
		now, pred, mae float64
	}
	var rows []row
	engine := &promql.Engine{Store: res.Store}
	for _, bb := range res.Region.BBs() {
		series := res.Store.Select(exporter.MetricHostCPUUtil,
			telemetry.Matcher{Name: "cluster", Value: string(bb.ID)})
		if len(series) == 0 {
			continue
		}
		// Average member nodes into one BB series, held in a store of
		// its own.
		bbStore := telemetry.NewStore()
		for i := 0; i < series[0].Len(); i++ {
			sum := 0.0
			n := 0
			for _, s := range series {
				if i < s.Len() {
					sum += s.Sample(i).V
					n++
				}
			}
			if n > 0 {
				if err := bbStore.Append("bb_cpu", telemetry.Labels{}, series[0].Sample(i).T, sum/float64(n)); err != nil {
					log.Fatal(err)
				}
			}
		}
		avg := bbStore.Select("bb_cpu")[0]
		model, err := forecast.NewHoltWinters(0.3, 0.01, 0.3, period)
		if err != nil {
			log.Fatal(err)
		}
		validation, _ := forecast.NewHoltWinters(0.3, 0.01, 0.3, period)
		mae := forecast.MAE(validation, avg)
		model.FitSeries(avg)
		last, _ := avg.Last()
		rows = append(rows, row{
			bb:   string(bb.ID),
			now:  last.V,
			pred: model.Forecast(7 * period),
			mae:  mae,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].pred > rows[j].pred })
	for _, r := range rows {
		fmt.Printf("%-18s %10.1f %12.1f %12.2f\n", r.bb, r.now, r.pred, r.mae)
	}

	// 2. Workload-based overcommit recommendation from aggregate demand.
	sums := map[sim.Time]float64{}
	counts := map[sim.Time]int{}
	for _, s := range res.Store.Select(exporter.MetricVMCPURatio) {
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
		log.Fatal(err)
	}
	fmt.Printf("\nworkload-based overcommit: %.1f:1 (p99 aggregate demand ratio %.2f, current config %.0f:1)\n",
		rec.Ratio, rec.PeakDemandRatio, cfg.ESX.OvercommitCPU)

	// 3. Memory pressure ranking via PromQL: which blocks are closest to
	// their memory ceiling over the last week?
	vec, err := engine.Query(
		`max by (cluster) (avg_over_time(`+exporter.MetricHostMemUsage+`[7d]))`, horizon)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(vec, func(i, j int) bool { return vec[i].Value > vec[j].Value })
	fmt.Println("\nmemory pressure (max member-node weekly mean, descending):")
	for i, s := range vec {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-18s %5.1f%%\n", s.Labels.Get("cluster"), s.Value)
	}

	// 4. Weekend effect, the temporal pattern of Fig. 8.
	eff := analysis.WeekdayWeekendEffect(res.Store, exporter.MetricHostCPUUtil, cfg.Days)
	fmt.Printf("\nweekday mean CPU %.1f%%, weekend %.1f%% (dip %.0f%%)\n",
		eff.WeekdayMean, eff.WeekendMean, eff.Dip*100)
}
