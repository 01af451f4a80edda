// Scheduler comparison: run the same workload under each placement policy
// — the SAP production posture (spread general, bin-pack HANA), pure
// spreading, BestFit-style packing, and contention-aware placement — and
// compare placement success, fleet imbalance, and contention. This is the
// runnable form of the paper's Sec. 7 guidance ("placement and dynamic
// rescheduling should be combined", "CPU contention should be mitigated").
//
// Policies come from sapsim.Policies, rows of the one table of scheduler
// configurations (scenario.BuiltinVariants), so nothing here hand-wires
// scheduler internals.
package main

import (
	"fmt"
	"log"

	"sapsim"
	"sapsim/internal/analysis"
	"sapsim/internal/exporter"
	"sapsim/internal/sim"
)

func main() {
	fmt.Printf("%-20s %9s %8s %12s %12s\n",
		"policy", "failures", "retries", "maxcont(%)", "spread(pts)")
	for _, p := range sapsim.Policies() {
		cfg := sapsim.DefaultConfig(7)
		cfg.Scale = 0.03
		cfg.VMs = 900
		cfg.Days = 7
		cfg.SampleEvery = 15 * sim.Minute
		cfg.RecordVMMetrics = false

		session, err := sapsim.NewSession(cfg, sapsim.WithPolicy(p.Name))
		if err != nil {
			log.Fatal(err)
		}
		if err := session.RunToCompletion(); err != nil {
			log.Fatal(err)
		}
		res, err := session.Result()
		if err != nil {
			log.Fatal(err)
		}
		session.Close()

		maxCont := 0.0
		for _, d := range analysis.DailyPooled(res.Store, exporter.MetricHostCPUCont, cfg.Days) {
			if d.N > 0 && d.Max > maxCont {
				maxCont = d.Max
			}
		}
		h := analysis.DailyHeatmap(res.Store, exporter.MetricHostCPUUtil, "hostsystem",
			cfg.Days, analysis.FreePercent)
		spread := 0.0
		if n := len(h.Columns); n > 1 {
			spread = h.ColumnMean(0) - h.ColumnMean(n-1)
		}
		fmt.Printf("%-20s %9d %8d %12.1f %12.1f\n",
			p.Name, res.PlacementFailures, res.SchedStats.Retries, maxCont, spread)
	}
	fmt.Println("\nreading: packing concentrates load (higher contention, wider spread);")
	fmt.Println("contention-aware placement trades a little balance for fewer hot spots.")
}
