// Trace replay: the dataset's headline use case — evaluate a *different*
// scheduler against the *recorded* workload. This example produces a
// dataset (stand-in for the released Zenodo CSVs), reconstructs the
// workload from it with BuildReplay, and replays it through a scheduler
// with a different placement policy, comparing fleet imbalance.
package main

import (
	"bytes"
	"fmt"
	"log"

	"sapsim"
	"sapsim/internal/dataset"
	"sapsim/internal/esx"
	"sapsim/internal/nova"
	"sapsim/internal/placement"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/workload"
)

func main() {
	// Phase 1: the "measurement" run, producing the released dataset. The
	// Session form keeps the measurement observable; the blocking
	// sapsim.Run(cfg) wrapper would produce identical bytes.
	cfg := sapsim.DefaultConfig(5)
	cfg.Scale = 0.02
	cfg.VMs = 350
	cfg.Days = 5
	cfg.SampleEvery = sim.Hour
	cfg.VMSampleEvery = sim.Hour
	session, err := sapsim.NewSession(cfg)
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
	var csv bytes.Buffer
	if err := dataset.Write(&csv, res.Store, dataset.WriteOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measurement run: %d VMs, dataset %d KiB\n", len(res.VMs), csv.Len()>>10)

	// Phase 2: a downstream consumer loads the CSV and reconstructs the
	// workload — recorded demand traces, arrivals, and lifetimes.
	store, err := dataset.Read(&csv)
	if err != nil {
		log.Fatal(err)
	}
	instances, err := workload.BuildReplay(store, cfg.Horizon())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay workload: %d instances reconstructed from telemetry\n\n", len(instances))

	// Phase 3: replay through two scheduler variants on a fresh region.
	pack, ok := sapsim.PolicyByName(sapsim.PolicyPack)
	if !ok {
		log.Fatalf("no %s policy", sapsim.PolicyPack)
	}
	packed := sapsim.DefaultConfig(cfg.Seed)
	pack.Apply(&packed)
	variants := []struct {
		name string
		cfg  nova.Config
	}{
		{"production (spread gp / pack HANA)", nova.DefaultConfig()},
		{"pack-everything (BestFit-style)", packed.Scheduler},
	}
	for _, v := range variants {
		region, err := topology.Build(topology.DefaultBuildSpec(cfg.Scale))
		if err != nil {
			log.Fatal(err)
		}
		fleet := esx.NewFleet(region, esx.DefaultConfig())
		sched, err := nova.NewScheduler(fleet, placement.NewService(), v.cfg)
		if err != nil {
			log.Fatal(err)
		}
		engine := sim.NewEngine()
		placed, failed := 0, 0
		for _, in := range instances {
			in := in
			apply := func(at sim.Time) {
				if _, err := sched.Schedule(&nova.RequestSpec{VM: in.VM}, at); err != nil {
					failed++
					return
				}
				placed++
				if del := in.DeleteAt(); del < cfg.Horizon() {
					engine.SchedulePriority(del, -1, func(at sim.Time) {
						if in.VM.Node != nil {
							_ = sched.Delete(in.VM, at)
						}
					})
				}
			}
			if in.ArriveAt <= 0 {
				apply(0)
			} else if _, err := engine.Schedule(in.ArriveAt, apply); err != nil {
				log.Fatal(err)
			}
		}
		if err := engine.Run(cfg.Horizon()); err != nil {
			log.Fatal(err)
		}

		// Compare end-state fleet balance under the replayed demand.
		minUtil, maxUtil := 101.0, -1.0
		active := 0
		for _, h := range fleet.Hosts() {
			if h.VMCount() == 0 {
				continue
			}
			active++
			m := h.Snapshot(cfg.Horizon(), sim.Hour)
			if m.CPUUtilPct < minUtil {
				minUtil = m.CPUUtilPct
			}
			if m.CPUUtilPct > maxUtil {
				maxUtil = m.CPUUtilPct
			}
		}
		fmt.Printf("%-36s placed=%4d failed=%3d active-nodes=%2d node-util %5.1f%%..%5.1f%%\n",
			v.name, placed, failed, active, minUtil, maxUtil)
	}
	fmt.Println("\nreading: packing uses fewer nodes at higher peak utilization —")
	fmt.Println("the bin-packing/load-balancing tradeoff of Sec. 3.2, on recorded demand.")
}
