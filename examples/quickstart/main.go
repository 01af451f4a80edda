// Quickstart: the minimal end-to-end tour of the public API, built on the
// Session lifecycle — construct a session, watch its event stream while the
// run advances in steps, then inspect where VMs landed, how utilized the
// fleet is, and one regenerated paper artifact.
//
// The blocking form is a one-liner (`res, err := sapsim.Run(cfg)`); the
// session form below does the same work but is observable (typed event
// stream), steppable (pause between Step calls), and cancellable
// (WithContext).
package main

import (
	"fmt"
	"log"

	"sapsim"
	"sapsim/internal/sim"
)

func main() {
	// A 2% replica of the paper's studied region (≈36 hypervisors) with
	// 300 VMs observed for three days.
	cfg := sapsim.DefaultConfig(42)
	cfg.Scale = 0.02
	cfg.VMs = 300
	cfg.Days = 3
	cfg.SampleEvery = 15 * sim.Minute

	// Observers receive typed events on a dispatch goroutine that never
	// blocks the simulation: per-tick Progress (coalesced under
	// backpressure), every in-window Placement, and every DRS Migration.
	// Artifacts are computed from the finished Result, as below.
	var placements, failures, migrations int
	session, err := sapsim.NewSession(cfg,
		sapsim.WithObserverFunc(func(ev sapsim.SessionEvent) {
			switch e := ev.(type) {
			case sapsim.Placement:
				if e.Failed {
					failures++
				} else {
					placements++
				}
			case sapsim.Migration:
				migrations++
			}
		}))
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	// Drive the window day by day; between Step calls the run is paused
	// and its live state is inspectable.
	ticksPerDay := int(sim.Day / cfg.SampleEvery)
	for day := 1; ; day++ {
		done, err := session.Step(ticksPerDay)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d: simulated %v of %v\n", day, session.Now(), session.Horizon())
		if done {
			break
		}
	}
	res, err := session.Result()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nregion: %d data centers, %d building blocks, %d nodes\n",
		len(res.Region.Datacenters()), len(res.Region.BBs()), res.Region.NodeCount())
	fmt.Printf("workload: %d VM instances over %d days (%d placement failures)\n",
		len(res.VMs), cfg.Days, res.PlacementFailures)
	fmt.Printf("scheduler: %d placed, %d retries; DRS migrations: %d\n",
		res.SchedStats.Scheduled, res.SchedStats.Retries, res.DRSMigrations)
	fmt.Printf("streamed: %d placements, %d failures, %d migrations observed live\n\n",
		placements, failures, migrations)

	// Where did the first few VMs land?
	fmt.Println("sample placements:")
	for _, vm := range res.VMs[:8] {
		loc := "unplaced"
		if vm.Node != nil {
			loc = string(vm.Node.ID)
		} else if vm.DeletedAt > 0 {
			loc = fmt.Sprintf("deleted at %s", vm.DeletedAt)
		}
		fmt.Printf("  %-10s %-4s (%2d vCPU, %5d GiB) -> %s\n",
			vm.ID, vm.Flavor.Name, vm.Flavor.VCPUs, vm.Flavor.RAMGiB, loc)
	}

	// Fleet utilization at the end of the run.
	fmt.Println("\nbuilding-block allocation:")
	for _, bb := range res.Region.BBs() {
		a := res.Fleet.BBAlloc(bb)
		if a.MemCapMB == 0 {
			continue
		}
		fmt.Printf("  %-16s %-15s nodes=%2d vms=%3d vcpu=%4d/%4d mem=%3.0f%%\n",
			bb.ID, bb.Kind, a.ActiveNodes, a.VMCount, a.VCPUAlloc, a.VCPUCap,
			float64(a.MemAllocMB)/float64(a.MemCapMB)*100)
	}

	// One paper artifact end to end: the Fig. 14a overprovisioning CDF.
	exp, _ := sapsim.ExperimentByID("fig14a")
	art, err := exp.Compute(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\npaper: %s\n\n%s", exp.Title, exp.PaperClaim, art.Text)
}
