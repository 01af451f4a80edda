// Failure drill: walk through the scenario layer end to end. A week-long
// reduced-scale run absorbs a compound operational incident — a demand
// surge, a multi-host failure at the surge peak, and a rolling maintenance
// drain — while every displaced VM is rescheduled through the normal Nova
// pipeline. The drill then audits the scheduler stack's invariants and
// compares the run against the undisturbed baseline.
package main

import (
	"fmt"
	"log"

	"sapsim"
	"sapsim/internal/core"
	"sapsim/internal/events"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
	"sapsim/internal/workload"
)

func main() {
	base := core.DefaultConfig(2024)
	base.Scale = 0.02
	base.VMs = 800
	base.Days = 7
	base.SampleEvery = 15 * sim.Minute

	drill := &scenario.Scenario{
		Name:        "failure-drill",
		Description: "surge + host failures + rolling drain in one week",
		Phases: []workload.Phase{
			// Demand doubles between day 1 and day 3.
			scenario.SurgePhase(1*sim.Day, 3*sim.Day, 2),
		},
		Injections: []core.Injector{
			// 5% of the fleet fails at the surge peak; 12-hour outage.
			scenario.HostFailures{At: 2 * sim.Day, Fraction: 0.05, Recover: 12 * sim.Hour},
			// Day 4: one building block drains node by node for patching.
			scenario.MaintenanceDrain{At: 4 * sim.Day, BBIndex: 0,
				NodeEvery: 30 * sim.Minute, Hold: 2 * sim.Hour},
		},
	}

	fmt.Println("== failure drill ==")
	fmt.Printf("%s: %s\n\n", drill.Name, drill.Description)

	// The drill runs as a Session so the incident timeline is visible
	// live: forced moves stream as Migration events with Kind
	// "evacuation" right after the day-2 failure injection, and VMs
	// stranded by a full fleet surface as failed Placements.
	lastDay := -1
	streamedEvacs := 0 // written on the dispatch goroutine, read after the run
	session, err := sapsim.NewSession(drill.Configure(base),
		sapsim.WithObserverFunc(func(ev sapsim.SessionEvent) {
			switch e := ev.(type) {
			case sapsim.Progress:
				if day := int(e.Now.Days()); day > lastDay {
					lastDay = day
					fmt.Printf("  day %d: %d VMs live\n", day, e.LiveVMs)
				}
			case sapsim.Migration:
				if e.Kind == "evacuation" {
					streamedEvacs++
				}
			}
		}))
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
	fmt.Println()

	fmt.Printf("  streamed live: %d evacuation migrations\n\n", streamedEvacs)

	counts := res.Events.CountByType()
	fmt.Println("operational event stream:")
	for _, ty := range []events.Type{
		events.Create, events.Delete, events.Evacuate, events.EvacuateFailed,
		events.MigrateIntraBB, events.Resize, events.ScheduleFailed,
	} {
		fmt.Printf("  %-18s %d\n", ty, counts[ty])
	}

	// The drill is only a drill if the stack held: no overcommit breach,
	// no VM double-placed or lost from the books.
	if err := scenario.CheckInvariants(res); err != nil {
		log.Fatalf("invariant violated: %v", err)
	}
	fmt.Println("\ninvariants: admission ceilings, residency, conservation — all hold")

	// Compare against the undisturbed baseline, same seed. The blocking
	// compatibility wrapper and the session above share one code path, so
	// the comparison stays apples-to-apples.
	baseline, err := sapsim.Run(base)
	if err != nil {
		log.Fatal(err)
	}
	dm, bm := scenario.Extract(res), scenario.Extract(baseline)
	fmt.Println("\n                      baseline     drill")
	fmt.Printf("  live VMs            %8d  %8d\n", bm.LiveVMs, dm.LiveVMs)
	fmt.Printf("  mem packing (pct)   %8.2f  %8.2f\n", bm.PackingMemPct, dm.PackingMemPct)
	fmt.Printf("  attempts/schedule   %8.3f  %8.3f\n", bm.AttemptsPerSchedule, dm.AttemptsPerSchedule)
	fmt.Printf("  DRS migrations      %8d  %8d\n", bm.DRSMigrations, dm.DRSMigrations)
	fmt.Printf("  evacuations         %8d  %8d\n", bm.Evacuations, dm.Evacuations)
	fmt.Printf("  lost VMs            %8d  %8d\n", bm.EvacFailures, dm.EvacFailures)
	fmt.Printf("  max contention pct  %8.2f  %8.2f\n", bm.MaxContentionPct, dm.MaxContentionPct)
}
