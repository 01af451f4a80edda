// Speculative scenario branching: run a steady-state warmup, snapshot it,
// then fork divergent futures — here, the same AZ outage injected at three
// different instants — from that one point. A snapshot is a replay point
// (simulated time, events fired, config fingerprint), not a copy of the
// state: each branch is an independent session that replays the warmup
// itself and checks it reached the snapshot's event count before its tail
// starts. The branches therefore share the exact warm state and differ only
// by the injected event: any delta in the comparative report is the outage
// timing, not noise.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"sapsim"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

func main() {
	cfg := sapsim.DefaultConfig(33)
	cfg.Scale = 0.03
	cfg.VMs = 900
	cfg.Days = 10
	cfg.SampleEvery = 15 * sim.Minute
	cfg.VMSampleEvery = sim.Hour

	// 1. Simulate the shared prefix: four days of arrival churn, DRS
	// passes, and resize activity — the warm state every what-if shares.
	start := time.Now()
	warm, err := sapsim.NewSession(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer warm.Close()
	prefix := 4 * sim.Day
	if _, err := warm.Step(int(prefix / cfg.SampleEvery)); err != nil {
		log.Fatal(err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	warmupWall := time.Since(start)
	fmt.Printf("warm prefix: %v simulated in %v (snapshot at %v after %d events)\n\n",
		prefix, warmupWall.Round(time.Millisecond), snap.At, snap.Fired)

	// 2. Fork the what-ifs: an identical 6-hour AZ outage landing on day
	// 5, 6, or 7 — plus a baseline branch that continues the captured run
	// unchanged. Everything in flight at the snapshot is common to all
	// four by construction.
	outage := func(at sim.Time) []sapsim.Injector {
		return []sapsim.Injector{scenario.AZOutage{At: at, AZIndex: 1, Duration: 6 * sim.Hour}}
	}
	branches := []sapsim.Branch{
		{Name: "baseline"},
		{Name: "az-outage-d5", Injectors: outage(5 * sim.Day)},
		{Name: "az-outage-d6", Injectors: outage(6 * sim.Day)},
		{Name: "az-outage-d7", Injectors: outage(7 * sim.Day)},
	}
	sessions, err := sapsim.Fork(cfg, snap, branches)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Drive every branch to the horizon concurrently: each replays the
	// prefix, then runs its tail. Branches share nothing but the immutable
	// snapshot.
	start = time.Now()
	runs := make([]scenario.Run, len(sessions))
	var wg sync.WaitGroup
	errs := make([]error, len(sessions))
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *sapsim.Session) {
			defer wg.Done()
			defer s.Close()
			if err := s.RunToCompletion(); err != nil {
				errs[i] = fmt.Errorf("branch %s: %w", s.Name(), err)
				return
			}
			res, err := s.Result()
			if err != nil {
				errs[i] = fmt.Errorf("branch %s: %w", s.Name(), err)
				return
			}
			runs[i] = scenario.Run{
				Key:     scenario.Key{Scenario: s.Name(), Variant: "default", Seed: 33},
				Metrics: scenario.Extract(res),
			}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("4 branches (%v prefix replayed + %v tail each) explored in %v from one snapshot\n\n",
		snap.At, cfg.Horizon()-snap.At, time.Since(start).Round(time.Millisecond))

	// 4. Compare: the first scenario is the baseline, so the report shows
	// each outage timing as a delta against the unperturbed continuation.
	fmt.Print(scenario.Comparative(&scenario.SweepResult{Runs: runs}))
}
