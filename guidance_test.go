package sapsim

import (
	"fmt"
	"sync"
	"testing"

	"sapsim/internal/esx"
	"sapsim/internal/nova"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

// TestSchedulingGuidance checks the direction of each comparison in the
// paper's Sec. 7 guidance on one small cell (500 VMs, 3 days) at seeds
// 42–44, fixed before the results were read. Each row compares sums over
// the three seeds; README's guidance table records them.
func TestSchedulingGuidance(t *testing.T) {
	base := DefaultConfig(42)
	base.Scale, base.VMs, base.Days = 0.02, 500, 3
	base.SampleEvery, base.VMSampleEvery = sim.Hour, 3*sim.Hour

	var variants []scenario.Variant
	for _, name := range []string{"default", "spread-everything", "no-drs", "contention-aware", "holistic"} {
		v, err := scenario.VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, v)
	}
	for _, ratio := range []float64{1, 2, 4, 8} {
		variants = append(variants, scenario.Variant{Name: fmt.Sprintf("overcommit-%g", ratio),
			Apply: func(cfg *Config) { cfg.ESX.OvercommitCPU = ratio }})
	}
	// Lifetime awareness, proxied by a VM-count weigher that spreads churny
	// small flavors away from stable ones.
	variants = append(variants, scenario.Variant{Name: "lifetime-aware", Apply: func(cfg *Config) {
		cfg.Scheduler.Weighers = []nova.Weigher{nova.RAMWeigher{Mult: 1, SAPPolicy: true}, nova.VMCountWeigher{Mult: 1.5}}
	}})

	// One configuration's numbers, summed over the seeds.
	type guidanceSums struct {
		hotNodes    int     // hosts with more than 80% of memory allocated at the horizon
		bbMemSpread float64 // max − min building-block memory allocation, percentage points
		retries     int
		failures    int
		migrations  int
		maxCont     float64 // region-wide max CPU contention, percent
	}
	sums := map[string]*guidanceSums{}
	for _, v := range variants {
		sums[v.Name] = &guidanceSums{}
	}
	var mu sync.Mutex
	sr, err := scenario.Sweep(scenario.Matrix{
		Base:     base,
		Variants: variants,
		Seeds:    []uint64{42, 43, 44},
		OnResult: func(k scenario.Key, res *Result) {
			hot := 0
			res.Fleet.EachHost(func(h *esx.Host) {
				if float64(h.AllocatedMemMB()) > 0.8*float64(h.MemCapacityMB()) {
					hot++
				}
			})
			lo, hi := 101.0, -1.0
			for _, bb := range res.Region.BBs() {
				if a := res.Fleet.BBAlloc(bb); a.MemCapMB > 0 {
					pct := float64(a.MemAllocMB) / float64(a.MemCapMB) * 100
					lo, hi = min(lo, pct), max(hi, pct)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			s := sums[k.Variant]
			s.hotNodes += hot
			s.bbMemSpread += max(hi-lo, 0)
			s.retries += res.SchedStats.Retries
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sr.Runs {
		if r.Err != "" {
			t.Fatalf("%+v: %s", r.Key, r.Err)
		}
		s := sums[r.Key.Variant]
		s.failures += r.Metrics.PlacementFailures
		s.migrations += r.Metrics.DRSMigrations
		s.maxCont += r.Metrics.MaxContentionPct
	}
	for _, v := range variants {
		t.Logf("%-18s %+v", v.Name, *sums[v.Name])
	}

	def := sums["default"]
	spread, noDRS, aware := sums["spread-everything"], sums["no-drs"], sums["contention-aware"]
	oc1, oc2 := sums["overcommit-1"], sums["overcommit-2"]
	for _, row := range []struct {
		id, claim string
		holds     bool
		numbers   string
	}{
		{"A1", "spread-everything has fewer nodes above 80% memory than default",
			spread.hotNodes < def.hotNodes, fmt.Sprintf("%d vs %d", spread.hotNodes, def.hotNodes)},
		{"A2", "no-drs has no migrations and a higher max contention than default",
			noDRS.migrations == 0 && noDRS.maxCont > def.maxCont,
			fmt.Sprintf("%d migrations; %.1f vs %.1f", noDRS.migrations, noDRS.maxCont, def.maxCont)},
		{"A3", "contention-aware max contention is at most default's",
			aware.maxCont <= def.maxCont, fmt.Sprintf("%.1f vs %.1f", aware.maxCont, def.maxCont)},
		{"A4", "1:1 overcommit fails more placements than 2:1 at a lower max contention",
			oc1.failures > oc2.failures && oc1.maxCont < oc2.maxCont,
			fmt.Sprintf("%d vs %d failures; %.1f vs %.1f", oc1.failures, oc2.failures, oc1.maxCont, oc2.maxCont)},
		{"A6", "lifetime-aware has a lower building-block memory spread than default",
			sums["lifetime-aware"].bbMemSpread < def.bbMemSpread,
			fmt.Sprintf("%.1f vs %.1f", sums["lifetime-aware"].bbMemSpread, def.bbMemSpread)},
		{"A7", "holistic has fewer retries than default",
			sums["holistic"].retries < def.retries, fmt.Sprintf("%d vs %d", sums["holistic"].retries, def.retries)},
	} {
		if !row.holds {
			t.Errorf("%s: %s does not hold: %s", row.id, row.claim, row.numbers)
		}
	}
}
