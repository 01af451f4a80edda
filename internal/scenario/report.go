package scenario

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strings"

	"sapsim/internal/report"
)

// Aggregate is the seed-averaged view of one (scenario, variant) cell of a
// sweep.
type Aggregate struct {
	Scenario string
	Variant  string
	Seeds    int
	Errors   int

	LiveVMs             float64
	PackingMemPct       float64
	PackingVCPUPct      float64
	AttemptsPerSchedule float64
	PlacementFailures   float64
	Migrations          float64 // DRS + cross-BB + evacuations
	Evacuations         float64
	EvacFailures        float64
	Resizes             float64
	MeanContentionPct   float64
	MaxContentionPct    float64
}

// Aggregates folds a sweep's runs into per-(scenario, variant) means over
// seeds, in the result's deterministic order.
func Aggregates(sr *SweepResult) []Aggregate {
	var order []Key
	cells := map[Key]*Aggregate{}
	for _, r := range sr.Runs {
		k := Key{Scenario: r.Key.Scenario, Variant: r.Key.Variant}
		agg, ok := cells[k]
		if !ok {
			agg = &Aggregate{Scenario: k.Scenario, Variant: k.Variant}
			cells[k] = agg
			order = append(order, k)
		}
		if r.Err != "" {
			agg.Errors++
			continue
		}
		agg.Seeds++
		m := r.Metrics
		agg.LiveVMs += float64(m.LiveVMs)
		agg.PackingMemPct += m.PackingMemPct
		agg.PackingVCPUPct += m.PackingVCPUPct
		agg.AttemptsPerSchedule += m.AttemptsPerSchedule
		agg.PlacementFailures += float64(m.PlacementFailures)
		agg.Migrations += float64(m.DRSMigrations + m.CrossBBMoves + m.Evacuations)
		agg.Evacuations += float64(m.Evacuations)
		agg.EvacFailures += float64(m.EvacFailures)
		agg.Resizes += float64(m.Resizes)
		agg.MeanContentionPct += m.MeanContentionPct
		agg.MaxContentionPct += m.MaxContentionPct
	}
	out := make([]Aggregate, 0, len(order))
	for _, k := range order {
		agg := cells[k]
		if n := float64(agg.Seeds); n > 0 {
			agg.LiveVMs /= n
			agg.PackingMemPct /= n
			agg.PackingVCPUPct /= n
			agg.AttemptsPerSchedule /= n
			agg.PlacementFailures /= n
			agg.Migrations /= n
			agg.Evacuations /= n
			agg.EvacFailures /= n
			agg.Resizes /= n
			agg.MeanContentionPct /= n
			agg.MaxContentionPct /= n
		}
		out = append(out, *agg)
	}
	return out
}

// RunsCSV renders every run of the sweep as one CSV row, for downstream
// plotting. Rows go through encoding/csv: the free-form err column (from
// arbitrary injector errors) gets quoted properly.
func RunsCSV(sr *SweepResult) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write([]string{
		"scenario", "variant", "seed", "err", "live_vms", "mem_alloc_pct",
		"vcpu_alloc_pct", "attempts_per_schedule", "placement_failures",
		"drs_migrations", "cross_bb_moves", "evacuations", "evac_failures",
		"resizes", "mean_contention_pct", "max_contention_pct",
	})
	for _, r := range sr.Runs {
		m := r.Metrics
		_ = w.Write([]string{
			r.Key.Scenario, r.Key.Variant, fmt.Sprintf("%d", r.Key.Seed), r.Err,
			fmt.Sprintf("%d", m.LiveVMs),
			fmt.Sprintf("%.4f", m.PackingMemPct),
			fmt.Sprintf("%.4f", m.PackingVCPUPct),
			fmt.Sprintf("%.4f", m.AttemptsPerSchedule),
			fmt.Sprintf("%d", m.PlacementFailures),
			fmt.Sprintf("%d", m.DRSMigrations),
			fmt.Sprintf("%d", m.CrossBBMoves),
			fmt.Sprintf("%d", m.Evacuations),
			fmt.Sprintf("%d", m.EvacFailures),
			fmt.Sprintf("%d", m.Resizes),
			fmt.Sprintf("%.4f", m.MeanContentionPct),
			fmt.Sprintf("%.4f", m.MaxContentionPct),
		})
	}
	w.Flush()
	return b.String()
}

// ScenarioNames returns the sweep's scenario names in first-seen
// (scenario-major) order; the first is the comparative baseline.
func ScenarioNames(sr *SweepResult) []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range sr.Runs {
		if !seen[r.Key.Scenario] {
			seen[r.Key.Scenario] = true
			names = append(names, r.Key.Scenario)
		}
	}
	return names
}

// FilterScenarios returns the subset of runs whose scenario is in names,
// preserving the sweep's order — the slice a per-scenario report renders
// (pass the baseline plus one scenario to get that scenario's comparative
// page of a bundle).
func FilterScenarios(sr *SweepResult, names ...string) *SweepResult {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := &SweepResult{}
	for _, r := range sr.Runs {
		if want[r.Key.Scenario] {
			out.Runs = append(out.Runs, r)
		}
	}
	return out
}

// ArtifactDiff renders, for every (variant, seed) cell of the sweep, which
// of the full artifact set changed relative to the baseline scenario (the
// sweep's first) — headline metrics can agree while a heatmap shifted, so
// the diff works on per-artifact digests (Run.Digests, populated by
// Matrix.Fingerprint). Runs without digests are reported as not
// fingerprinted.
func ArtifactDiff(sr *SweepResult) string {
	if len(sr.Runs) == 0 {
		return "sweep: no runs\n"
	}
	baseline := sr.Runs[0].Key.Scenario
	baseRuns := map[Key]Run{}
	for _, r := range sr.Runs {
		if r.Key.Scenario == baseline {
			baseRuns[Key{Variant: r.Key.Variant, Seed: r.Key.Seed}] = r
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "artifact diff vs baseline scenario %q (SHA-256 per artifact)\n", baseline)
	for _, r := range sr.Runs {
		if r.Key.Scenario == baseline {
			continue
		}
		cell := fmt.Sprintf("%s/%s seed %d", r.Key.Scenario, r.Key.Variant, r.Key.Seed)
		base, ok := baseRuns[Key{Variant: r.Key.Variant, Seed: r.Key.Seed}]
		switch {
		case r.Err != "":
			fmt.Fprintf(&b, "  %-44s run failed: %s\n", cell, r.Err)
			continue
		case !ok || base.Err != "":
			fmt.Fprintf(&b, "  %-44s no baseline run to diff against\n", cell)
			continue
		case r.Digests == nil || base.Digests == nil:
			fmt.Fprintf(&b, "  %-44s not fingerprinted (set Matrix.Fingerprint)\n", cell)
			continue
		}
		var ids []string
		for id := range base.Digests {
			ids = append(ids, id)
		}
		for id := range r.Digests {
			if _, dup := base.Digests[id]; !dup {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		var changed []string
		for _, id := range ids {
			if base.Digests[id] != r.Digests[id] {
				changed = append(changed, id)
			}
		}
		if len(changed) == 0 {
			fmt.Fprintf(&b, "  %-44s identical (%d artifacts)\n", cell, len(ids))
			continue
		}
		fmt.Fprintf(&b, "  %-44s %d/%d changed: %s\n",
			cell, len(changed), len(ids), strings.Join(changed, " "))
	}
	return b.String()
}

// Comparative renders the sweep as per-variant tables of per-scenario
// deltas against the baseline scenario (the sweep's first) for the headline
// artifacts: packing efficiency, scheduling latency proxy, and migration
// counts.
func Comparative(sr *SweepResult) string {
	aggs := Aggregates(sr)
	if len(aggs) == 0 {
		return "sweep: no runs\n"
	}
	// Preserve first-seen order of variants; the baseline scenario is the
	// first scenario of the sweep.
	var variants []string
	byVariant := map[string][]Aggregate{}
	for _, a := range aggs {
		if _, ok := byVariant[a.Variant]; !ok {
			variants = append(variants, a.Variant)
		}
		byVariant[a.Variant] = append(byVariant[a.Variant], a)
	}

	errs := 0
	for _, r := range sr.Runs {
		if r.Err != "" {
			errs++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d runs (%d failed)\n", len(sr.Runs), errs)
	headers := []string{
		"scenario", "live_vms", "mem_alloc%", "Δmem", "attempts", "Δatt",
		"migrations", "Δmig", "evac", "lost", "no_valid_host", "mean_cont%", "max_cont%",
	}
	for _, v := range variants {
		rows := byVariant[v]
		base := rows[0]
		if base.Seeds == 0 {
			// Every baseline run failed: absolute columns still print,
			// but deltas against a zero-valued baseline would read as
			// fabricated measurements.
			fmt.Fprintf(&b, "\nvariant %s (baseline scenario %s FAILED in all %d runs; deltas omitted)\n",
				v, base.Scenario, base.Errors)
		} else {
			fmt.Fprintf(&b, "\nvariant %s (baseline scenario: %s)\n", v, base.Scenario)
		}
		delta := func(cur, ref float64) string {
			if base.Seeds == 0 {
				return ""
			}
			return report.Delta(cur - ref)
		}
		table := make([][]string, 0, len(rows))
		for _, a := range rows {
			table = append(table, []string{
				a.Scenario,
				fmt.Sprintf("%.1f", a.LiveVMs),
				fmt.Sprintf("%.2f", a.PackingMemPct),
				delta(a.PackingMemPct, base.PackingMemPct),
				fmt.Sprintf("%.3f", a.AttemptsPerSchedule),
				delta(a.AttemptsPerSchedule, base.AttemptsPerSchedule),
				fmt.Sprintf("%.1f", a.Migrations),
				delta(a.Migrations, base.Migrations),
				fmt.Sprintf("%.1f", a.Evacuations),
				fmt.Sprintf("%.1f", a.EvacFailures),
				fmt.Sprintf("%.1f", a.PlacementFailures),
				fmt.Sprintf("%.3f", a.MeanContentionPct),
				fmt.Sprintf("%.2f", a.MaxContentionPct),
			})
		}
		b.WriteString(report.Table(headers, table))
	}
	return b.String()
}
