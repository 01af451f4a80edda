// Engine self-profiler analysis: -engprof loads the per-cell profile JSON
// a sweep exports (sweep -engprof DIR, any execution mode) and renders the
// fleet-wide per-phase attribution table, the top event owners, and the
// straggler cells with their dominant phase. -against diffs two exports
// (per-cell means, so matrices of different sizes compare); adding
// -critpath joins each cell's profiler-attributed time against the
// wall-clock cell spans of an exported trace — coverage shows how much of
// a straggler's real wall time the engine phases explain.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sapsim/internal/dispatch"
	"sapsim/internal/engprof"
	"sapsim/internal/scenario"
)

// cellProfile is one loaded per-cell profile. keyOK reports whether the
// cell's matrix key was recoverable from the file name (the export's
// scenario__variant__seed scheme); without it the cell still aggregates
// but cannot join a trace.
type cellProfile struct {
	name  string
	key   scenario.Key
	keyOK bool
	p     *engprof.Profile
}

// runEngprof is the -engprof entry point.
func runEngprof(w io.Writer, path, against, critPath string, topN int) error {
	cells, merged, err := loadProfiles(path)
	if err != nil {
		return err
	}
	if against != "" {
		_, other, err := loadProfiles(against)
		if err != nil {
			return err
		}
		printProfileDiff(w, path, merged, against, other)
		return nil
	}

	fmt.Fprintf(w, "engine profile %s: %d cells, %d events, %s attributed\n\n",
		path, merged.Cells, merged.Events, fmtNanos(merged.AccountedNanos))
	printPhaseTable(w, merged)
	printOwnerTable(w, merged, topN)
	if len(cells) > 1 {
		if err := printStragglers(w, cells, critPath); err != nil {
			return err
		}
	}
	return nil
}

// loadProfiles reads one profile file or every *.engprof.json in a
// directory, returning the per-cell profiles (sorted by attributed time,
// slowest first) and their merged fleet-wide aggregate.
func loadProfiles(path string) ([]cellProfile, *engprof.Profile, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	var files []string
	if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.engprof.json"))
		if err != nil {
			return nil, nil, err
		}
		sort.Strings(files)
		if len(files) == 0 {
			return nil, nil, fmt.Errorf("no *.engprof.json files in %s (export with sweep -engprof)", path)
		}
	} else {
		files = []string{path}
	}
	var cells []cellProfile
	merged := &engprof.Profile{Format: engprof.FormatVersion, Phases: map[string]engprof.Counter{}}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		p, err := engprof.DecodeBytes(blob)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		c := cellProfile{p: p}
		c.key, c.keyOK = parseCellFileName(filepath.Base(f))
		if c.keyOK {
			c.name = fmt.Sprintf("%s/%s/seed%d", c.key.Scenario, c.key.Variant, c.key.Seed)
		} else {
			c.name = strings.TrimSuffix(filepath.Base(f), ".engprof.json")
		}
		cells = append(cells, c)
		merged.Merge(p)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].p.AccountedNanos != cells[j].p.AccountedNanos {
			return cells[i].p.AccountedNanos > cells[j].p.AccountedNanos
		}
		return cells[i].name < cells[j].name
	})
	return cells, merged, nil
}

// parseCellFileName recovers the matrix key from the export's
// scenario__variant__seed.engprof.json naming scheme.
func parseCellFileName(name string) (scenario.Key, bool) {
	base, ok := strings.CutSuffix(name, ".engprof.json")
	if !ok {
		return scenario.Key{}, false
	}
	parts := strings.Split(base, "__")
	if len(parts) != 3 {
		return scenario.Key{}, false
	}
	seed, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return scenario.Key{}, false
	}
	return scenario.Key{Scenario: parts[0], Variant: parts[1], Seed: seed}, true
}

// sortedPhases returns the profile's phases of one nesting class, sorted
// by attributed time descending.
func sortedPhases(p *engprof.Profile, nested bool) []string {
	var names []string
	for name := range p.Phases {
		if ph, ok := engprof.PhaseByName(name); ok && ph.Nested() == nested {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := p.Phases[names[i]], p.Phases[names[j]]
		if a.Nanos != b.Nanos {
			return a.Nanos > b.Nanos
		}
		return names[i] < names[j]
	})
	return names
}

// printPhaseTable renders the top-level attribution (rows sum to exactly
// 100% of the attributed envelope by construction) and the nested
// scheduler/DRS detail beneath it.
func printPhaseTable(w io.Writer, p *engprof.Profile) {
	fmt.Fprintln(w, "per-phase attribution (top-level rows sum to 100% of attributed time):")
	fmt.Fprintf(w, "%-16s %10s %6s %10s %12s\n", "phase", "time", "%", "count", "ops")
	for _, name := range sortedPhases(p, false) {
		c := p.Phases[name]
		fmt.Fprintf(w, "%-16s %10s %5.1f%% %10d %12d\n",
			name, fmtNanos(c.Nanos), pct(c.Nanos, p.AccountedNanos), c.Count, c.Ops)
	}
	nested := sortedPhases(p, true)
	if len(nested) > 0 {
		fmt.Fprintln(w, "\nnested detail (measured inside the phases above, not additive):")
		fmt.Fprintf(w, "%-16s %10s %6s %10s %12s\n", "phase", "time", "%", "count", "ops")
		for _, name := range nested {
			c := p.Phases[name]
			fmt.Fprintf(w, "%-16s %10s %5.1f%% %10d %12d\n",
				name, fmtNanos(c.Nanos), pct(c.Nanos, p.AccountedNanos), c.Count, c.Ops)
		}
	}
	fmt.Fprintln(w)
}

// printOwnerTable renders the top-N exact event-owner rows.
func printOwnerTable(w io.Writer, p *engprof.Profile, topN int) {
	if len(p.Owners) == 0 {
		return
	}
	n := topN
	if n > len(p.Owners) {
		n = len(p.Owners)
	}
	fmt.Fprintf(w, "top %d event owners (of %d):\n", n, len(p.Owners))
	fmt.Fprintf(w, "%-28s %10s %6s %10s %12s\n", "owner", "time", "%", "count", "ops")
	for _, oc := range p.Owners[:n] {
		fmt.Fprintf(w, "%-28s %10s %5.1f%% %10d %12d\n",
			oc.Owner, fmtNanos(oc.Nanos), pct(oc.Nanos, p.AccountedNanos), oc.Count, oc.Ops)
	}
	fmt.Fprintln(w)
}

// printStragglers renders the per-cell ranking (slowest attributed time
// first) with each cell's dominant phase. With a trace, each cell's
// attributed time is joined against its wall-clock root span — coverage
// is the fraction of real wall time the engine phases explain.
func printStragglers(w io.Writer, cells []cellProfile, critPath string) error {
	wall := map[string]time.Duration{}
	if critPath != "" {
		spans, err := readTrace(critPath)
		if err != nil {
			return err
		}
		for _, s := range spans {
			if s.Name == "cell" && s.Parent == "" && s.Duration() > wall[s.Trace] {
				wall[s.Trace] = s.Duration()
			}
		}
	}
	fmt.Fprintln(w, "stragglers (slowest cells by attributed time):")
	if critPath != "" {
		fmt.Fprintf(w, "%-36s %10s %10s %9s  %s\n", "cell", "attributed", "wall", "coverage", "dominant phase")
	} else {
		fmt.Fprintf(w, "%-36s %10s  %s\n", "cell", "attributed", "dominant phase")
	}
	for _, c := range cells {
		name, share := dominantPhase(c.p)
		dom := fmt.Sprintf("%s (%.0f%%)", name, share)
		if critPath == "" {
			fmt.Fprintf(w, "%-36s %10s  %s\n", c.name, fmtNanos(c.p.AccountedNanos), dom)
			continue
		}
		wallCol, covCol := "-", "-"
		if c.keyOK {
			if d := wall[dispatch.CellTraceID(c.key)]; d > 0 {
				wallCol = fmtNanos(int64(d))
				covCol = fmt.Sprintf("%.0f%%", pct(c.p.AccountedNanos, int64(d)))
			}
		}
		fmt.Fprintf(w, "%-36s %10s %10s %9s  %s\n", c.name, fmtNanos(c.p.AccountedNanos), wallCol, covCol, dom)
	}
	fmt.Fprintln(w)
	return nil
}

// dominantPhase is the cell's largest top-level phase and its share of the
// attributed envelope.
func dominantPhase(p *engprof.Profile) (string, float64) {
	names := sortedPhases(p, false)
	if len(names) == 0 {
		return "-", 0
	}
	return names[0], pct(p.Phases[names[0]].Nanos, p.AccountedNanos)
}

// printProfileDiff compares two exports phase by phase on per-cell means,
// so sweeps of different matrix sizes (or a single cell against a fleet)
// still compare like for like.
func printProfileDiff(w io.Writer, pathA string, a *engprof.Profile, pathB string, b *engprof.Profile) {
	fmt.Fprintf(w, "engine profile diff (per-cell means):\n  A = %s (%d cells, %s attributed)\n  B = %s (%d cells, %s attributed)\n\n",
		pathA, a.Cells, fmtNanos(a.AccountedNanos), pathB, b.Cells, fmtNanos(b.AccountedNanos))
	seen := map[string]bool{}
	var names []string
	for _, p := range []*engprof.Profile{a, b} {
		for name := range p.Phases {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Slice(names, func(i, j int) bool {
		pi, _ := engprof.PhaseByName(names[i])
		pj, _ := engprof.PhaseByName(names[j])
		if pi.Nested() != pj.Nested() {
			return !pi.Nested()
		}
		if a.Phases[names[i]].Nanos != a.Phases[names[j]].Nanos {
			return a.Phases[names[i]].Nanos > a.Phases[names[j]].Nanos
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-16s %12s %12s %9s\n", "phase", "A", "B", "delta")
	for _, name := range names {
		ca := perCell(a.Phases[name].Nanos, a.Cells)
		cb := perCell(b.Phases[name].Nanos, b.Cells)
		fmt.Fprintf(w, "%-16s %12s %12s %9s\n", name, fmtNanos(ca), fmtNanos(cb), deltaPct(ca, cb))
	}
	ta, tb := perCell(a.AccountedNanos, a.Cells), perCell(b.AccountedNanos, b.Cells)
	fmt.Fprintf(w, "%-16s %12s %12s %9s\n", "TOTAL", fmtNanos(ta), fmtNanos(tb), deltaPct(ta, tb))
}

func perCell(nanos int64, cells int) int64 {
	if cells <= 0 {
		return nanos
	}
	return nanos / int64(cells)
}

// deltaPct renders B's change relative to A.
func deltaPct(a, b int64) string {
	switch {
	case a == 0 && b == 0:
		return "-"
	case a == 0:
		return "new"
	case b == 0:
		return "gone"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(b-a)/float64(a))
}

func pct(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// fmtNanos renders a nanosecond total at a scale fit for reading.
func fmtNanos(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
