package main

import "fmt"

func values(lines []resultLine, name string) []float64 {
	out := make([]float64, len(lines))
	for i, l := range lines {
		out[i] = l.Metrics[name].Value
	}
	return out
}

// selfcheckRuns is how many untraced runs each of the two sets makes per
// workload: three, so that a set's median outvotes one run that met a slow
// spell of the machine.
const selfcheckRuns = 3

// runSelfcheck measures one commit against itself: per workload,
// selfcheckRuns untraced runs for set A and as many for set B, interleaved
// A B A B, then one traced run for each set. The sets must agree on every
// end-to-end metric within its bound and on every exact count exactly. The
// tables it prints are the ones in README.md.
func runSelfcheck(seed uint64, seconds float64) error {
	disagreements := 0
	for _, w := range workloads {
		var sets [2][]resultLine
		var traced [2]resultLine
		for p := 0; p < selfcheckRuns; p++ {
			for side := range sets {
				line, err := runChild(".", "", w.Name, seed, seconds, 0, true)
				if err != nil {
					return err
				}
				sets[side] = append(sets[side], line)
			}
		}
		for side := range traced {
			line, err := runChild(".", "", w.Name, seed, seconds, 1, true)
			if err != nil {
				return err
			}
			traced[side] = line
		}

		fmt.Printf("\n**`%s`**, seed %d: %d untraced runs and 1 traced run per set\n\n", w.Name, seed, selfcheckRuns)
		fmt.Println("| metric | set A | set B | B vs A | bound | |")
		fmt.Println("|---|---:|---:|---:|---:|---|")
		for _, m := range endToEnd {
			a, b := median(values(sets[0], m.Name)), median(values(sets[1], m.Name))
			diff := (b - a) / a
			verdict := "ok"
			if diff > m.Bound || -diff > m.Bound {
				verdict = "DISAGREE"
				disagreements++
			}
			fmt.Printf("| `%s` | %.6g | %.6g | %+.2f%% | %.0f%% | %s |\n", m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
		for _, m := range perLayer {
			a, b := traced[0].Metrics[m.Name].Value, traced[1].Metrics[m.Name].Value
			if a == 0 && b == 0 {
				continue // a layer this workload never enters
			}
			verdict := ""
			if m.Exact {
				verdict = "exact"
				if a != b {
					verdict = "DISAGREE (exact)"
					disagreements++
				}
			}
			diff := fmt.Sprintf("%+.2f%%", 100*(b-a)/a)
			if m.Unit == "%" {
				diff = fmt.Sprintf("%+.2f pt", b-a) // shares and overheads pass through 0
			}
			fmt.Printf("| `%s` | %.6g | %.6g | %s | | %s |\n", m.Name, a, b, diff, verdict)
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("selfcheck: the two sets disagree on %d metrics", disagreements)
	}
	fmt.Println("\nselfcheck: the two sets agree")
	return nil
}
