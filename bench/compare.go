package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// comparePairs is how many parent/change pairs a verdict rests on; the
// metrics guide asks for at least ten.
const comparePairs = 10

// runCompare measures the working tree against a git ref on one workload:
// it exports the ref into a temporary directory, overlays this bench/ and
// BENCHMARK.json on it so both sides run identical benchmark code, builds
// it, and alternates parent and change runs, swapping which goes first in
// each pair.
func runCompare(ref, workload string, seed uint64, seconds float64) error {
	if workload == "" {
		return errors.New("-compare needs -workload")
	}
	tmp, err := scratchDir("compare-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if tmp, err = filepath.Abs(tmp); err != nil {
		return err
	}
	parent := filepath.Join(tmp, "parent")
	binary := filepath.Join(tmp, "parent.bin")
	for _, step := range []string{
		fmt.Sprintf("mkdir %q && git archive %q | tar -x -C %q", parent, ref, parent),
		fmt.Sprintf("rm -rf %q/bench && cp -R bench %q/bench && cp BENCHMARK.json %q/", parent, parent, parent),
		fmt.Sprintf("cd %q/bench && go build -o %q .", parent, binary),
	} {
		cmd := exec.Command("bash", "-c", "set -o pipefail; "+step)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", step, err)
		}
	}

	sides := [2]struct{ name, dir, binary string }{{"parent", parent, binary}, {"change", ".", ""}}
	var runs [2][]resultLine
	for p := 0; p < comparePairs; p++ {
		for i := range sides {
			side := (i + p) % 2
			s := sides[side]
			line, err := runChild(s.dir, s.binary, workload, seed, seconds, 0, true)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			runs[side] = append(runs[side], line)
		}
		fmt.Fprintf(os.Stderr, "compare: pair %d of %d done\n", p+1, comparePairs)
	}

	fmt.Printf("%s seed=%d: %s (parent) against the working tree (change), %d pairs of %gs runs\n",
		workload, seed, ref, comparePairs, seconds)
	fmt.Printf("  %-18s %32s %32s %8s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "won", "verdict")
	for _, m := range endToEnd {
		a, b := values(runs[0], m.Name), values(runs[1], m.Name)
		sign := 1.0 // positive gain means the change is better
		if m.Better == "lower" {
			sign = -1
		}
		wins := 0
		for i := range a {
			if sign*(b[i]-a[i]) > 0 {
				wins++
			}
		}
		medA, medB := median(a), median(b)
		iqrA := quantile(a, 0.75) - quantile(a, 0.25)
		gain := sign * (medB - medA)
		var verdict string
		switch {
		case float64(wins) >= 0.9*comparePairs && gain > iqrA:
			verdict = "gain"
		case -gain > m.Bound*medA:
			verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*m.Bound)
		case iqrA > m.Bound*medA:
			verdict = "unresolved: the parent's own spread exceeds the bound"
		default:
			verdict = "no change"
		}
		fmt.Printf("  %-18s %12.6g [%8.6g, %8.6g] %12.6g [%8.6g, %8.6g] %+7.2f%% %3d/%-2d  %s\n", m.Name,
			medA, quantile(a, 0.25), quantile(a, 0.75), medB, quantile(b, 0.25), quantile(b, 0.75),
			100*(medB-medA)/medA, wins, comparePairs, verdict)
	}
	return nil
}
