// Command repro regenerates every table and figure of the paper from one
// simulated 30-day observation window, printing the paper's claim next to
// the measured values for side-by-side comparison.
//
// Usage:
//
//	repro [-seed N] [-scale F] [-vms N] [-days N] [-id fig5] [-only REGEXP]
//	      [-timeout D] [-out DIR]
//
// With -id, only the named experiment runs; -only selects every experiment
// whose ID matches the regexp (e.g. -only 'fig1[0-3]' or -only table), so a
// single figure can be regenerated without computing all 18 artifacts.
// With -out, each artifact's full text is written to DIR/<id>.txt.
// -timeout bounds the wall-clock simulation time.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"sapsim"
	"sapsim/internal/cli"
)

func main() { cli.Main("repro", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs, cell := cli.Flags("repro", stderr)
	var (
		id       = fs.String("id", "", "single experiment ID (fig5..fig15b, table1..table5)")
		only     = fs.String("only", "", "regexp over experiment IDs; only matches are computed")
		progress = fs.Bool("progress", true, "print per-day progress to stderr")
		out      = fs.String("out", "", "directory to write full artifact text files")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	experiments, err := selectExperiments(*id, *only)
	if err != nil {
		return err
	}

	cfg := cell.Config()
	fmt.Fprintf(stdout, "running %d-day simulation: scale=%.2f (%s), %d VMs, seed %d\n",
		cfg.Days, cfg.Scale, "region 9 replica", cfg.VMs, cfg.Seed)
	start := time.Now()
	res, err := cell.Simulate("repro", *progress, stderr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "simulated %d nodes, %d VM instances, %d samples in %v\n\n",
		res.Region.NodeCount(), len(res.VMs), res.Store.SampleCount(), time.Since(start).Round(time.Millisecond))

	for _, exp := range experiments {
		art, err := exp.Compute(res)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Fprintf(stdout, "=== %s: %s\n", exp.ID, exp.Title)
		fmt.Fprintf(stdout, "    paper:    %s\n", exp.PaperClaim)
		fmt.Fprintf(stdout, "    measured: %s\n", formatValues(art.Values))
		if *out == "" && len(experiments) == 1 {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, art.Text)
		}
		if *out != "" {
			path := filepath.Join(*out, exp.ID+".txt")
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(path, []byte(art.Text), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "    written:  %s\n", path)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// selectExperiments resolves -id / -only to the experiment subset, in paper
// order. The flags are mutually exclusive.
func selectExperiments(id, only string) ([]sapsim.Experiment, error) {
	if id != "" && only != "" {
		return nil, fmt.Errorf("-id and -only are mutually exclusive")
	}
	if id != "" {
		exp, ok := sapsim.ExperimentByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		return []sapsim.Experiment{exp}, nil
	}
	all := sapsim.Experiments()
	if only == "" {
		return all, nil
	}
	re, err := regexp.Compile(only)
	if err != nil {
		return nil, fmt.Errorf("bad -only regexp: %w", err)
	}
	var picked []sapsim.Experiment
	for _, exp := range all {
		if re.MatchString(exp.ID) {
			picked = append(picked, exp)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("-only %q matches no experiment IDs", only)
	}
	return picked, nil
}

func formatValues(values map[string]float64) string {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += "  "
		}
		s += fmt.Sprintf("%s=%.3g", k, values[k])
	}
	return s
}
