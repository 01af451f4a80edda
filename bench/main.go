// Command bench is sapsim's benchmark: four workloads that stress different
// layers of the cell → sweep → dispatch stack, measured end to end with
// tracing off and layer by layer in a separate traced run. It times the
// program from outside — calls into public functions, Result.Profile, and
// the files a run leaves behind — and checks every output against a
// second path and, for seed 42, against pinned goldens.
//
// The driver runs it as
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// from the repository root; README.md lists the other modes.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// sizes is what -short shrinks, for the smoke test only — smaller configs
// and a single untraced rep; every number the benchmark reports comes from
// the full sizes.
type sizes struct {
	short bool
	// scratch holds the queue directories of sweep_dispatch.
	scratch string
}

func newWorkload(name string, seed uint64, sz sizes) (workload, error) {
	switch name {
	case "repro30d":
		return newRepro30d(seed, sz), nil
	case "place_churn":
		return newPlaceChurn(seed, sz), nil
	case "sweep_dispatch":
		return newSweepDispatch(seed, sz), nil
	case "render_query":
		return newRenderQuery(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildDir is where everything the benchmark writes goes; run.sh puts the
// binary and the Go build cache there too.
const buildDir = ".bench_build"

// options are the command line.
type options struct {
	workload     string
	all          bool
	seed         uint64
	seconds      float64
	trace        int
	traceOut     string
	jsonOnly     bool
	short        bool
	updateGolden bool
	selfcheck    bool
	compare      string
	describe     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: repro30d, place_churn, sweep_dispatch or render_query")
	flag.BoolVar(&o.all, "all", false, "run every workload, untraced then traced, each in its own process")
	flag.Uint64Var(&o.seed, "seed", goldenSeed, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "timed budget; the driver passes BENCHMARK.json's run_seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 adds a traced rep and the layer probes and reports the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome-trace file of a traced run (default "+buildDir+"/trace-WORKLOAD.json)")
	flag.BoolVar(&o.jsonOnly, "json", false, "print the result line only")
	flag.BoolVar(&o.short, "short", false, "smoke-test sizes: shrunken configs, one rep")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "pin this run's fingerprint as bench/golden/WORKLOAD.seed42.txt")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice, interleaved, and compare the two sets")
	flag.StringVar(&o.compare, "compare", "", "git ref to compare the working tree against on -workload, in alternating pairs")
	flag.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json and exit")
	flag.Parse()
	correct, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if err != nil || !correct {
		os.Exit(1)
	}
}

// run reports whether every correctness check passed.
func run(o options) (bool, error) {
	switch {
	case o.describe:
		doc, err := describe()
		if err != nil {
			return false, err
		}
		_, err = os.Stdout.Write(doc)
		return true, err
	case o.selfcheck:
		return true, runSelfcheck(o.seed, o.seconds)
	case o.compare != "":
		return true, runCompare(o.compare, o.workload, o.seed, o.seconds)
	case o.all:
		for _, w := range workloads {
			for _, trace := range []int{0, 1} {
				if _, err := runChild(".", "", w.Name, o.seed, o.seconds, trace, false); err != nil {
					return false, err
				}
			}
		}
		return true, nil
	}
	if o.updateGolden && o.short {
		return false, errors.New("-update-golden pins full-size runs; drop -short")
	}
	if err := checkCatalog(); err != nil {
		return false, err
	}

	scratch, err := scratchDir("run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)
	sz := sizes{short: o.short, scratch: scratch}
	if o.trace != 0 && o.traceOut == "" {
		o.traceOut = filepath.Join(buildDir, "trace-"+o.workload+".json")
	}
	var report io.Writer = os.Stdout
	if o.jsonOnly {
		report = io.Discard
	}
	res, err := runWorkload(report, o, sz)
	if err != nil {
		return false, err
	}
	res.print(report)
	line, err := json.Marshal(res.line())
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.failed == 0, nil
}

// checkCatalog refuses to measure when the checkout's BENCHMARK.json has
// drifted from metrics.go: the driver would wait for metrics the run does
// not print. The root module's tests cannot see this one, so every run
// checks.
func checkCatalog() error {
	got, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the root of the checkout: %w", err)
	}
	want, err := describe()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("BENCHMARK.json differs from bench/metrics.go; regenerate it with `bash bench/run.sh -describe > BENCHMARK.json`")
	}
	return nil
}

// scratchDir makes a fresh directory under the build directory of the
// working directory, which is the root of the checkout.
func scratchDir(prefix string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, prefix)
}
