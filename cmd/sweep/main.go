// Command sweep runs a (scenario × scheduler-config × seed) matrix and
// prints a comparative report of per-scenario deltas against the baseline
// for the headline artifacts (packing efficiency, scheduling latency
// proxy, and migration counts), followed by the artifact diff: which of
// the 18 artifacts changed per cell versus the baseline scenario for the
// same variant and seed.
//
// Every matrix runs the way a dispatched sweep does: the cells are journaled
// into a dispatch queue, and -workers in-process workers drain it over
// loopback HTTP. A new sweep keeps its queue in a temporary directory that
// is removed when the command returns, unless -timeout, Ctrl-C or SIGTERM
// interrupted the drain: then the directory, with every cell finished so
// far, is kept and its path printed for -resume. -resume DIR reopens the
// journal directory of an interrupted or dispatched sweep: finished cells
// keep their recorded results and in-flight ones re-run; on a drained sweep
// this just merges and exports (-out, -bundle, -trace, -engprof) post hoc.
// Serving a matrix to external simworkers is cmd/dispatchd's job.
//
// Usage:
//
//	sweep [-scale F] [-vms N] [-days N] [-sample D] \
//	      [-scenarios a,b,...] [-variants x,y,...] [-seeds 7,11,...] \
//	      [-workers N] [-timeout D] [-out DIR] [-list] \
//	      [-resume DIR] [-bundle DIR] [-trace FILE] [-engprof DIR]
//
// Scenario and variant names come from the builtin libraries; -list prints
// them. Runs are fully deterministic per seed, independent of -workers and
// of how cells are distributed.
//
// -out DIR writes report.txt, runs.csv and artifact_diff.txt.
//
// -bundle DIR materializes the finished sweep as a browsable report
// bundle: index.html, the comparative reports, one baseline-vs-scenario
// page per scenario, and every cell's artifact bodies, each read out of
// the content-addressed store the workers' completions filled, with digest
// verification (SHA256SUMS in the bundle re-verifies offline). It is the
// tree a dispatcher serves at /bundle/, byte for byte.
//
// -trace FILE exports the sweep's cell-lifecycle trace, reconstructed from
// the journal, as Chrome trace-event JSON (load it at
// https://ui.perfetto.dev): per cell, a root span covering queued→done with
// queue-wait and per-attempt child spans, and every worker-shipped
// engine-phase span.
//
// -engprof DIR exports each cell's engine self-profile (the always-on
// per-phase wall-time/work attribution the core collects as it runs) as
// one JSON file per cell (scenario__variant__seed.engprof.json), ready for
// analyze -engprof.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"sapsim/internal/cli"
	"sapsim/internal/dispatch"
	"sapsim/internal/scenario"
)

func main() { cli.Main("sweep", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs, cell := cli.Flags("sweep", stderr)
	var (
		workers    = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		progress   = fs.Bool("progress", true, "log queue and worker transitions to stderr")
		out        = fs.String("out", "", "directory for the comparative report, the per-run CSV and the artifact diff")
		list       = fs.Bool("list", false, "list builtin scenarios and variants, then exit")
		resumeDir  = fs.String("resume", "", "resume an interrupted dispatched sweep from this journal directory")
		bundleDir  = fs.String("bundle", "", "materialize a digest-verified report bundle (artifact bodies included) into this directory")
		traceOut   = fs.String("trace", "", "export the sweep's cell-lifecycle trace (Chrome trace-event JSON, Perfetto-loadable) to this file")
		engprofDir = fs.String("engprof", "", "export each cell's engine self-profile as JSON into this directory (for analyze -engprof)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "scenarios:")
		for _, sc := range scenario.Builtin() {
			fmt.Fprintf(stdout, "  %-20s %s\n", sc.Name, sc.Description)
		}
		fmt.Fprintln(stdout, "variants:")
		for _, v := range scenario.BuiltinVariants() {
			fmt.Fprintf(stdout, "  %-20s %s\n", v.Name, v.Description)
		}
		return nil
	}

	ctx, cancel, err := cell.Interruptible("sweep", "", stderr)
	if err != nil {
		return err
	}
	defer cancel()

	start := time.Now()
	var q *dispatch.Queue
	// keep is set when a new sweep is interrupted: its queue directory then
	// outlives the command so that -resume can finish the sweep.
	var keep bool
	if *resumeDir != "" {
		// -resume ignores the matrix flags entirely: the journal header's
		// spec is authoritative for an interrupted sweep, so a resume must
		// not be blocked by (or silently diverge from) whatever flags this
		// invocation happens to carry.
		var err error
		if q, err = dispatch.Resume(*resumeDir, dispatch.QueueOptions{}); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "sweep: %s\n", q.Recovered())
	} else {
		spec, err := cell.Spec(dispatch.DefaultCheckpoint)
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp("", "sweep-*")
		if err != nil {
			return err
		}
		defer func() {
			if keep {
				fmt.Fprintf(stderr, "sweep: interrupted; resume with: sweep -resume %s\n", dir)
			} else {
				os.RemoveAll(dir)
			}
		}()
		if q, err = dispatch.NewQueue(dir, spec, dispatch.QueueOptions{}); err != nil {
			return err
		}
	}
	defer q.Close()
	spec := q.Spec()
	fmt.Fprintf(stdout, "sweeping %d scenarios x %d variants x %d seeds = %d runs\n", len(spec.Scenarios),
		len(spec.Variants), len(spec.Seeds), len(spec.Scenarios)*len(spec.Variants)*len(spec.Seeds))

	opts := dispatch.LocalOptions{Workers: *workers}
	if *progress {
		opts.Logf = cli.Logf(stderr, "")
	}
	res, err := dispatch.RunLocal(ctx, q, opts)
	if err != nil {
		keep = ctx.Err() != nil
		return err
	}
	exports := dispatch.Exports{Report: *out, Bundle: *bundleDir, Trace: *traceOut, Engprof: *engprofDir}
	if err := dispatch.Export(q, res, exports, cli.Logf(stderr, "sweep: ")); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "completed in %v\n\n", time.Since(start).Round(time.Millisecond))
	return cli.Report(stdout, res)
}
