// Command dispatchd is the durable sweep dispatcher daemon: it expands a
// (scenario × variant × seed) matrix into per-cell jobs journaled under
// -dir, serves them to simworker processes over the wire protocol
// (/book, /progress, /complete), and merges the collected metrics and
// artifact digests into the comparative report once every cell is done.
//
// Kill it at any point: restarting with -resume replays the journal, keeps
// every finished cell, and re-queues the ones that were in flight. The
// merged report of a killed-and-resumed sweep is byte-identical to an
// in-process `scenario.Sweep` of the same matrix.
//
// Each completion carries its cell's artifact bodies into the dispatcher's
// content-addressed store (under -dir, deduplicated by digest), so the
// daemon serves the report bundle at /bundle/ while the sweep runs — the
// index and finished cells' bodies at once, the sweep-wide files once
// drained — and -bundle writes the identical tree to disk, path for path.
// -out (default -dir) receives report.txt, runs.csv and artifact_diff.txt,
// the same bytes the bundle holds under those names.
//
// Usage:
//
//	dispatchd -dir DIR [-addr :9090] [-scale F] [-vms N] [-days N] \
//	          [-sample D] [-scenarios a,b] [-variants x,y] [-seeds 7,11] \
//	          [-checkpoint D] [-lease D] [-timeout D] [-out DIR] [-bundle DIR] \
//	          [-trace FILE] [-pprof ADDR]
//	dispatchd -dir DIR -resume [-addr :9090] [-lease D] [-timeout D]
//
// -trace exports the drained sweep's cell-lifecycle trace (Chrome
// trace-event JSON reconstructed from the journal, including worker-shipped
// engine-phase spans); -pprof serves net/http/pprof on its own listener for
// profiling the daemon mid-sweep.
package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"sapsim/internal/cli"
	"sapsim/internal/dispatch"
	"sapsim/internal/fleetmetrics"
	"sapsim/internal/sim"
)

func main() { cli.Main("dispatchd", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs, cell := cli.Flags("dispatchd", stderr)
	var (
		addr       = fs.String("addr", ":9090", "listen address for the dispatcher protocol")
		dir        = fs.String("dir", "", "sweep directory holding the journal (required)")
		resume     = fs.Bool("resume", false, "resume the journal in -dir instead of starting a new sweep")
		checkpoint = fs.Duration("checkpoint", dispatch.DefaultCheckpoint.Duration(), "simulated-time stride workers step their cells in; each stride is one run span in the trace")
		lease      = fs.Duration("lease", dispatch.DefaultLease, "heartbeat deadline before a cell re-books")
		out        = fs.String("out", "", "report directory (default: -dir)")
		bundle     = fs.String("bundle", "", "materialize the digest-verified report bundle into this directory once drained")
		traceOut   = fs.String("trace", "", "export the sweep's cell-lifecycle trace (Chrome trace-event JSON, Perfetto-loadable) to this file once drained")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof at this address (e.g. 127.0.0.1:6060; empty = off)")
		progress   = fs.Bool("progress", true, "log queue transitions to stderr")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("-dir is required")
	}

	ctx, cancel, err := cell.Interruptible("dispatchd", *pprofAddr, stderr)
	if err != nil {
		return err
	}
	defer cancel()

	opts := dispatch.QueueOptions{Lease: *lease}
	var q *dispatch.Queue
	if *resume {
		q, err = dispatch.Resume(*dir, opts)
		if err == nil {
			fmt.Fprintf(stderr, "dispatchd: %s\n", q.Recovered())
		}
	} else {
		spec, serr := cell.Spec(sim.Time(*checkpoint))
		if serr != nil {
			return serr
		}
		q, err = dispatch.NewQueue(*dir, spec, opts)
	}
	if err != nil {
		return err
	}
	defer q.Close()

	d := dispatch.NewDispatcher(q)
	if *progress {
		d.Logf = cli.Logf(stderr, "")
	}
	d.Instrument(fleetmetrics.NewRegistry())
	bound, err := d.Serve(ctx, *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dispatchd: serving %d cells at %s (journal %s)\n",
		len(q.Snapshot()), bound, filepath.Join(*dir, dispatch.JournalName))
	fmt.Fprintf(stdout, "dispatchd: browsable report bundle at http://%s/bundle\n", bound)
	fmt.Fprintf(stdout, "dispatchd: fleet metrics at http://%s/metrics\n", bound)

	res, err := d.WaitDrained(ctx, 0)
	if err != nil {
		return err
	}

	failed := cli.Report(stdout, res)
	exports := dispatch.Exports{Report: *out, Bundle: *bundle, Trace: *traceOut}
	if exports.Report == "" {
		exports.Report = *dir
	}
	if err := dispatch.Export(q, res, exports, cli.Logf(stdout, "")); err != nil {
		return err
	}
	return failed
}
