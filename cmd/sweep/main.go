// Command sweep runs a (scenario × scheduler-config × seed) matrix and
// prints a comparative report of per-scenario deltas against the baseline
// for the headline artifacts: packing efficiency, scheduling latency
// proxy, and migration counts.
//
// Two execution modes here, plus dispatchd's, share one matrix definition:
//
//   - default: in-process across a bounded worker pool (-workers).
//   - -resume DIR: reopen the journal directory of a dispatched sweep —
//     finished cells keep their recorded results, in-flight ones re-run
//     in-process over loopback HTTP. On a drained sweep this just merges
//     and exports (-bundle, -trace, -engprof) post hoc.
//
// Serving a matrix to external simworkers is cmd/dispatchd's job
// (dispatchd [-resume]). All three produce byte-identical reports for the
// same matrix (the dispatch package's tests enforce it).
//
// Usage:
//
//	sweep [-scale F] [-vms N] [-days N] [-sample D] \
//	      [-scenarios a,b,...] [-variants x,y,...] [-seeds 7,11,...] \
//	      [-workers N] [-timeout D] [-out DIR] [-diff] [-list] [-branch] \
//	      [-resume DIR] [-bundle DIR] [-trace FILE] [-engprof DIR]
//
// -engprof DIR exports each cell's engine self-profile — the always-on
// per-phase wall-time/work attribution the core collects as it runs — as
// one JSON file per cell (scenario__variant__seed.engprof.json), ready for
// analyze -engprof. In-process sweeps encode them from each cell's Result;
// the resumed mode reads the blobs the workers shipped into the
// content-addressed store (profile pointers survive completion and
// kill+resume, so a resumed sweep exports attribution for every cell).
//
// -trace FILE exports the sweep's cell-lifecycle trace as Chrome
// trace-event JSON (load it at https://ui.perfetto.dev): per cell, a root
// span covering queued→done with queue-wait and per-attempt child spans.
// In the resumed mode the trace reconstructs from the journal and includes
// every worker-shipped engine-phase span; all modes emit the same span
// identity scheme.
//
// Scenario and variant names come from the builtin libraries; -list prints
// them. Runs are fully deterministic per seed, independent of -workers and
// of how cells are distributed. -diff fingerprints every cell (SHA-256 per
// artifact, all 18) and prints which artifacts changed versus the baseline
// scenario for the same variant and seed.
//
// -out DIR writes report.txt, runs.csv and — when the cells carry artifact
// digests (-diff, -bundle, -resume) — artifact_diff.txt.
//
// -bundle DIR materializes the finished sweep as a browsable report
// bundle: index.html, the comparative reports, one baseline-vs-scenario
// page per scenario, and every cell's artifact bodies, each read out of
// the content-addressed store with digest verification (SHA256SUMS in the
// bundle re-verifies offline) — the tree a dispatcher serves at /bundle/.
// In the resumed mode the bodies come from the store the workers uploaded
// into, under the journal directory; in the in-process mode they are
// captured during the sweep — both produce byte-identical bundles for the
// same matrix, as does dispatchd -bundle.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sapsim"
	"sapsim/internal/artifact"
	"sapsim/internal/core"
	"sapsim/internal/dispatch"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
	"sapsim/internal/trace"
)

func main() {
	var (
		scale        = flag.Float64("scale", 0.02, "region scale (1.0 = 1,823 hypervisors)")
		vms          = flag.Int("vms", 960, "initial VM population per run")
		days         = flag.Int("days", 10, "observation window in days")
		sample       = flag.Duration("sample", 15*time.Minute, "host sampling interval")
		scenarioList = flag.String("scenarios", "", "comma-separated scenario names (default: all builtin)")
		variantList  = flag.String("variants", "default", "comma-separated variant names (\"all\" = every builtin)")
		seedList     = flag.String("seeds", "2024", "comma-separated seeds")
		workers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 0, "wall-clock limit for the whole sweep (0 = none)")
		progress     = flag.Bool("progress", true, "print per-cell completions to stderr")
		out          = flag.String("out", "", "directory for the comparative report, the per-run CSV and (when cells were fingerprinted) the artifact diff")
		diff         = flag.Bool("diff", false, "fingerprint all artifacts per cell and print per-cell diffs vs the baseline scenario")
		list         = flag.Bool("list", false, "list builtin scenarios and variants, then exit")
		resumeDir    = flag.String("resume", "", "resume an interrupted dispatched sweep from this journal directory")
		branch       = flag.Bool("branch", false, "warm-fork cells sharing a (variant, seed) from one snapshot of their common prefix (in-process mode only; a test pins equal runs to a cold sweep for one matrix, there is no general byte-identity guarantee)")
		bundleDir    = flag.String("bundle", "", "materialize a digest-verified report bundle (artifact bodies included) into this directory")
		traceOut     = flag.String("trace", "", "export the sweep's cell-lifecycle trace (Chrome trace-event JSON, Perfetto-loadable) to this file")
		engprofDir   = flag.String("engprof", "", "export each cell's engine self-profile as JSON into this directory (for analyze -engprof)")
	)
	flag.Parse()

	if *list {
		fmt.Println("scenarios:")
		for _, sc := range scenario.Builtin() {
			fmt.Printf("  %-20s %s\n", sc.Name, sc.Description)
		}
		fmt.Println("variants:")
		for _, v := range scenario.BuiltinVariants() {
			fmt.Printf("  %s\n", v.Name)
		}
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -resume ignores the matrix flags entirely: the journal header's spec
	// is authoritative for an interrupted sweep, so a resume must not be
	// blocked by (or silently diverge from) whatever flags this invocation
	// happens to carry.
	parseSpec := func() dispatch.Spec {
		base := core.DefaultConfig(2024)
		base.Scale = *scale
		base.VMs = *vms
		base.Days = *days
		base.SampleEvery = sim.Time(*sample)
		// The checkpoint stride is for dispatched workers; in-process cells
		// take no mid-run snapshots.
		spec, err := dispatch.ParseSpec(base, *scenarioList, *variantList, *seedList, 0)
		if err != nil {
			fatal(err)
		}
		return spec
	}

	var res *scenario.SweepResult
	var err error
	exports := dispatch.Exports{Report: *out, Bundle: *bundleDir, Trace: *traceOut, Engprof: *engprofDir}
	start := time.Now()
	if *resumeDir != "" {
		res, err = resumeSweep(ctx, *resumeDir, *workers, *progress, exports)
	} else {
		res, err = localSweep(ctx, parseSpec(), *workers, *diff, *progress, *branch, exports)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("completed in %v\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Print(scenario.Comparative(res))
	// Dispatched cells always carry digests; print the diff whenever we
	// have them or the user asked.
	if *diff || *resumeDir != "" {
		fmt.Print(scenario.ArtifactDiff(res))
	}

	for _, r := range res.Runs {
		if r.Err != "" {
			fatal(fmt.Errorf("run %s/%s seed %d: %s", r.Key.Scenario, r.Key.Variant, r.Key.Seed, r.Err))
		}
	}
}

// localSweep is the in-process path: the spec expanded into the bounded
// worker pool of scenario.Sweep — the same expansion the dispatched path
// serves cell by cell. With a bundle directory, every cell's artifact
// bodies are captured into a content-addressed store as the sweep runs
// (shared bodies stored once) and the bundle materializes at the end —
// byte-identical to the bundle a dispatched sweep of the same matrix
// produces.
func localSweep(ctx context.Context, spec dispatch.Spec, workers int,
	fingerprint, progress, branch bool, out dispatch.Exports) (*scenario.SweepResult, error) {
	m, err := spec.Matrix()
	if err != nil {
		return nil, err
	}
	m.Workers = workers
	m.Context = ctx
	m.Branch = branch
	var store *artifact.Store
	if out.Bundle != "" {
		casDir, err := os.MkdirTemp("", "sweep-cas-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(casDir)
		// Scratch store: the blobs only live until the bundle materializes,
		// so skip the durable store's per-blob fsyncs.
		if store, err = artifact.OpenScratch(casDir); err != nil {
			return nil, err
		}
		m.Fingerprint = func(res *core.Result) (map[string]string, error) {
			bodies, err := sapsim.ArtifactSet(res)
			if err != nil {
				return nil, err
			}
			// The same render → digest → store sequence a dispatched
			// worker performs, minus the wire.
			return store.Capture(bodies)
		}
	} else if fingerprint {
		m.Fingerprint = func(res *core.Result) (map[string]string, error) {
			return sapsim.ArtifactDigests(res)
		}
	}
	// Profile export hangs off OnResult — deliberately not Fingerprint —
	// so the wall-clock-dependent profile bytes never enter the
	// byte-identity contract the execution modes share.
	var profiles sync.Map // scenario.Key → *sapsim.Profile
	if out.Engprof != "" {
		m.OnResult = func(key scenario.Key, res *core.Result) { profiles.Store(key, res.Profile) }
	}
	total := len(m.Scenarios) * len(m.Variants) * len(m.Seeds)
	var callbacks []func(scenario.CellUpdate)
	var tracer *localTracer
	if out.Trace != "" {
		tracer = newLocalTracer()
		callbacks = append(callbacks, tracer.onCell)
	}
	if progress {
		var done atomic.Int64
		callbacks = append(callbacks, func(u scenario.CellUpdate) {
			switch u.State {
			case scenario.CellFinished, scenario.CellFailed, scenario.CellCanceled:
				fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s/%s seed %d: %s\n",
					done.Add(1), total, u.Key.Scenario, u.Key.Variant, u.Key.Seed, u.State)
			}
		})
	}
	if len(callbacks) > 0 {
		m.OnCell = func(u scenario.CellUpdate) {
			for _, cb := range callbacks {
				cb(u)
			}
		}
	}
	fmt.Printf("sweeping %d scenarios x %d variants x %d seeds = %d runs in-process\n",
		len(m.Scenarios), len(m.Variants), len(m.Seeds), total)
	res, err := scenario.Sweep(m)
	if err != nil {
		return nil, err
	}
	var spans []trace.Span
	if tracer != nil {
		spans = tracer.spans()
	}
	blobs := map[scenario.Key][]byte{}
	for _, r := range res.Runs {
		if p, ok := profiles.Load(r.Key); ok {
			if blobs[r.Key], err = sapsim.EncodeProfileBytes(p.(*sapsim.Profile)); err != nil {
				return nil, fmt.Errorf("engprof export %s/%s seed %d: %w", r.Key.Scenario, r.Key.Variant, r.Key.Seed, err)
			}
		}
	}
	return res, dispatch.WriteExports(out, res, store, spans, blobs, logfSweep)
}

// localTracer derives the in-process sweep's cell-lifecycle spans from
// OnCell callbacks, using the same trace and span IDs the dispatched
// modes derive from the journal — the exported trace looks identical in
// Perfetto regardless of execution mode.
type localTracer struct {
	mu    sync.Mutex
	start time.Time
	cells map[int]*localCell
}

type localCell struct {
	key        scenario.Key
	start, end time.Time
	outcome    string
}

func newLocalTracer() *localTracer {
	return &localTracer{start: time.Now(), cells: map[int]*localCell{}}
}

// onCell runs on the sweep's worker goroutines; keep it cheap.
func (lt *localTracer) onCell(u scenario.CellUpdate) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	c := lt.cells[u.Index]
	if c == nil {
		c = &localCell{key: u.Key}
		lt.cells[u.Index] = c
	}
	switch u.State {
	case scenario.CellStarted:
		c.start = time.Now()
	case scenario.CellFinished:
		c.end, c.outcome = time.Now(), "done"
	case scenario.CellFailed:
		c.end, c.outcome = time.Now(), "failed"
	case scenario.CellCanceled:
		c.end, c.outcome = time.Now(), "canceled"
	}
}

func (lt *localTracer) spans() []trace.Span {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var out []trace.Span
	for idx, c := range lt.cells {
		start, end := c.start, c.end
		if start.IsZero() {
			start = lt.start
		}
		if end.IsZero() {
			end = start
		}
		tid := dispatch.CellTraceID(c.key)
		cell := fmt.Sprintf("cell-%d", idx)
		out = append(out,
			trace.Span{Trace: tid, ID: cell, Name: "cell",
				Start: trace.Micros(lt.start), End: trace.Micros(end)},
			trace.Span{Trace: tid, ID: cell + "/q1", Parent: cell, Name: "queue-wait",
				Start: trace.Micros(lt.start), End: trace.Micros(start)},
			trace.Span{Trace: tid, ID: cell + "/a1", Parent: cell, Name: "attempt",
				Start: trace.Micros(start), End: trace.Micros(end),
				Attrs: map[string]string{"worker": "in-process", "outcome": c.outcome}},
		)
	}
	return out
}

// resumeSweep reopens a journal and runs the remaining cells in-process
// over loopback. The workers re-upload any artifact bodies the resume audit
// found missing or damaged, so the bundle that materializes afterward is
// complete.
func resumeSweep(ctx context.Context, dir string, workers int,
	progress bool, out dispatch.Exports) (*scenario.SweepResult, error) {
	q, err := dispatch.Resume(dir, dispatch.QueueOptions{})
	if err != nil {
		return nil, err
	}
	defer q.Close()
	fmt.Fprintf(os.Stderr, "sweep: %s\n", q.Recovered())
	opts := dispatch.LocalOptions{Workers: workers}
	if progress {
		opts.Logf = logfStderr
	}
	res, err := dispatch.RunLocal(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	return res, dispatch.Export(q, res, out, logfSweep)
}

func logfStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// logfSweep prefixes the export writer's lines like the CLI's own.
func logfSweep(format string, args ...any) {
	logfStderr("sweep: "+format, args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
