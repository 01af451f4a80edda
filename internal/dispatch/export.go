package dispatch

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"sapsim/internal/artifact"
	"sapsim/internal/scenario"
	"sapsim/internal/trace"
)

// Exports names where a finished sweep's post-hoc outputs land; an empty
// path skips that output.
type Exports struct {
	// Report is the directory report.txt, runs.csv and — when the runs carry
	// artifact digests — artifact_diff.txt land in (sweep -out, dispatchd
	// -out): the same bytes the bundle holds under those names.
	Report string
	// Bundle is the directory of the browsable, digest-verified report
	// bundle (sweep -bundle).
	Bundle string
	// Trace is the Chrome trace-event file of the cell-lifecycle trace
	// (sweep -trace).
	Trace string
	// Engprof is the directory of per-cell engine self-profiles
	// (sweep -engprof, read back by analyze -engprof).
	Engprof string
}

// ProfileFileName is a cell's engine self-profile file inside
// Exports.Engprof — the scheme analyze -engprof parses back.
func ProfileFileName(key scenario.Key) string {
	return fmt.Sprintf("%s__%s__%d.engprof.json", key.Scenario, key.Variant, key.Seed)
}

// Export writes a drained queue's outputs from what the sweep directory
// holds: the report files and the bundle of res with bodies read from the
// store the workers' completions filled (which only the bundle needs), the
// trace reconstructed from the journal (worker-shipped engine spans
// included), and the profile blob of every terminal cell whose result
// names one. res is the queue's merged result. logf receives one
// line per output written.
func Export(q *Queue, res *scenario.SweepResult, out Exports, logf func(format string, args ...any)) error {
	if out.Report != "" {
		names := []string{artifact.BundleReportName, artifact.BundleRunsName}
		if slices.ContainsFunc(res.Runs, func(r scenario.Run) bool { return len(r.Digests) > 0 }) {
			names = append(names, artifact.BundleDiffName)
		}
		if err := os.MkdirAll(out.Report, 0o755); err != nil {
			return err
		}
		bundle := &artifact.Bundle{Sweep: res, Store: q.store}
		for _, name := range names {
			content, err := bundle.Open(name)
			if err == nil {
				err = os.WriteFile(filepath.Join(out.Report, name), content, 0o644)
			}
			if err != nil {
				return fmt.Errorf("report: %w", err)
			}
		}
		logf("wrote %s to %s", strings.Join(names, ", "), out.Report)
	}
	if out.Bundle != "" {
		manifest, err := artifact.WriteBundle(out.Bundle, res, q.store)
		if err != nil {
			return fmt.Errorf("bundle: %w", err)
		}
		logf("bundled %d cells into %s", len(manifest.Cells), out.Bundle)
	}
	if out.Trace != "" {
		spans, err := TraceFromJournal(q.dir)
		if err == nil {
			err = trace.WriteChromeTraceFile(out.Trace, spans)
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		logf("wrote trace (%d spans) to %s — load it at https://ui.perfetto.dev", len(spans), out.Trace)
	}
	if out.Engprof != "" {
		if err := os.MkdirAll(out.Engprof, 0o755); err != nil {
			return err
		}
		n := 0
		for _, st := range q.Snapshot() {
			if st.Profile == "" {
				continue
			}
			blob, err := q.store.Get(st.Profile)
			if err == nil {
				err = os.WriteFile(filepath.Join(out.Engprof, ProfileFileName(st.Key)), blob, 0o644)
			}
			if err != nil {
				return fmt.Errorf("engprof export %s/%s seed %d: %w", st.Key.Scenario, st.Key.Variant, st.Key.Seed, err)
			}
			n++
		}
		logf("exported %d engine profiles to %s", n, out.Engprof)
	}
	return nil
}
