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

// Export gathers a drained queue's outputs from what the sweep directory
// already holds — the store the workers uploaded into, the trace
// reconstructed from the journal (worker-shipped engine spans included), and
// the profile blob of every terminal cell whose profile pointer survived —
// and hands them to WriteExports. res is the queue's merged result.
func Export(q *Queue, res *scenario.SweepResult, out Exports, logf func(format string, args ...any)) error {
	var spans []trace.Span
	if out.Trace != "" {
		var err error
		if spans, err = TraceFromJournal(q.dir); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	var profiles map[scenario.Key][]byte
	if out.Engprof != "" {
		profiles = map[scenario.Key][]byte{}
		for _, st := range q.Snapshot() {
			if st.Profile == nil {
				continue
			}
			blob, err := q.store.Get(st.Profile.Digest)
			if err != nil {
				return fmt.Errorf("engprof export %s/%s seed %d: %w", st.Key.Scenario, st.Key.Variant, st.Key.Seed, err)
			}
			profiles[st.Key] = blob
		}
	}
	return WriteExports(out, res, q.store, spans, profiles, logf)
}

// WriteExports is the one writer of a finished sweep's outputs, whichever
// mode ran it: the report files and the bundle of res with bodies read from
// store (which only the bundle needs), spans as a Chrome trace, and one
// encoded profile file per cell of res that has one. logf receives one line
// per output written.
func WriteExports(out Exports, res *scenario.SweepResult, store *artifact.Store,
	spans []trace.Span, profiles map[scenario.Key][]byte, logf func(format string, args ...any)) error {
	if out.Report != "" {
		names := []string{artifact.BundleReportName, artifact.BundleRunsName}
		if slices.ContainsFunc(res.Runs, func(r scenario.Run) bool { return len(r.Digests) > 0 }) {
			names = append(names, artifact.BundleDiffName)
		}
		if err := os.MkdirAll(out.Report, 0o755); err != nil {
			return err
		}
		bundle := &artifact.Bundle{Sweep: res, Store: store}
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
		manifest, err := artifact.WriteBundle(out.Bundle, res, store)
		if err != nil {
			return fmt.Errorf("bundle: %w", err)
		}
		logf("bundled %d cells into %s", len(manifest.Cells), out.Bundle)
	}
	if out.Trace != "" {
		if err := trace.WriteChromeTraceFile(out.Trace, spans); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		logf("wrote trace (%d spans) to %s — load it at https://ui.perfetto.dev", len(spans), out.Trace)
	}
	if out.Engprof != "" {
		if err := os.MkdirAll(out.Engprof, 0o755); err != nil {
			return err
		}
		n := 0
		for _, r := range res.Runs {
			blob, ok := profiles[r.Key]
			if !ok {
				continue
			}
			if err := os.WriteFile(filepath.Join(out.Engprof, ProfileFileName(r.Key)), blob, 0o644); err != nil {
				return fmt.Errorf("engprof export %s/%s seed %d: %w", r.Key.Scenario, r.Key.Variant, r.Key.Seed, err)
			}
			n++
		}
		logf("exported %d engine profiles to %s", n, out.Engprof)
	}
	return nil
}
