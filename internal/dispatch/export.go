package dispatch

import (
	"fmt"
	"os"
	"path/filepath"

	"sapsim/internal/artifact"
	"sapsim/internal/scenario"
	"sapsim/internal/trace"
)

// Exports names where a finished sweep's post-hoc outputs land; an empty
// path skips that output.
type Exports struct {
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

// Export materializes a drained queue's outputs, all three read from what
// the sweep directory already holds: the bundle from the store the workers
// uploaded into, the trace reconstructed from the journal (worker-shipped
// engine spans included), and one profile file per terminal cell whose
// profile pointer survived. res is the queue's merged result. logf
// receives one line per output written.
func Export(q *Queue, res *scenario.SweepResult, out Exports, logf func(format string, args ...any)) error {
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
			if st.Profile == nil {
				continue
			}
			blob, err := q.store.Get(st.Profile.Digest)
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
