package dispatch

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sapsim/internal/trace"
)

// JournalName is the journal file inside a sweep directory.
const JournalName = "journal.jsonl"

// journalRecord is one JSON line of the WAL. T selects the record type;
// unused fields are omitted. The journal is an append-only log of facts:
// replaying it in order reconstructs the queue exactly, and a torn final
// line (the write the crash interrupted) is detected and dropped.
type journalRecord struct {
	T string `json:"t"`

	// TS is the record's wall-clock time in microseconds since the Unix
	// epoch (the queue clock, mockable in tests). It is what lets
	// TraceFromJournal rebuild the dispatcher-side spans — queue wait,
	// attempts, lease renewals — of a sweep that already happened.
	TS int64 `json:"ts,omitempty"`

	// header
	Version int   `json:"v,omitempty"`
	Spec    *Spec `json:"spec,omitempty"`

	// state / result
	Job     int    `json:"job,omitempty"`
	State   string `json:"state,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// Lease is the lease expiry for booked/running transitions (wall
	// clock, RFC 3339). Informational on replay: a resumed queue re-queues
	// every in-flight job regardless, because the worker holding the lease
	// cannot reach a dispatcher that just restarted under a new address.
	Lease string `json:"lease,omitempty"`

	Run *RunResult `json:"run,omitempty"`

	// snapshot / profile (T is the pointer's BlobKind): a worker recorded a
	// pointer to a blob it uploaded for Job. The newest record per cell and
	// kind wins.
	Ref *BlobRef `json:"ref,omitempty"`

	// artifact: a blob of any kind landed in the content-addressed store.
	// Digest is the blob's SHA-256; Size its byte length — the record Resume
	// uses to distinguish a truncated blob (size drifted) from a corrupt one
	// (size intact, content re-hashes differently).
	Digest string `json:"digest,omitempty"`
	Size   int64  `json:"size,omitempty"`

	// span: one worker-side trace span (engine phase, snapshot encode,
	// artifact upload) shipped alongside a heartbeat or completion for
	// Job. Spans are facts about the past, never replayed into queue
	// state; TraceFromJournal merges them with the dispatcher-derived
	// lifecycle spans.
	Span *trace.Span `json:"span,omitempty"`
}

const (
	recHeader   = "header"
	recState    = "state"
	recResult   = "result"
	recArtifact = "artifact"
	recSpan     = "span"
)

// journalWriter appends records to the WAL. Callers serialize access (the
// queue holds its mutex across appends).
type journalWriter struct {
	f *os.File
	// observeAppend / countFsync, when set (Queue.Instrument), receive
	// each append's latency and each durable fsync.
	observeAppend func(time.Duration)
	countFsync    func()
}

func createJournal(dir string, spec Spec, ts int64) (*journalWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dispatch: journal dir: %w", err)
	}
	path := filepath.Join(dir, JournalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dispatch: creating journal (use Resume for an existing sweep dir): %w", err)
	}
	w := &journalWriter{f: f}
	if err := w.append(journalRecord{T: recHeader, TS: ts, Version: FormatVersion, Spec: &spec}); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// openJournalForAppend reopens an existing journal to continue it. An
// unterminated final line from the previous process (a write a crash cut
// short) is healed by appending a newline first, so the next record starts
// on a clean line. (A torn fragment then parses as corrupt on any later
// replay and is skipped — the same outcome as dropping it.)
func openJournalForAppend(path string) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dispatch: reopening journal: %w", err)
	}
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, st.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.WriteString("\n"); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return &journalWriter{f: f}, nil
}

func (w *journalWriter) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dispatch: journal encode: %w", err)
	}
	data = append(data, '\n')
	start := time.Time{}
	if w.observeAppend != nil {
		start = time.Now()
	}
	if _, err := w.f.Write(data); err != nil {
		return fmt.Errorf("dispatch: journal append: %w", err)
	}
	if w.observeAppend != nil {
		w.observeAppend(time.Since(start))
	}
	return nil
}

// appendDurable appends and fsyncs — used for results, the records whose
// loss costs a full cell re-run.
func (w *journalWriter) appendDurable(rec journalRecord) error {
	if err := w.append(rec); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.countFsync != nil {
		w.countFsync()
	}
	return nil
}

func (w *journalWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// replayedJournal is the parsed content of a WAL.
type replayedJournal struct {
	spec Spec
	// headerTS is the sweep's creation time (microseconds) — the instant
	// every cell entered the queue.
	headerTS int64
	records  []journalRecord
	// torn reports that the final line was truncated mid-write (process
	// killed during an append) and was dropped.
	torn bool
	// skipped counts corrupt non-final lines that were dropped.
	skipped int
}

// errNoJournal distinguishes "no sweep here" from a corrupt one.
var errNoJournal = errors.New("dispatch: no journal")

// replayJournal reads and parses the WAL, tolerating a torn tail: a final
// line without a newline terminator, or one that fails to parse, is
// dropped (the record it would have carried is simply a fact the crashed
// process never durably established). Corrupt lines elsewhere are skipped
// and counted, so one damaged record costs one cell re-run, not the sweep.
func replayJournal(path string) (*replayedJournal, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w at %s", errNoJournal, path)
		}
		return nil, err
	}
	defer f.Close()

	out := &replayedJournal{}
	r := bufio.NewReader(f)
	sawHeader := false
	for {
		line, err := r.ReadString('\n')
		complete := err == nil
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("dispatch: reading journal: %w", err)
		}
		if len(line) > 0 {
			var rec journalRecord
			parseErr := json.Unmarshal([]byte(line), &rec)
			switch {
			case parseErr != nil && !complete:
				out.torn = true // torn tail: dropped
			case parseErr != nil:
				out.skipped++ // damaged interior line: dropped
			case !sawHeader:
				if rec.T != recHeader || rec.Spec == nil {
					return nil, fmt.Errorf("dispatch: journal does not start with a header record")
				}
				if rec.Version != FormatVersion {
					return nil, fmt.Errorf("dispatch: journal format v%d, this build reads only v%d: "+
						"the sweep is not resumable by this build and must be re-run", rec.Version, FormatVersion)
				}
				out.spec = *rec.Spec
				out.spec.normalize()
				out.headerTS = rec.TS
				sawHeader = true
			default:
				out.records = append(out.records, rec)
			}
		}
		if !complete {
			break
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("dispatch: journal has no readable header")
	}
	return out, nil
}

// leaseStamp formats a lease expiry for the journal.
func leaseStamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
