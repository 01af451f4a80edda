package dispatch

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sapsim/internal/artifact"
)

func TestBlobRefValidation(t *testing.T) {
	digest := artifact.Digest([]byte("blob"))
	if good := (BlobRef{Kind: BlobProfile, Digest: digest}); good.Validate() != nil {
		t.Errorf("%+v: %v", good, good.Validate())
	}
	for name, bad := range map[string]BlobRef{
		"artifact pointers travel in the completion": {Kind: BlobArtifact, Digest: digest},
		"unknown kind (version-skewed worker)":       {Kind: "heapdump", Digest: digest},
		"retired kind":                               {Kind: legacySnapshot, Digest: digest},
		"no kind":                                    {Digest: digest},
		"profile without a digest":                   {Kind: BlobProfile},
	} {
		if bad.Validate() == nil {
			t.Errorf("%s: %+v validated", name, bad)
		}
	}
}

// TestRecordBlobFlow: the queue journals a held cell's profile pointer only
// once its blob is in the store, refuses strangers and stale nonces, and
// supersedes newest-wins, reclaiming the old blob at once. The pointer
// then outlives completion, as its policy row says.
func TestRecordBlobFlow(t *testing.T) {
	t.Run(string(BlobProfile), func(t *testing.T) {
		clock := &fakeClock{t: time.Unix(1000, 0)}
		q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute, now: clock.now})
		ref := func(digest string) BlobRef { return BlobRef{Kind: BlobProfile, Digest: digest} }

		job, _, err := q.Book("w1", 1)
		if err != nil || job == nil {
			t.Fatalf("Book = %v, %v", job, err)
		}

		// A pointer whose blob was never uploaded is rejected.
		dangling := ref(artifact.Digest([]byte("never uploaded")))
		if err := q.RecordBlob(job.ID, "w1", job.Attempt, dangling); !errors.Is(err, ErrMissingBlobs) {
			t.Fatalf("dangling pointer = %v, want ErrMissingBlobs", err)
		}
		first := putBody(t, q, "first profile")
		if err := q.RecordBlob(job.ID, "w1", job.Attempt, ref(first)); err != nil {
			t.Fatal(err)
		}
		// Strangers and stale nonces cannot record.
		second := putBody(t, q, "second profile")
		if err := q.RecordBlob(job.ID, "w2", job.Attempt, ref(second)); !errors.Is(err, ErrStale) {
			t.Fatalf("stranger's pointer = %v, want ErrStale", err)
		}
		if err := q.RecordBlob(job.ID, "w1", job.Attempt+1, ref(second)); !errors.Is(err, ErrStale) {
			t.Fatalf("stale-nonce pointer = %v, want ErrStale", err)
		}
		if err := q.RecordBlob(job.ID, "w1", job.Attempt, ref(second)); err != nil {
			t.Fatal(err)
		}
		// Newest wins, and the superseded blob is reclaimed immediately.
		if got := q.Snapshot()[job.ID].Profile; got == nil || got.Digest != second {
			t.Fatalf("status pointer = %+v, want the superseding record", got)
		}
		if q.Store().Has(first) {
			t.Error("superseded blob not reclaimed")
		}
		if !q.Store().Has(second) {
			t.Fatal("live blob missing")
		}

		body := putBody(t, q, "fig5 body")
		if err := q.Complete(job.ID, "w1", job.Attempt, RunResult{Digests: map[string]string{"fig5": body}}); err != nil {
			t.Fatal(err)
		}
		st := q.Snapshot()[job.ID]
		if st.State != "done" {
			t.Fatalf("cell ended %s, want done", st.State)
		}
		if !q.Store().Has(body) {
			t.Error("artifact body reclaimed at completion")
		}
		if st.Profile == nil || !q.Store().Has(second) {
			t.Fatalf("after completion: pointer %+v, blob held %v; want both kept", st.Profile, q.Store().Has(second))
		}
	})
}

// TestReleaseDropsProfilePointer: a profile recorded by a completion that
// then failed is residue once the worker hands the cell back — the same
// drop helper Complete uses clears it and reclaims the blob.
func TestReleaseDropsProfilePointer(t *testing.T) {
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute})
	job, _, err := q.Book("w1", 1)
	if err != nil || job == nil {
		t.Fatalf("Book = %v, %v", job, err)
	}
	prof := putBody(t, q, "profile")
	if err := q.RecordBlob(job.ID, "w1", job.Attempt, BlobRef{Kind: BlobProfile, Digest: prof}); err != nil {
		t.Fatal(err)
	}
	if err := q.Release(job.ID, "w1", job.Attempt, "complete: 412"); err != nil {
		t.Fatal(err)
	}
	st := q.Snapshot()[job.ID]
	if st.State != "queued" || st.Profile != nil || q.Store().Has(prof) {
		t.Errorf("released cell = %+v, profile blob held %v; want queued with the profile gone", st, q.Store().Has(prof))
	}
}

// legacySnapshot is the pointer kind of the mid-run snapshots workers
// shipped before warm resume was removed. Journals written then still hold
// its records, and replay skips them.
const legacySnapshot BlobKind = recRetiredSnapshot

// appendLegacySnapshot journals a snapshot pointer for the job exactly as
// earlier builds wrote it, through the queue's open journal.
func appendLegacySnapshot(t testing.TB, q *Queue, job int, worker, digest string) {
	t.Helper()
	line := fmt.Sprintf(`{"t":"snapshot","ts":%d,"job":%d,"worker":%q,`+
		`"ref":{"Kind":"snapshot","Digest":%q,"At":21600000000000}}`+"\n",
		q.opts.now().UnixMicro(), job, worker, digest)
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, err := q.journal.f.WriteString(line); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyJournal leaves in dir what an earlier build left when its
// dispatcher died: cell 0 running on "victim", with one snapshot blob in the
// store and the pointer to it journaled. It returns the blob's digest.
func writeLegacyJournal(t testing.TB, dir string, spec Spec) string {
	t.Helper()
	q, err := NewQueue(dir, spec, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := q.Book("victim", 1)
	if err != nil || job == nil {
		t.Fatalf("Book = %v, %v", job, err)
	}
	if err := q.Progress(job.ID, "victim", job.Attempt); err != nil {
		t.Fatal(err)
	}
	blob := putBody(t, q, "engine snapshot of cell 0 at 6h")
	appendLegacySnapshot(t, q, job.ID, "victim", blob)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestLegacySnapshotJournalResumes: a journal that holds a snapshot pointer
// still resumes. The record replays as a no-op, not as a corrupt line, the
// GC collects its blob, and the cell it named drains cold to the
// single-process reference. A kind no build ever wrote is still a corrupt
// line: only the retired kind is skipped.
func TestLegacySnapshotJournalResumes(t *testing.T) {
	spec := testSpec()
	ref := referenceSweep(t, spec)
	dir := t.TempDir()
	blob := writeLegacyJournal(t, dir, spec)

	r, err := Resume(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recovered := r.Recovered()
	if strings.Contains(recovered, "corrupt") || !strings.Contains(recovered, "1 requeued") ||
		!strings.Contains(recovered, "1 orphan blobs collected") || r.Store().Has(blob) {
		t.Errorf("Recovered() = %q, snapshot blob held %v; want the running cell requeued, "+
			"no corrupt line and the blob collected", recovered, r.Store().Has(blob))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	merged, err := RunLocal(ctx, r, LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, merged, ref, "legacy journal")

	r.mu.Lock()
	err = r.appendLocked(journalRecord{T: "heapdump", Job: 1}, false)
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Resume(dir, QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !strings.Contains(r2.Recovered(), "1 corrupt lines skipped") || !r2.Done() {
		t.Errorf("Recovered() = %q, drained %v; want one corrupt line and the sweep still drained",
			r2.Recovered(), r2.Done())
	}
}

// TestResumeBlobAudit holds Resume to the pointer-lifetime table, one
// subtest per {kind} × {damage} × {cell in / outside the kind's live
// states}. Cell 0 is the subject; cell 1 is a done bystander sharing one
// artifact body with it, and one orphan blob belongs to nobody.
//
// In a live state a damaged blob costs what the table says — artifact: the
// cell re-queues with a fresh attempt budget; profile: the pointer drops
// and the cell stays done — the damaged file is removed, and Recovered()
// names kind and cause. Outside its live states a pointer is cleared
// silently and the blob, damaged or not, falls to the GC with the orphan.
// A legacy snapshot pointer (live: its cell was in flight; otherwise done)
// is skipped whatever its blob's state: nothing is audited or reported,
// the cell resumes as if the record were not there, and the blob falls to
// the GC.
func TestResumeBlobAudit(t *testing.T) {
	damage := map[string]func(t *testing.T, path string){
		"intact": func(*testing.T, string) {},
		"missing": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, path string) {
			if err := os.Truncate(path, 4); err != nil {
				t.Fatal(err)
			}
		},
		"corrupt": func(t *testing.T, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			blob[len(blob)/2] ^= 0x40
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	cost := map[BlobKind]string{
		BlobArtifact: "cells requeued",
		BlobProfile:  "pointers dropped, cells stay done",
	}
	const shared = "table5: identical across cells"
	for _, kind := range []BlobKind{BlobArtifact, legacySnapshot, BlobProfile} {
		for _, cause := range []string{"intact", "missing", "truncated", "corrupt"} {
			for _, live := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/live=%v", kind, cause, live)
				t.Run(name, func(t *testing.T) {
					clock := &fakeClock{t: time.Unix(1000, 0)}
					dir := t.TempDir()
					q, err := NewQueue(dir, testSpec(), QueueOptions{Lease: time.Minute, now: clock.now})
					if err != nil {
						t.Fatal(err)
					}
					job, _, err := q.Book("w1", 1)
					if err != nil || job == nil || job.ID != 0 {
						t.Fatalf("Book = %v, %v", job, err)
					}
					completeCell(t, q, "w0", map[string]string{"table5": shared, "fig9": "bystander's series"})
					orphan := putBody(t, q, "upload from a crashed cell")

					// Put the subject blob behind cell 0 and leave the cell in
					// (or outside) the states its kind's pointer is live in.
					subject := putBody(t, q, "subject of "+name)
					series := "subject's series"
					if kind == BlobArtifact {
						series = "subject of " + name
					}
					switch kind {
					case legacySnapshot:
						appendLegacySnapshot(t, q, job.ID, "w1", subject)
					case BlobProfile:
						if err := q.RecordBlob(job.ID, "w1", job.Attempt,
							BlobRef{Kind: kind, Digest: subject}); err != nil {
							t.Fatal(err)
						}
					}
					// artifact: live once done; legacy snapshot: live until
					// done; profile: live once done.
					wantState := "queued"
					if live != (kind == legacySnapshot) {
						digests := map[string]string{"table5": putBody(t, q, shared), "fig9": putBody(t, q, series)}
						if err := q.Complete(job.ID, "w1", job.Attempt, RunResult{Digests: digests}); err != nil {
							t.Fatal(err)
						}
						wantState = "done"
					}
					if err := q.Close(); err != nil {
						t.Fatal(err)
					}
					damage[cause](t, filepath.Join(dir, artifact.DirName, subject[:2], subject))

					r, err := Resume(dir, QueueOptions{Lease: time.Minute, now: clock.now})
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					t.Log(r.Recovered())
					st := r.Snapshot()

					damaged := live && cause != "intact" && kind != legacySnapshot
					if damaged && kind == BlobArtifact {
						wantState = "queued"
						if st[0].Attempt != 0 {
							// Disk rot must not eat into the cell's attempt budget.
							t.Errorf("cell requeued with attempt %d, want a fresh budget", st[0].Attempt)
						}
						if !strings.Contains(r.Recovered(), "1 cells requeued for artifact re-upload") {
							t.Errorf("Recovered() = %q, want the requeue counted", r.Recovered())
						}
					}
					if st[0].State != wantState {
						t.Errorf("subject cell resumed %s, want %s", st[0].State, wantState)
					}
					if st[1].State != "done" || !r.Store().Has(artifact.Digest([]byte(shared))) {
						t.Errorf("bystander resumed %s, shared blob held %v; want it untouched",
							st[1].State, r.Store().Has(artifact.Digest([]byte(shared))))
					}

					report := fmt.Sprintf("1 %s %s blobs (%s)", cause, kind, cost[kind])
					if damaged != strings.Contains(r.Recovered(), report) {
						t.Errorf("Recovered() = %q; want %q mentioned: %v", r.Recovered(), report, damaged)
					}
					if !damaged && strings.Contains(r.Recovered(), string(kind)+" blobs") {
						t.Errorf("Recovered() = %q reports %s damage; want none", r.Recovered(), kind)
					}
					if strings.Contains(r.Recovered(), "corrupt lines") {
						t.Errorf("Recovered() = %q counts a corrupt line; want none", r.Recovered())
					}

					// The blob survives only intact and pointed at; a damaged
					// file must go so a re-upload is not deduplicated against it.
					wantKept := live && cause == "intact" && kind != legacySnapshot
					if r.Store().Has(subject) != wantKept {
						t.Errorf("subject blob held = %v, want %v", !wantKept, wantKept)
					}
					if kind == BlobProfile && (st[0].Profile != nil) != wantKept {
						t.Errorf("pointer after resume = %+v, want kept = %v", st[0].Profile, wantKept)
					}
					if r.Store().Has(orphan) || !strings.Contains(r.Recovered(), "orphan blobs collected") {
						t.Errorf("orphan held = %v, Recovered() = %q; want it collected",
							r.Store().Has(orphan), r.Recovered())
					}

					// The sweep carries on: the subject cell re-books,
					// re-completes with the same deterministic bodies, and a
					// second resume replays clean.
					if wantState == "queued" {
						rebooked, _, err := r.Book("w2", 1)
						if err != nil || rebooked == nil || rebooked.ID != 0 {
							t.Fatalf("re-book = %+v, %v", rebooked, err)
						}
						digests := map[string]string{"table5": putBody(t, r, shared), "fig9": putBody(t, r, series)}
						if err := r.Complete(0, "w2", rebooked.Attempt, RunResult{Digests: digests}); err != nil {
							t.Fatal(err)
						}
					}
					if err := r.Close(); err != nil {
						t.Fatal(err)
					}
					r2, err := Resume(dir, QueueOptions{Lease: time.Minute, now: clock.now})
					if err != nil {
						t.Fatal(err)
					}
					defer r2.Close()
					if got := r2.Snapshot()[0].State; got != "done" {
						t.Errorf("subject cell after second resume = %s, want done (%s)", got, r2.Recovered())
					}
				})
			}
		}
	}
}

// TestCompleteIsWriteAhead: a completion whose result record cannot land
// (here: the journal is closed; in production, a failed fsync) must not
// take effect in memory — the cell stays held, and the sweep does not
// drain on a result no resume would ever see. Progress's booked → running
// edge holds to the same contract.
func TestCompleteIsWriteAhead(t *testing.T) {
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute})
	var held []*Job
	for range q.Snapshot() {
		j, _, err := q.Book("w1", 4)
		if err != nil || j == nil {
			t.Fatalf("Book = %v, %v", j, err)
		}
		held = append(held, j)
	}
	body := putBody(t, q, "fig5 body")
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	for _, j := range held {
		if err := q.Progress(j.ID, "w1", j.Attempt); err == nil {
			t.Errorf("job %d: Progress on a closed journal succeeded", j.ID)
		}
		if err := q.Complete(j.ID, "w1", j.Attempt, RunResult{Digests: map[string]string{"fig5": body}}); err == nil {
			t.Errorf("job %d: Complete on a closed journal succeeded", j.ID)
		}
	}
	for _, st := range q.Snapshot() {
		if st.State != "booked" || st.Worker != "w1" {
			t.Errorf("job %d is %s (worker %q) after failed journal appends, want still booked by w1",
				st.ID, st.State, st.Worker)
		}
	}
	if q.Done() {
		t.Error("queue drained on completions that were never journaled")
	}
	if _, err := q.Merged(); !errors.Is(err, ErrNotDrained) {
		t.Errorf("Merged = %v, want ErrNotDrained", err)
	}
}

// TestOldJournalsFailLoudly: journal format v6 has no v5 reader. A sweep
// directory written by an older build is refused by Resume and by
// TraceFromJournal with an error that names both versions and says what to
// do — and nothing in the directory is touched.
func TestOldJournalsFailLoudly(t *testing.T) {
	dir := t.TempDir()
	q, err := NewQueue(dir, testSpec(), QueueOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Reduce the directory to exactly what a v5 build left: a journal whose
	// header says "v":5 (the store directory postdates nothing here — drop
	// it so any write shows).
	if err := os.RemoveAll(filepath.Join(dir, artifact.DirName)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v5 := strings.Replace(string(data), fmt.Sprintf(`"v":%d`, FormatVersion), `"v":5`, 1)
	if v5 == string(data) {
		t.Fatalf("journal header carries no version token: %s", data)
	}
	v5 += `{"t":"checkpoint","ts":1,"job":0,"worker":"w1","ckpt":{"Format":5}}` + "\n"
	if err := os.WriteFile(path, []byte(v5), 0o644); err != nil {
		t.Fatal(err)
	}

	_, resumeErr := Resume(dir, QueueOptions{})
	_, traceErr := TraceFromJournal(dir)
	for name, err := range map[string]error{"Resume": resumeErr, "TraceFromJournal": traceErr} {
		if err == nil {
			t.Errorf("%s accepted a v5 journal", name)
			continue
		}
		for _, want := range []string{"v5", fmt.Sprintf("v%d", FormatVersion), "not resumable"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s error = %q, want it to mention %q", name, err, want)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || string(after) != v5 {
		t.Errorf("refused resume wrote to the directory: %d entries, journal changed = %v",
			len(entries), string(after) != v5)
	}
}
