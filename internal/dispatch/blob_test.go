package dispatch

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sapsim/internal/artifact"
	"sapsim/internal/sim"
)

func TestBlobRefValidation(t *testing.T) {
	digest := artifact.Digest([]byte("blob"))
	for _, good := range []BlobRef{
		{Kind: BlobSnapshot, Digest: digest, At: 6 * sim.Hour},
		{Kind: BlobProfile, Digest: digest},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("%+v: %v", good, err)
		}
	}
	for name, bad := range map[string]BlobRef{
		"artifact pointers travel in the completion": {Kind: BlobArtifact, Digest: digest},
		"unknown kind (version-skewed worker)":       {Kind: "heapdump", Digest: digest},
		"no kind":                                    {Digest: digest},
		"snapshot without a digest":                  {Kind: BlobSnapshot, At: 6 * sim.Hour},
		"profile without a digest":                   {Kind: BlobProfile},
		"snapshot of t=0":                            {Kind: BlobSnapshot, Digest: digest},
	} {
		if bad.Validate() == nil {
			t.Errorf("%s: %+v validated", name, bad)
		}
	}
}

// TestRecordBlobFlow: for both recordable kinds, the queue journals a held
// cell's pointer only once its blob is in the store, refuses strangers and
// stale nonces, and supersedes newest-wins, reclaiming the old blob at
// once. What happens next is the policy table: a snapshot pointer rides
// the next booking after a lease expiry and is reclaimed when the cell
// completes; a profile pointer outlives completion.
func TestRecordBlobFlow(t *testing.T) {
	for _, kind := range []BlobKind{BlobSnapshot, BlobProfile} {
		t.Run(string(kind), func(t *testing.T) {
			clock := &fakeClock{t: time.Unix(1000, 0)}
			q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute, now: clock.now})
			pointer := func(st JobStatus) *BlobRef {
				if kind == BlobSnapshot {
					return st.Snapshot
				}
				return st.Profile
			}
			ref := func(digest string, at sim.Time) BlobRef {
				if kind == BlobSnapshot {
					return BlobRef{Kind: kind, Digest: digest, At: at}
				}
				return BlobRef{Kind: kind, Digest: digest}
			}

			job, _, err := q.Book("w1", 1)
			if err != nil || job == nil {
				t.Fatalf("Book = %v, %v", job, err)
			}
			holder, attempt := "w1", job.Attempt

			// A pointer whose blob was never uploaded is rejected.
			dangling := ref(artifact.Digest([]byte("never uploaded")), 6*sim.Hour)
			if err := q.RecordBlob(job.ID, "w1", attempt, dangling); !errors.Is(err, ErrMissingBlobs) {
				t.Fatalf("dangling pointer = %v, want ErrMissingBlobs", err)
			}
			first := putBody(t, q, "first "+string(kind))
			if err := q.RecordBlob(job.ID, "w1", attempt, ref(first, 6*sim.Hour)); err != nil {
				t.Fatal(err)
			}
			// Strangers and stale nonces cannot record.
			second := putBody(t, q, "second "+string(kind))
			if err := q.RecordBlob(job.ID, "w2", attempt, ref(second, 12*sim.Hour)); !errors.Is(err, ErrStale) {
				t.Fatalf("stranger's pointer = %v, want ErrStale", err)
			}
			if err := q.RecordBlob(job.ID, "w1", attempt+1, ref(second, 12*sim.Hour)); !errors.Is(err, ErrStale) {
				t.Fatalf("stale-nonce pointer = %v, want ErrStale", err)
			}
			if err := q.RecordBlob(job.ID, "w1", attempt, ref(second, 12*sim.Hour)); err != nil {
				t.Fatal(err)
			}
			// Newest wins, and the superseded blob is reclaimed immediately.
			if got := pointer(q.Snapshot()[job.ID]); got == nil || got.Digest != second {
				t.Fatalf("status pointer = %+v, want the superseding record", got)
			}
			if q.Store().Has(first) {
				t.Error("superseded blob not reclaimed")
			}
			if !q.Store().Has(second) {
				t.Fatal("live blob missing")
			}

			if kind == BlobSnapshot {
				// Lease expiry: the re-booking carries the pointer for a warm
				// resume.
				clock.advance(2 * time.Minute)
				rebooked, _, err := q.Book("w2", 1)
				if err != nil || rebooked == nil || rebooked.ID != job.ID {
					t.Fatalf("re-book = %+v, %v, want job %d", rebooked, err, job.ID)
				}
				if rebooked.Snapshot == nil || rebooked.Snapshot.Digest != second || rebooked.Snapshot.At != 12*sim.Hour {
					t.Fatalf("re-booked cell carries %+v, want the 12h snapshot", rebooked.Snapshot)
				}
				holder, attempt = "w2", rebooked.Attempt
			}

			body := putBody(t, q, "fig5 body")
			if err := q.Complete(job.ID, holder, attempt, RunResult{Digests: map[string]string{"fig5": body}}); err != nil {
				t.Fatal(err)
			}
			st := q.Snapshot()[job.ID]
			if st.State != "done" {
				t.Fatalf("cell ended %s, want done", st.State)
			}
			if !q.Store().Has(body) {
				t.Error("artifact body reclaimed at completion")
			}
			// Completion is terminal for snapshots — the store converges to
			// what the sweep promises — but NOT for profiles.
			wantKept := kind == BlobProfile
			if (pointer(st) != nil) != wantKept || q.Store().Has(second) != wantKept {
				t.Fatalf("after completion: pointer %+v, blob held %v; want kept = %v",
					pointer(st), q.Store().Has(second), wantKept)
			}
		})
	}
}

// TestReleaseDropsProfilePointer: a profile recorded by a completion that
// then failed is residue once the worker hands the cell back — the same
// drop helper Complete uses clears it and reclaims the blob, while the
// snapshot pointer (live in every unfinished state) stays for the next
// holder.
func TestReleaseDropsProfilePointer(t *testing.T) {
	q, _ := newTestQueue(t, QueueOptions{Lease: time.Minute})
	job, _, err := q.Book("w1", 1)
	if err != nil || job == nil {
		t.Fatalf("Book = %v, %v", job, err)
	}
	snap, prof := putBody(t, q, "snapshot"), putBody(t, q, "profile")
	for _, ref := range []BlobRef{{Kind: BlobSnapshot, Digest: snap, At: sim.Hour}, {Kind: BlobProfile, Digest: prof}} {
		if err := q.RecordBlob(job.ID, "w1", job.Attempt, ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Release(job.ID, "w1", job.Attempt, "complete: 412"); err != nil {
		t.Fatal(err)
	}
	st := q.Snapshot()[job.ID]
	if st.State != "queued" || st.Profile != nil || q.Store().Has(prof) {
		t.Errorf("released cell = %+v, profile blob held %v; want queued with the profile gone", st, q.Store().Has(prof))
	}
	if st.Snapshot == nil || !q.Store().Has(snap) {
		t.Errorf("released cell lost its snapshot: %+v", st.Snapshot)
	}
}

// TestResumeBlobAudit holds Resume to the pointer-lifetime table, one
// subtest per {kind} × {damage} × {cell in / outside the kind's live
// states}. Cell 0 is the subject; cell 1 is a done bystander sharing one
// artifact body with it, and one orphan blob belongs to nobody.
//
// In a live state a damaged blob costs what the table says — artifact: the
// cell re-queues with a fresh attempt budget; snapshot: the pointer drops
// and the in-flight cell restarts cold; profile: the pointer drops and the
// cell stays done — the damaged file is removed, and Recovered() names
// kind and cause. Outside its live states a pointer is cleared silently
// and the blob, damaged or not, falls to the GC with the orphan.
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
		BlobSnapshot: "pointers dropped, cells restart from t=0",
		BlobProfile:  "pointers dropped, cells stay done",
	}
	const shared = "table5: identical across cells"
	for _, kind := range []BlobKind{BlobArtifact, BlobSnapshot, BlobProfile} {
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
					if kind != BlobArtifact {
						if err := q.RecordBlob(job.ID, "w1", job.Attempt,
							BlobRef{Kind: kind, Digest: subject, At: 6 * sim.Hour}); err != nil {
							t.Fatal(err)
						}
					}
					// artifact: live once done; snapshot: live until done;
					// profile: live once done.
					wantState := "queued"
					if live != (kind == BlobSnapshot) {
						digests := map[string]string{"table5": putBody(t, q, shared), "fig9": putBody(t, q, series)}
						if err := q.Complete(job.ID, "w1", job.Attempt, RunResult{Digests: digests}); err != nil {
							t.Fatal(err)
						}
						wantState = "done"
					}
					if kind == BlobSnapshot && !live {
						// Complete reclaimed the blob; put it back, as a crash
						// between the result's fsync and the reclaim leaves it.
						putBody(t, q, "subject of "+name)
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

					damaged := live && cause != "intact"
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

					// The blob survives only intact and pointed at; a damaged
					// file must go so a re-upload is not deduplicated against it.
					wantKept := live && cause == "intact"
					if r.Store().Has(subject) != wantKept {
						t.Errorf("subject blob held = %v, want %v", !wantKept, wantKept)
					}
					if kind != BlobArtifact {
						pointer := st[0].Snapshot
						if kind == BlobProfile {
							pointer = st[0].Profile
						}
						if (pointer != nil) != wantKept {
							t.Errorf("pointer after resume = %+v, want kept = %v", pointer, wantKept)
						}
					}
					if r.Store().Has(orphan) || !strings.Contains(r.Recovered(), "orphan blobs collected") {
						t.Errorf("orphan held = %v, Recovered() = %q; want it collected",
							r.Store().Has(orphan), r.Recovered())
					}

					// The sweep carries on: the subject cell re-books (warm only
					// from an intact live snapshot), re-completes with the same
					// deterministic bodies, and a second resume replays clean.
					if wantState == "queued" {
						rebooked, _, err := r.Book("w2", 1)
						if err != nil || rebooked == nil || rebooked.ID != 0 {
							t.Fatalf("re-book = %+v, %v", rebooked, err)
						}
						if warm := kind == BlobSnapshot && wantKept; (rebooked.Snapshot != nil) != warm {
							t.Errorf("re-booked cell carries %+v, want warm = %v", rebooked.Snapshot, warm)
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
