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
)

// TestResumeBlobAudit holds Resume to what each kind of blob a result
// names costs, one subtest per {kind} × {damage} × {completion landed or
// not}. Cell 0 is the subject; cell 1 is a done bystander sharing one
// artifact body with it, and one orphan blob belongs to nobody.
//
// Once the subject's result names the blob (live), damage costs what the
// kind says — artifact: the cell re-queues with a fresh attempt budget;
// profile: the result drops the digest and the cell stays done — the
// damaged file is removed, and Recovered() names kind and cause. An upload
// whose completion never landed (not live) is named by no result: the
// cell is re-queued as in flight, nothing is audited or reported, and the
// blob, damaged or not, falls to the GC with the orphan.
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
	cost := map[string]string{
		"artifact": "cells requeued",
		"profile":  "pointers dropped, cells stay done",
	}
	const shared = "table5: identical across cells"
	for _, kind := range []string{"artifact", "profile"} {
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

					// Put the subject blob behind cell 0, and complete the
					// cell with a result that names it (or leave it booked).
					subject := putBody(t, q, "subject of "+name)
					series := "subject's series"
					if kind == "artifact" {
						series = "subject of " + name
					}
					run := RunResult{Digests: map[string]string{"table5": putBody(t, q, shared), "fig9": putBody(t, q, series)}}
					if kind == "profile" {
						run.Profile = subject
					}
					wantState := "queued"
					if live {
						if err := q.Complete(job.ID, "w1", job.Attempt, run); err != nil {
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

					damaged := live && cause != "intact"
					if damaged && kind == "artifact" {
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
					if !damaged && strings.Contains(r.Recovered(), kind+" blobs") {
						t.Errorf("Recovered() = %q reports %s damage; want none", r.Recovered(), kind)
					}
					if strings.Contains(r.Recovered(), "corrupt lines") {
						t.Errorf("Recovered() = %q counts a corrupt line; want none", r.Recovered())
					}

					// The blob survives only intact and named; a damaged file
					// must go so a re-upload is not deduplicated against it.
					wantKept := live && cause == "intact"
					if r.Store().Has(subject) != wantKept {
						t.Errorf("subject blob held = %v, want %v", !wantKept, wantKept)
					}
					if kind == "profile" && (st[0].Profile == subject) != wantKept {
						t.Errorf("profile after resume = %q, want kept = %v", st[0].Profile, wantKept)
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

// TestOldJournalsFailLoudly: journal format v7 has no reader for older
// formats. A sweep directory written by an older build is refused by
// Resume and by TraceFromJournal with an error that names both versions
// and says what to do — and nothing in the directory is touched.
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
