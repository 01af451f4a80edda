package sapsim

import (
	"errors"
	"reflect"
	"testing"

	"sapsim/internal/core"
	"sapsim/internal/engprof"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

// snapshotTestConfig exercises the snapshot-relevant machinery: an injector
// with recovery closures plus the default DRS and resize churn.
func snapshotTestConfig(seed uint64) Config {
	cfg := sessionTestConfig(seed)
	cfg.Injectors = []core.Injector{
		scenario.HostFailures{At: 8 * sim.Hour, Fraction: 0.1, Recover: 6 * sim.Hour, Salt: 3},
	}
	return cfg
}

// TestSessionSnapshotOnDemand: periodic snapshotting is Step and Snapshot
// interleaved by the caller. Each of k captures reaches an observer as one
// snapshot-capture phase and the profile as one snapshot/encode op, each
// snapshot resumes to the uninterrupted run's artifact digests, and a done
// session refuses to snapshot.
func TestSessionSnapshotOnDemand(t *testing.T) {
	cfg := snapshotTestConfig(11)
	coldRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldDigests, err := ArtifactDigests(coldRes)
	if err != nil {
		t.Fatal(err)
	}

	col := &collector{}
	s, err := NewSession(cfg, WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const k, ticks = 3, 24 // 12h, 24h, 36h of a 48h run
	var snaps []*Snapshot
	for i := 0; i < k; i++ {
		if _, err := s.Step(ticks); err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if want := sim.Time(i+1) * ticks * cfg.SampleEvery; snap.At != want {
			t.Fatalf("snapshot %d at %v, want %v", i, snap.At, want)
		}
		snaps = append(snaps, snap)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("Snapshot on a done session accepted")
	}

	// The finished session has drained its observers.
	var captures []SessionPhase
	for _, ev := range col.snapshot() {
		if ph, ok := ev.(SessionPhase); ok && ph.Name == "snapshot-capture" {
			captures = append(captures, ph)
		}
	}
	if len(captures) != k {
		t.Fatalf("observer saw %d snapshot-capture phases, want %d", len(captures), k)
	}
	for i, ph := range captures {
		if ph.FromSim != snaps[i].At || ph.ToSim != snaps[i].At {
			t.Errorf("capture phase %d spans %v..%v, want %v", i, ph.FromSim, ph.ToSim, snaps[i].At)
		}
	}
	prof, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if c := prof.Phase(engprof.PhaseSnapshotEncode); c.Ops != k || c.Count != k {
		t.Fatalf("snapshot/encode = %d ops in %d spans, want %d each", c.Ops, c.Count, k)
	}

	for i, snap := range snaps {
		resumed, err := ResumeFromSnapshot(cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		defer resumed.Close()
		if err := resumed.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		res, err := resumed.Result()
		if err != nil {
			t.Fatal(err)
		}
		digests, err := ArtifactDigests(res)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(digests, coldDigests) {
			t.Errorf("resume from snapshot %d (at %v) diverged from the uninterrupted run", i, snap.At)
		}
	}
}

// TestSessionResumeEquivalence: snapshot a session mid-run, round-trip the
// snapshot through its wire form, resume a new session from it — every
// artifact digest must match the uninterrupted run.
func TestSessionResumeEquivalence(t *testing.T) {
	cfg := snapshotTestConfig(12)
	coldRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldDigests, err := ArtifactDigests(coldRes)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, err := warm.Step(24); err != nil { // 12h of a 48h run
		t.Fatal(err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeSnapshotBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshotBytes(blob)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := ResumeFromSnapshot(cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if now := resumed.Now(); now != cfg.Horizon() {
		t.Fatalf("resumed session ended at %v, want horizon %v", now, cfg.Horizon())
	}
	res, err := resumed.Result()
	if err != nil {
		t.Fatal(err)
	}
	digests, err := ArtifactDigests(res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(digests, coldDigests) {
		for id, d := range digests {
			if coldDigests[id] != d {
				t.Errorf("artifact %s diverged after resume", id)
			}
		}
		t.Fatal("resumed run is not byte-identical to the cold run")
	}
}

// TestResumedSessionObservesOnlyItsTail: a resumed session replays the
// captured prefix with its observers muted. They see no placement or
// migration before the snapshot, no progress before it, and after it
// exactly the stream the uninterrupted session's observers saw.
func TestResumedSessionObservesOnlyItsTail(t *testing.T) {
	cfg := snapshotTestConfig(15)
	warmCol := &collector{}
	warm, err := NewSession(cfg, WithObserver(warmCol))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, err := warm.Step(24); err != nil { // 12h of a 48h run
		t.Fatal(err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.RunToCompletion(); err != nil {
		t.Fatal(err)
	}

	col := &collector{}
	resumed, err := ResumeFromSnapshot(cfg, snap, WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.RunToCompletion(); err != nil {
		t.Fatal(err)
	}

	var want []SessionEvent
	for _, ev := range warmCol.snapshot() {
		switch e := ev.(type) {
		case Placement:
			if e.At > snap.At {
				want = append(want, e)
			}
		case Migration:
			if e.At > snap.At {
				want = append(want, e)
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("the uninterrupted run streamed nothing after the snapshot; the test exercises nothing")
	}
	var got []SessionEvent
	var progress []sim.Time
	for _, ev := range col.snapshot() {
		switch e := ev.(type) {
		case Placement:
			if e.At < snap.At {
				t.Errorf("resumed observer got a placement at %v, before the snapshot at %v", e.At, snap.At)
			}
			got = append(got, e)
		case Migration:
			if e.At < snap.At {
				t.Errorf("resumed observer got a migration at %v, before the snapshot at %v", e.At, snap.At)
			}
			got = append(got, e)
		case Progress:
			progress = append(progress, e.Now)
		}
	}
	if len(progress) == 0 || progress[0] != snap.At {
		t.Errorf("resumed observer's first progress at %v, want the snapshot's %v", progress, snap.At)
	}
	for _, now := range progress {
		if now < snap.At {
			t.Errorf("resumed observer got progress at %v, before the snapshot at %v", now, snap.At)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed observer got %d placements and migrations, the uninterrupted run streamed %d after the snapshot",
			len(got), len(want))
	}
}

func TestSnapshotOptionValidation(t *testing.T) {
	cfg := sessionTestConfig(14)
	if _, err := ResumeFromSnapshot(cfg, nil); err == nil {
		t.Error("nil snapshot accepted by ResumeFromSnapshot")
	}

	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, err := s.Snapshot() // builds lazily, snapshot at t=0
	if err != nil {
		t.Fatal(err)
	}
	if snap.At != 0 {
		t.Fatalf("fresh-session snapshot at %v, want 0", snap.At)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("Snapshot on a done session accepted")
	}

	// A mismatching config is refused at Build through the fingerprint.
	other := cfg
	other.Seed = 99
	bad, err := ResumeFromSnapshot(other, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := bad.Build(); err == nil {
		t.Error("resume under a different seed accepted")
	}

	// So is a config with one injector more than the captured run: a
	// what-if is a cold run of its own config, not a resume.
	more := cfg
	more.Injectors = []Injector{scenario.AZOutage{At: 20 * sim.Hour, AZIndex: 0, Duration: 4 * sim.Hour}}
	extra, err := ResumeFromSnapshot(more, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	if err := extra.Build(); err == nil {
		t.Error("resume with an added injector accepted")
	}

	// Corruption surfaces as ErrSnapshotCorrupt.
	blob, err := EncodeSnapshotBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x40
	if _, err := DecodeSnapshotBytes(blob); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("bit-flipped snapshot decoded: %v", err)
	}
	if _, err := DecodeSnapshotBytes(blob[:60]); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("truncated snapshot decoded: %v", err)
	}
}
