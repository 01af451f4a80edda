package sapsim

import (
	"errors"
	"fmt"
	"time"

	"sapsim/internal/core"
	"sapsim/internal/snapshot"
)

// Snapshot is a replay point of a simulation, taken at an engine-idle
// boundary: the simulated time, the number of events fired by then, and the
// config fingerprint. It is internal/snapshot.Snapshot re-exported: a
// versioned, digest-stamped value that serializes with EncodeSnapshotBytes and
// restores through ResumeFromSnapshot, which rebuilds the state by replaying
// the run to that point.
type Snapshot = snapshot.Snapshot

// Injector is a scenario hook wired into the assembled simulation. It is
// core.Injector re-exported; the implementations live in internal/scenario.
type Injector = core.Injector

// SnapshotFormatVersion is the serialization format version this build
// writes and accepts. DecodeSnapshotBytes rejects other versions with
// ErrSnapshotVersion.
const SnapshotFormatVersion = snapshot.FormatVersion

// ErrSnapshotCorrupt reports a snapshot stream that failed its integrity
// checks: bad magic, digest mismatch, truncation, or a malformed payload.
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// ErrSnapshotVersion reports a structurally sound snapshot written by an
// incompatible format version.
var ErrSnapshotVersion = snapshot.ErrVersion

// EncodeSnapshotBytes serializes a snapshot: framed magic, format version,
// SHA-256 digest stamp, and gob payload — a few hundred bytes whatever the
// cell's size. Bit flips and truncation are detectable without decoding.
func EncodeSnapshotBytes(s *Snapshot) ([]byte, error) { return snapshot.EncodeBytes(s) }

// DecodeSnapshotBytes reads and verifies an encoded snapshot. Corruption
// surfaces as ErrSnapshotCorrupt, a foreign format version as
// ErrSnapshotVersion.
func DecodeSnapshotBytes(b []byte) (*Snapshot, error) { return snapshot.DecodeBytes(b) }

// Snapshot records the session's current replay point on demand. It is
// valid on a built or running session between driving calls (Step,
// RunToCompletion) — the engine is idle there — and errors once the session
// is done, canceled, or failed. Building a new session from the returned
// snapshot (ResumeFromSnapshot) replays the run to that point and continues
// it bit-identically.
func (s *Session) Snapshot() (*Snapshot, error) {
	switch s.state {
	case StateNew:
		if err := s.Build(); err != nil {
			return nil, err
		}
	case StateBuilt, StateRunning:
	default:
		return nil, fmt.Errorf("sapsim: Snapshot on %s session", s.state)
	}
	var start time.Time
	if s.disp != nil {
		start = time.Now()
	}
	snap, err := s.sim.Snapshot()
	if err == nil && s.disp != nil {
		s.disp.publish(SessionPhase{Name: "snapshot-capture", Start: start, End: time.Now(),
			FromSim: snap.At, ToSim: snap.At})
	}
	return snap, err
}

// ResumeFromSnapshot builds a session that continues a captured run from
// its snapshot. cfg must be exactly the captured config: same seed, scale,
// topology and injectors (Build enforces the snapshot's config
// fingerprint, so a config with an injector more or less is refused). Build
// replays the run from t=0 to the snapshot with the observers muted, and
// fails unless the replay fired exactly the snapshot's number of events. A
// what-if with a different injector is a cold run of its own config.
//
// A resumed session reproduces the uninterrupted run exactly: artifacts
// computed from its Result are byte-identical to running cfg from t=0, and
// its observers see the run from the snapshot on.
func ResumeFromSnapshot(cfg Config, snap *Snapshot, opts ...Option) (*Session, error) {
	if snap == nil {
		return nil, errors.New("sapsim: ResumeFromSnapshot from nil snapshot")
	}
	s, err := NewSession(cfg, opts...)
	if err != nil {
		return nil, err
	}
	s.resume = snap
	return s, nil
}
