package sapsim

import (
	"errors"
	"fmt"
	"time"

	"sapsim/internal/core"
	"sapsim/internal/snapshot"
)

// Snapshot is the complete mid-run state of a simulation, captured at an
// engine-idle boundary. It is internal/snapshot.Snapshot re-exported: a
// versioned, digest-stamped value that serializes with EncodeSnapshotBytes and
// restores through ResumeFromSnapshot or Fork.
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
// SHA-256 digest stamp, and gob payload. Bit flips and truncation are
// detectable without decoding.
func EncodeSnapshotBytes(s *Snapshot) ([]byte, error) { return snapshot.EncodeBytes(s) }

// DecodeSnapshotBytes reads and verifies an encoded snapshot. Corruption
// surfaces as ErrSnapshotCorrupt, a foreign format version as
// ErrSnapshotVersion.
func DecodeSnapshotBytes(b []byte) (*Snapshot, error) { return snapshot.DecodeBytes(b) }

// Snapshot captures the session's complete current state on demand. It is
// valid on a built or running session between driving calls (Step,
// RunToCompletion) — the engine is idle there — and errors once the session
// is done, canceled, or failed. Building a new session from the returned
// snapshot (ResumeFromSnapshot, Fork) continues the run bit-identically.
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

// Name reports the branch name for a session produced by Fork, empty
// otherwise.
func (s *Session) Name() string { return s.name }

// ResumeFromSnapshot builds a session that continues a captured run from
// its snapshot instead of t=0. cfg must re-assemble the captured run
// deterministically: same seed, scale, and topology, and its first
// snap.NumInjectors injectors must be the captured ones (Build enforces the
// snapshot's config fingerprint). Injectors appended beyond the captured
// set are injected fresh at the snapshot time — that is the branching
// mechanism Fork wraps.
//
// A resumed session reproduces the uninterrupted run exactly: artifacts
// computed from its Result are byte-identical to running cfg from t=0.
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

// Branch names one speculative continuation of a snapshot: the base
// config's injectors plus the branch's own, injected at the snapshot time.
// An empty injector list replays the base run unchanged.
type Branch struct {
	Name      string
	Injectors []Injector
}

// Fork builds one independent session per branch from a single snapshot —
// speculative scenario branching: run the shared prefix once, then explore
// divergent futures from the same warm state. Branch sessions share nothing
// but the immutable snapshot; they may be driven sequentially or from
// separate goroutines. The options apply to every branch.
//
// Branch divergence comes from the appended injectors (including their
// salts); the workload, topology, and everything already in flight at the
// snapshot are common to all branches by construction.
func Fork(cfg Config, snap *Snapshot, branches []Branch, opts ...Option) ([]*Session, error) {
	if snap == nil {
		return nil, errors.New("sapsim: Fork from nil snapshot")
	}
	if len(branches) == 0 {
		return nil, errors.New("sapsim: Fork with no branches")
	}
	out := make([]*Session, 0, len(branches))
	for i, b := range branches {
		bcfg := cfg
		if len(b.Injectors) > 0 {
			bcfg.Injectors = append(append([]Injector{}, cfg.Injectors...), b.Injectors...)
		}
		bs, err := ResumeFromSnapshot(bcfg, snap, opts...)
		if err != nil {
			return nil, fmt.Errorf("sapsim: fork branch %d (%s): %w", i, b.Name, err)
		}
		bs.name = b.Name
		out = append(out, bs)
	}
	return out, nil
}
