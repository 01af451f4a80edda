package sapsim

import (
	"fmt"

	"sapsim/internal/engprof"
)

// Profile is the engine self-profiler's per-phase wall-time and work
// attribution for one cell (or, after merging, a whole sweep). It is
// internal/engprof.Profile re-exported: phases cover event dispatch bucketed
// by owner, scheduler filter/weigh/claim, DRS scan/decide, telemetry
// sampling, injector firing, and snapshot encoding. Profiles are wall-clock
// measurements — deliberately excluded from the golden artifact set — and
// their collection never perturbs the simulation's event order or RNG
// stream.
type Profile = engprof.Profile

// ProfileFormatVersion is the profile serialization format this build
// writes and accepts.
const ProfileFormatVersion = engprof.FormatVersion

// EncodeProfileBytes serializes a profile as JSON.
func EncodeProfileBytes(p *Profile) ([]byte, error) { return p.EncodeBytes() }

// DecodeProfileBytes reads and validates a serialized profile, rejecting
// foreign format versions.
func DecodeProfileBytes(b []byte) (*Profile, error) { return engprof.DecodeBytes(b) }

// Profile returns the session's live self-profile: per-phase attribution of
// the wall time and work spent so far. It is valid on a built, running, or
// finished session between driving calls; each call snapshots the current
// counters, so a supervisor polling mid-run sees monotonically growing
// phases.
func (s *Session) Profile() (*Profile, error) {
	switch s.state {
	case StateNew:
		if err := s.Build(); err != nil {
			return nil, err
		}
	case StateBuilt, StateRunning, StateDone:
	default:
		return nil, fmt.Errorf("sapsim: Profile on %s session", s.state)
	}
	return s.sim.Result().Profile, nil
}
