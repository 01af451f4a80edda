package sapsim

import (
	"fmt"
	"io"

	"sapsim/internal/engprof"
	"sapsim/internal/sim"
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

// ProfileReady delivers the finished run's self-profile, emitted once when
// the session reaches the horizon.
type ProfileReady struct {
	At      sim.Time
	Profile *Profile
}

func (ProfileReady) sessionEvent() {}

// EncodeProfile serializes a profile as JSON.
func EncodeProfile(w io.Writer, p *Profile) error { return p.Encode(w) }

// EncodeProfileBytes is EncodeProfile into a fresh byte slice.
func EncodeProfileBytes(p *Profile) ([]byte, error) { return p.EncodeBytes() }

// DecodeProfile reads and validates a serialized profile, rejecting foreign
// format versions.
func DecodeProfile(r io.Reader) (*Profile, error) { return engprof.Decode(r) }

// DecodeProfileBytes is DecodeProfile from a byte slice.
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

// snapshotBudgetPct is the ceiling on snapshot-encode cost as a share of
// the run's measured engine time before the session stretches its snapshot
// cadence, and maxSnapshotStretch caps how far the configured interval can
// stretch (so a supervisor's resume-lag bound degrades gracefully instead
// of unboundedly).
const (
	snapshotBudgetPct  = 2
	maxSnapshotStretch = 8
	// snapshotStretchFloorNanos is the cumulative capture cost below which
	// the budget check is moot: stretching exists to reclaim material wall
	// time, and tiny cells — where a sub-millisecond capture can dwarf an
	// even cheaper simulated interval by percentage — should keep their
	// configured (and test-asserted) cadence.
	snapshotStretchFloorNanos = 50e6
)

// stretchSnapshotEvery decides the session's next snapshot interval: when
// cumulative snapshot-capture cost exceeds snapshotBudgetPct of the run's
// accounted engine time, the current interval doubles (capped at
// maxSnapshotStretch × the configured base). It fires on both real cell
// sizes, because capture copies every stored sample (Store.Dump) and so
// costs O(samples so far): measured at a 6 h cadence, the default 30-day
// cell reaches the 8× cap and takes 18–19 snapshots instead of 119, with
// capture still 30–40% of accounted engine time, and cmd/sweep's default
// cell takes 10–14 instead of 39; only cells whose total capture stays under
// snapshotStretchFloorNanos (the six-day 0.01-scale dispatch cell, 23
// snapshots, ≈ 34 ms) keep their configured cadence. The stretch is
// load-bearing until capture stops being O(samples). The decision reads only
// the profiler's wall-clock counters, so it cannot perturb simulated event
// order.
func stretchSnapshotEvery(base, current sim.Time, encodeNanos, accountedNanos int64) sim.Time {
	if encodeNanos < snapshotStretchFloorNanos {
		return current
	}
	if accountedNanos <= 0 || encodeNanos*100 <= accountedNanos*snapshotBudgetPct {
		return current
	}
	stretched := current * 2
	if cap := base * maxSnapshotStretch; stretched > cap {
		stretched = cap
	}
	return stretched
}
