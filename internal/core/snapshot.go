package core

import (
	"errors"
	"fmt"
	"strings"

	"sapsim/internal/engprof"
	"sapsim/internal/events"
	"sapsim/internal/sim"
	"sapsim/internal/snapshot"
)

// fingerprint identifies the deterministic re-assembly a snapshot belongs
// to: every config knob that shapes the instance sequence, the event
// wiring, or an RNG stream, plus the name of every injector. Injector
// parameters are the caller's responsibility — a restore against a
// same-named injector with different settings silently replays a different
// scenario.
func fingerprint(cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d scale=%g vms=%d days=%d sample=%d vmsample=%d",
		cfg.Seed, cfg.Scale, cfg.VMs, cfg.Days, cfg.SampleEvery, cfg.VMSampleEvery)
	fmt.Fprintf(&b, " drs=%t/%d cross=%t vmmetrics=%t contention=%t holistic=%t resize=%g",
		cfg.DRS, cfg.DRSEvery, cfg.CrossBB, cfg.RecordVMMetrics,
		weighsContention(cfg), cfg.HolisticNodeFit, cfg.ResizeRate)
	fmt.Fprintf(&b, " esx=%+v", cfg.ESX)
	fmt.Fprintf(&b, " phases=%+v", cfg.ArrivalPhases)
	for _, inj := range cfg.Injectors {
		fmt.Fprintf(&b, " inj=%s", inj.Name())
	}
	return b.String()
}

// Snapshot records the simulation's replay point at the current
// engine-idle boundary: the clock, the number of events fired, and the
// config fingerprint. It must be called between AdvanceTo segments, never
// from inside a handler. Every capture is attributed to the profile's
// snapshot/encode phase, one op each.
func (s *Simulation) Snapshot() (*snapshot.Snapshot, error) {
	if s.finalized {
		return nil, errors.New("core: cannot snapshot a finished simulation")
	}
	mark := s.prof.Start()
	snap := &snapshot.Snapshot{
		At:          s.engine.Now(),
		Fired:       s.engine.Fired(),
		Fingerprint: fingerprint(s.cfg),
	}
	s.prof.EndSpan(engprof.PhaseSnapshotEncode, mark, 1)
	return snap, nil
}

// RestoreSimulation rebuilds a running simulation from a snapshot by
// replay. The config must be exactly the captured one: its fingerprint,
// which names every injector, must match the snapshot's, so a config with an
// injector added or dropped is refused. The simulation is assembled cold and
// driven to snap.At with the hooks muted; a replay that arrives there after
// a different number of events is refused. The restored run continues
// bit-identically to the uninterrupted one.
func RestoreSimulation(cfg Config, hooks Hooks, snap *snapshot.Snapshot) (*Simulation, error) {
	if snap == nil {
		return nil, errors.New("core: restore from nil snapshot")
	}
	if got := fingerprint(cfg); got != snap.Fingerprint {
		return nil, fmt.Errorf("core: snapshot fingerprint mismatch:\n  config:   %s\n  snapshot: %s",
			got, snap.Fingerprint)
	}
	// The observers saw the replayed prefix when the captured run made it.
	replaying := snap.Fired > 0
	muted := hooks
	if hooks.OnEvent != nil {
		muted.OnEvent = func(e events.Event) {
			if !replaying {
				hooks.OnEvent(e)
			}
		}
	}
	if hooks.OnTick != nil {
		muted.OnTick = func(now sim.Time) {
			if !replaying {
				hooks.OnTick(now)
			}
		}
	}
	s, err := NewSimulation(cfg, muted)
	if err != nil {
		return nil, err
	}
	if replaying {
		if err := s.AdvanceTo(snap.At, nil); err != nil {
			return nil, fmt.Errorf("core: restore replay: %w", err)
		}
		replaying = false
	}
	if s.finalized || s.Now() != snap.At || s.FiredEvents() != snap.Fired {
		return nil, fmt.Errorf("core: restore replay reached %v after %d events, snapshot is at %v after %d",
			s.Now(), s.FiredEvents(), snap.At, snap.Fired)
	}
	return s, nil
}
