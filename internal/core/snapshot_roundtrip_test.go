package core_test

import (
	"reflect"
	"testing"

	"sapsim/internal/core"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
	"sapsim/internal/snapshot"
)

// roundtripConfig is a small but fully featured run: DRS, cross-BB
// rebalancing, resize churn, and one injector of every snapshot-relevant
// shape (one-shot with recovery closures, a live RNG stream, inject-time
// topology mutation, staggered drains).
func roundtripConfig() core.Config {
	cfg := core.DefaultConfig(7)
	cfg.Scale = 0.02
	cfg.VMs = 400
	cfg.Days = 6
	cfg.CrossBB = true
	cfg.Injectors = []core.Injector{
		scenario.HostFailures{At: 2 * sim.Day, Fraction: 0.05, Recover: 8 * sim.Hour, Salt: 11},
		scenario.CascadingFailures{Start: 3 * sim.Day, Duration: sim.Day, BaseProb: 0.002, Recover: 6 * sim.Hour, Salt: 5},
		scenario.CapacityExpansion{At: 4 * sim.Day, Blocks: 2, Every: sim.Day / 2, Salt: 3},
		scenario.MaintenanceDrain{At: 30 * sim.Hour, BBIndex: 1},
		scenario.ResizeWave{At: 5 * sim.Day, Fraction: 0.1, Salt: 9},
	}
	return cfg
}

// fingerprintResult reduces a finished run to everything the round-trip
// must preserve bit-for-bit.
type resultDigest struct {
	Events            int
	LastEventAt       sim.Time
	PlacementFailures int
	Resizes           int
	DRSMigrations     int
	CrossBBMoves      int
	Scheduled         int
	Failed            int
	Retries           int
	SeriesCount       int
	SampleCount       int
	VMs               int
	Fired             uint64
}

func digestOf(t *testing.T, s *core.Simulation) resultDigest {
	t.Helper()
	res := s.Result()
	d := resultDigest{
		Events:            res.Events.Len(),
		PlacementFailures: res.PlacementFailures,
		Resizes:           res.Resizes,
		DRSMigrations:     res.DRSMigrations,
		CrossBBMoves:      res.CrossBBMoves,
		Scheduled:         res.SchedStats.Scheduled,
		Failed:            res.SchedStats.Failed,
		Retries:           res.SchedStats.Retries,
		SeriesCount:       res.Store.SeriesCount(),
		SampleCount:       res.Store.SampleCount(),
		VMs:               len(res.VMs),
		Fired:             s.FiredEvents(),
	}
	if all := res.Events.All(); len(all) > 0 {
		d.LastEventAt = all[len(all)-1].At
	}
	return d
}

// TestSnapshotRestoreContinuesIdentically snapshots a run mid-flight,
// round-trips the snapshot through its serialized form, restores a new
// simulation from it, and runs both to the horizon: every counter, the
// event log, and the telemetry store must match the uninterrupted run
// exactly.
func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	cfg := roundtripConfig()

	cold, err := core.NewSimulation(cfg, core.Hooks{})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if err := cold.AdvanceTo(cold.Horizon(), nil); err != nil {
		t.Fatalf("cold run: %v", err)
	}

	warm, err := core.NewSimulation(cfg, core.Hooks{})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	mid := cfg.Horizon() / 2
	if err := warm.AdvanceTo(mid, nil); err != nil {
		t.Fatalf("warm first half: %v", err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	blob, err := snapshot.EncodeBytes(snap)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := snapshot.DecodeBytes(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	restored, err := core.RestoreSimulation(cfg, core.Hooks{}, decoded)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := restored.Now(); got != mid {
		t.Fatalf("restored clock = %v, want %v", got, mid)
	}
	if err := restored.AdvanceTo(restored.Horizon(), nil); err != nil {
		t.Fatalf("restored second half: %v", err)
	}

	want, got := digestOf(t, cold), digestOf(t, restored)
	if want != got {
		t.Fatalf("restored run diverged:\n  cold:     %+v\n  restored: %+v", want, got)
	}
	coldEvents, restoredEvents := cold.Result().Events.All(), restored.Result().Events.All()
	for i := range coldEvents {
		if coldEvents[i] != restoredEvents[i] {
			t.Fatalf("event %d diverged:\n  cold:     %+v\n  restored: %+v",
				i, coldEvents[i], restoredEvents[i])
		}
	}
	// Series creation order is part of the comparison: it is what Select
	// and a later snapshot expose.
	if !reflect.DeepEqual(cold.Result().Store.Dump(), restored.Result().Store.Dump()) {
		t.Fatal("telemetry stores diverged")
	}
	if !reflect.DeepEqual(cold.Result().SchedStats.Eliminated, restored.Result().SchedStats.Eliminated) {
		t.Fatal("filter elimination counters diverged")
	}
}

// TestSnapshotFingerprintGuards verifies Restore refuses configs that do
// not deterministically re-assemble the captured run: another seed, an
// injector fewer, or an injector more.
func TestSnapshotFingerprintGuards(t *testing.T) {
	cfg := roundtripConfig()
	s, err := core.NewSimulation(cfg, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(sim.Day, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Seed = 8
	if _, err := core.RestoreSimulation(bad, core.Hooks{}, snap); err == nil {
		t.Fatal("restore with different seed succeeded")
	}
	fewer := cfg
	fewer.Injectors = cfg.Injectors[:2]
	if _, err := core.RestoreSimulation(fewer, core.Hooks{}, snap); err == nil {
		t.Fatal("restore with dropped injectors succeeded")
	}
	more := cfg
	more.Injectors = append(append([]core.Injector{}, cfg.Injectors...),
		scenario.AZOutage{At: 3 * sim.Day, AZIndex: 0, Duration: 4 * sim.Hour})
	if _, err := core.RestoreSimulation(more, core.Hooks{}, snap); err == nil {
		t.Fatal("restore with an added injector succeeded")
	}
	if _, err := core.RestoreSimulation(cfg, core.Hooks{}, nil); err == nil {
		t.Fatal("restore from nil snapshot succeeded")
	}
}

// TestRestoreRefusesMiscountedReplay: the replay must reach the snapshot's
// time after exactly the snapshot's number of events. A count off by one in
// either direction is a different run, and restore refuses it.
func TestRestoreRefusesMiscountedReplay(t *testing.T) {
	cfg := roundtripConfig()
	cfg.Days = 2
	s, err := core.NewSimulation(cfg, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(sim.Day, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fired != s.FiredEvents() || snap.Fired == 0 {
		t.Fatalf("snapshot records %d fired events, simulation fired %d", snap.Fired, s.FiredEvents())
	}
	if _, err := core.RestoreSimulation(cfg, core.Hooks{}, snap); err != nil {
		t.Fatalf("restore of the true count: %v", err)
	}
	for _, delta := range []int64{-1, 1} {
		bad := *snap
		bad.Fired = uint64(int64(snap.Fired) + delta)
		if _, err := core.RestoreSimulation(cfg, core.Hooks{}, &bad); err == nil {
			t.Errorf("restore with Fired %+d accepted", delta)
		}
	}
}
