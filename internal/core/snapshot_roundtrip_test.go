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
// not deterministically re-assemble the captured run.
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
	if _, err := core.RestoreSimulation(cfg, core.Hooks{}, nil); err == nil {
		t.Fatal("restore from nil snapshot succeeded")
	}
}

// TestSnapshotForkBranches restores one snapshot under two configs that
// append different branch injectors: both branches must run to the horizon
// and diverge from each other, while a no-branch restore matches the
// uninterrupted run.
func TestSnapshotForkBranches(t *testing.T) {
	cfg := core.DefaultConfig(13)
	cfg.Scale = 0.02
	cfg.VMs = 300
	cfg.Days = 5

	s, err := core.NewSimulation(cfg, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(2*sim.Day, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	branch := func(inj core.Injector) *core.Simulation {
		t.Helper()
		bcfg := cfg
		if inj != nil {
			bcfg.Injectors = append(append([]core.Injector{}, cfg.Injectors...), inj)
		}
		b, err := core.RestoreSimulation(bcfg, core.Hooks{}, snap)
		if err != nil {
			t.Fatalf("branch restore: %v", err)
		}
		if err := b.AdvanceTo(b.Horizon(), nil); err != nil {
			t.Fatalf("branch run: %v", err)
		}
		return b
	}

	outage := branch(scenario.AZOutage{At: 3 * sim.Day, AZIndex: 0, Duration: 4 * sim.Hour})
	calm := branch(nil)
	if outage.Result().Events.Len() == calm.Result().Events.Len() {
		t.Fatal("outage branch produced the same event stream as the calm branch")
	}

	if err := s.AdvanceTo(s.Horizon(), nil); err != nil {
		t.Fatal(err)
	}
	if d1, d2 := digestOf(t, s), digestOf(t, calm); d1 != d2 {
		t.Fatalf("calm branch diverged from its origin run:\n  origin: %+v\n  branch: %+v", d1, d2)
	}
}
