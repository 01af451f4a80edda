package sapsim

import (
	"math"
	"runtime"
	"testing"

	"sapsim/internal/engprof"
)

// TestSessionProfile: a finished session carries a valid self-profile whose
// top-level phases account for its measured engine time, and the wire
// round trip preserves it.
func TestSessionProfile(t *testing.T) {
	col := &collector{}
	cfg := snapshotTestConfig(21)
	s, err := NewSession(cfg, WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Step(24); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	p, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("finished session has nil profile")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Events == 0 || p.AccountedNanos <= 0 {
		t.Fatalf("profile saw %d events, %d ns accounted; want both positive", p.Events, p.AccountedNanos)
	}
	// The attribution criterion: top-level phases must cover at least 90% of
	// the accounted cell time (by construction they cover 100%; the check
	// guards the envelope against a future phase being dropped from the sum).
	if top := p.TopLevelNanos(); top*10 < p.AccountedNanos*9 {
		t.Fatalf("top-level phases cover %d of %d accounted ns (<90%%)", top, p.AccountedNanos)
	}
	for _, ph := range []engprof.Phase{engprof.PhaseBuild, engprof.PhaseHostSample, engprof.PhaseSnapshotEncode} {
		if c := p.Phase(ph); c.Count == 0 {
			t.Errorf("phase %s never observed", ph)
		}
	}
	if c := p.Phase(engprof.PhaseInject); c.Count == 0 {
		t.Error("injector firings not attributed despite configured HostFailures")
	}

	b, err := EncodeProfileBytes(p)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := DecodeProfileBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if rt.AccountedNanos != p.AccountedNanos || rt.Events != p.Events || len(rt.Owners) != len(p.Owners) {
		t.Fatal("profile wire round trip lost data")
	}
}

// TestSessionProfileMidRun: Profile is readable between driving calls and
// grows monotonically.
func TestSessionProfileMidRun(t *testing.T) {
	s, err := NewSession(sessionTestConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Step(4); err != nil {
		t.Fatal(err)
	}
	early, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	late, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if late.Events <= early.Events || late.AccountedNanos <= early.AccountedNanos {
		t.Fatalf("profile did not grow: events %d -> %d, nanos %d -> %d",
			early.Events, late.Events, early.AccountedNanos, late.AccountedNanos)
	}
}

// TestSamplingWorkGate pins, without a stopwatch, how much work the hot
// phases do on the golden cell. The sampling tick: samples written per sweep
// family (8 per sampled host per tick; 2 per placed VM plus 1 per VM tick),
// series and samples that reached the store, and resident-set walks
// (snapshot-cache misses — the cache serves the VM sweep and DRS at a shared
// instant, per-VM demand included, so no VM read falls back to its profile),
// and the bytes the store holds per sample. Placement and
// rebalancing: candidates the scheduler filtered, claim attempts including
// retries, hosts DRS scanned, and engine events fired. All are deterministic
// per seed. A change that drops or duplicates
// samples, re-walks a host's VMs per metric or per consumer, re-filters or
// re-scans more than before, or schedules extra events fails here. The
// bytes the whole run allocates are pinned within ±2% (re-pin that row when
// the toolchain changes): a sweep that allocates per sample fails it.
func TestSamplingWorkGate(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	_, misses := res.Fleet.SnapshotCacheStats()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"sample/hosts ops", res.Profile.Phase(engprof.PhaseHostSample).Ops, 921920},
		{"sample/vms ops", res.Profile.Phase(engprof.PhaseVMSample).Ops, 362913},
		{"store series", int64(res.Store.SeriesCount()), 3857},
		{"store samples", int64(res.Store.SampleCount()), 921920 + 362913},
		{"snapshot-cache misses", int64(misses), 115720},
		{"snapshot-cache fallbacks", int64(res.Fleet.SnapshotFallbacks()), 0},
		{"sched/filter ops", res.Profile.Phase(engprof.PhaseSchedFilter).Ops, 20079},
		{"sched/claim ops", res.Profile.Phase(engprof.PhaseSchedClaim).Ops, 2663},
		{"drs/scan ops", res.Profile.Phase(engprof.PhaseDRSScan).Ops, 11697},
		{"fired events", res.Profile.Events, 5590},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	// The store's footprint, also without a stopwatch: 8 bytes per sample
	// and at most 6% of unfilled chunk tails. A sampler-written series that
	// leaves its grid (16 bytes per sample) or chunks that reserve ahead
	// fail here.
	if bytes, samples := res.Store.Bytes(), res.Store.SampleCount(); float64(bytes) > 8.5*float64(samples) {
		t.Errorf("store holds %d bytes for %d samples (%.2f per sample), want at most 8.5",
			bytes, samples, float64(bytes)/float64(samples))
	}
	if raceEnabled {
		return // the race detector's shadow allocations move the byte count
	}
	const wantAlloc = 18.2e6
	if got := float64(after.TotalAlloc - before.TotalAlloc); math.Abs(got-wantAlloc) > 0.02*wantAlloc {
		t.Errorf("run allocated %.1f MB, want %.1f MB ±2%%", got/1e6, wantAlloc/1e6)
	}
}

// TestChurnWorkGate is the work gate's place_churn-shaped row: resize picks,
// DRS and cross-BB scans, Nova filtering, claims and retries on a small churn
// cell, as exact counts, plus the bytes the whole run allocates within ±2%
// (re-pin that row when the toolchain changes). A resize pick that re-sorts
// the fleet fails the allocation row; a re-filter, an extra scan or a moved
// RNG draw fails a counter row.
func TestChurnWorkGate(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(churnGateConfig())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"fired events", res.Profile.Events, 15609},
		{"resizes", int64(res.Resizes), 461},
		{"resize phase count", res.Profile.Phase(engprof.PhaseResize).Count, 30},
		{"drs/scan ops", res.Profile.Phase(engprof.PhaseDRSScan).Ops, 16063},
		{"sched/filter ops", res.Profile.Phase(engprof.PhaseSchedFilter).Ops, 153552},
		{"sched/claim ops", res.Profile.Phase(engprof.PhaseSchedClaim).Ops, 19695},
		{"sched retries", int64(res.SchedStats.Retries), 11543},
		{"sched failures", int64(res.SchedStats.Failed), 4644},
		{"placement failures", int64(res.PlacementFailures), 4385},
		{"DRS migrations", int64(res.DRSMigrations), 657},
		{"cross-BB moves", int64(res.CrossBBMoves), 88},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if raceEnabled {
		return // the race detector's shadow allocations move the byte count
	}
	const wantAlloc = 23.5e6
	if got := float64(after.TotalAlloc - before.TotalAlloc); math.Abs(got-wantAlloc) > 0.02*wantAlloc {
		t.Errorf("run allocated %.1f MB, want %.1f MB ±2%%", got/1e6, wantAlloc/1e6)
	}
}
