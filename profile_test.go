package sapsim

import (
	"testing"

	"sapsim/internal/engprof"
	"sapsim/internal/sim"
)

// TestSessionProfile: a finished session carries a valid self-profile whose
// top-level phases account for its measured engine time, a ProfileReady
// event delivers it, and the wire round trip preserves it.
func TestSessionProfile(t *testing.T) {
	col := &collector{}
	cfg := snapshotTestConfig(21)
	s, err := NewSession(cfg, WithObserver(col), WithSnapshotEvery(12*sim.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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

	var ready *ProfileReady
	for _, ev := range col.snapshot() {
		if pr, ok := ev.(ProfileReady); ok {
			pr := pr
			ready = &pr
		}
	}
	if ready == nil {
		t.Fatal("no ProfileReady event emitted")
	}
	if ready.At != cfg.Horizon() || ready.Profile == nil {
		t.Fatalf("ProfileReady at %v with profile %v, want horizon-time delivery", ready.At, ready.Profile)
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

// TestStretchSnapshotEvery pins the adaptive-cadence decision in both
// directions: material capture cost over the 2% budget stretches (doubling,
// capped at 8x the configured base); full-size-cell profiles — where
// capture is a fraction of a percent of engine time — and immaterial
// absolute costs keep the configured cadence.
func TestStretchSnapshotEvery(t *testing.T) {
	base := 6 * sim.Hour
	second := int64(1e9)
	cases := []struct {
		name          string
		current       sim.Time
		encode, acctd int64
		want          sim.Time
	}{
		{"full-size cell under budget keeps cadence", base, 200e6, 60 * second, base},
		{"tiny cell under absolute floor keeps cadence", base, 40e6, 100e6, base},
		{"over budget doubles", base, 5 * second, 60 * second, 2 * base},
		{"keeps doubling while over budget", 2 * base, 10 * second, 120 * second, 4 * base},
		{"stretch capped at 8x base", 8 * base, 100 * second, 200 * second, 8 * base},
		{"zero accounted keeps cadence", base, 60e6, 0, base},
	}
	for _, tc := range cases {
		if got := stretchSnapshotEvery(base, tc.current, tc.encode, tc.acctd); got != tc.want {
			t.Errorf("%s: stretchSnapshotEvery(%v, %v, %d, %d) = %v, want %v",
				tc.name, base, tc.current, tc.encode, tc.acctd, got, tc.want)
		}
	}
}

// TestSnapshotCadenceStretchIntegration drives the session boundary logic
// with a profiler state that blows the encode budget and asserts the next
// boundary moves out — the session-level half of the adaptive cadence.
func TestSnapshotCadenceStretchIntegration(t *testing.T) {
	cfg := sessionTestConfig(23)
	every := 6 * sim.Hour
	s, err := NewSession(cfg, WithSnapshotEvery(every))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	// Inflate the capture phase far past both the absolute floor and the 2%
	// budget, then cross one snapshot boundary.
	prof := s.sim.Profiler()
	mark := prof.Start() - 10*int64(1e9)
	prof.EndSpan(engprof.PhaseSnapshotEncode, mark, 1)
	if _, err := s.Step(int((every + cfg.SampleEvery) / cfg.SampleEvery)); err != nil {
		t.Fatal(err)
	}
	if s.snapEvery <= every {
		t.Fatalf("effective cadence %v did not stretch past configured %v", s.snapEvery, every)
	}
	if s.nextSnapshot != every+s.snapEvery {
		t.Fatalf("next boundary %v, want %v", s.nextSnapshot, every+s.snapEvery)
	}
	// And the run still completes normally at the stretched cadence.
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestSamplingWorkGate pins, without a stopwatch, how much work the hot
// phases do on the golden cell. The sampling tick: samples written per sweep
// family (8 per sampled host per tick; 2 per placed VM plus 1 per VM tick),
// series and samples that reached the store, and resident-set walks
// (snapshot-cache misses — the cache serves the VM sweep and DRS at a shared
// instant). Placement and rebalancing: candidates the scheduler filtered,
// claim attempts including retries, hosts DRS scanned, and engine events
// fired. All are deterministic per seed. A change that drops or duplicates
// samples, re-walks a host's VMs per metric or per consumer, re-filters or
// re-scans more than before, or schedules extra events fails here.
func TestSamplingWorkGate(t *testing.T) {
	res, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
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
		{"sched/filter ops", res.Profile.Phase(engprof.PhaseSchedFilter).Ops, 20079},
		{"sched/claim ops", res.Profile.Phase(engprof.PhaseSchedClaim).Ops, 2663},
		{"drs/scan ops", res.Profile.Phase(engprof.PhaseDRSScan).Ops, 11697},
		{"fired events", res.Profile.Events, 5590},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
