package sapsim

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sapsim/internal/core"
	"sapsim/internal/nova"
	"sapsim/internal/scenario"
	"sapsim/internal/sim"
)

// sessionTestConfig is a fast run: ~18 hosts, 250 VMs, 2 days.
func sessionTestConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.01
	cfg.VMs = 250
	cfg.Days = 2
	cfg.SampleEvery = 30 * sim.Minute
	cfg.VMSampleEvery = 3 * sim.Hour
	return cfg
}

// collector is a thread-safe observer that records every event.
type collector struct {
	mu     sync.Mutex
	events []SessionEvent
}

func (c *collector) OnSessionEvent(ev SessionEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
}

func (c *collector) snapshot() []SessionEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SessionEvent(nil), c.events...)
}

func TestSessionLifecycleStates(t *testing.T) {
	s, err := NewSession(sessionTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.State() != StateNew {
		t.Fatalf("fresh session state = %v, want new", s.State())
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("Result on a new session should error")
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if s.State() != StateBuilt {
		t.Fatalf("after Build state = %v, want built", s.State())
	}
	if err := s.Build(); err != nil {
		t.Fatalf("Build is idempotent: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if s.State() != StateRunning {
		t.Fatalf("after Start state = %v, want running", s.State())
	}
	done, err := s.Step(1)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("one tick should not complete a 2-day run")
	}
	if want := 30 * sim.Minute; s.Now() != want {
		t.Fatalf("after Step(1) Now = %v, want %v", s.Now(), want)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if s.State() != StateDone {
		t.Fatalf("state = %v, want done", s.State())
	}
	if s.Now() != s.Horizon() {
		t.Fatalf("Now = %v, want horizon %v", s.Now(), s.Horizon())
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VMs) == 0 || res.SchedStats.Scheduled == 0 {
		t.Fatal("finished session has an empty result")
	}
	// Completed runs are stable under further driving.
	if done, err := s.Step(1); err != nil || !done {
		t.Fatalf("Step after done = (%v, %v), want (true, nil)", done, err)
	}
}

// TestSessionStepEquivalence: a run split across Step boundaries is
// byte-identical to the one-shot Run wrapper — same telemetry volume, same
// scheduler counters, same rendered artifacts.
func TestSessionStepEquivalence(t *testing.T) {
	cfg := sessionTestConfig(7)
	blocking, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Uneven segments: 3 ticks, 17 ticks, then the rest.
	for _, n := range []int{3, 17} {
		if _, err := s.Step(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	stepped, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}

	if got, want := len(stepped.VMs), len(blocking.VMs); got != want {
		t.Errorf("VM count %d != %d", got, want)
	}
	if got, want := stepped.Store.SampleCount(), blocking.Store.SampleCount(); got != want {
		t.Errorf("sample count %d != %d", got, want)
	}
	if got, want := stepped.Events.Len(), blocking.Events.Len(); got != want {
		t.Errorf("event count %d != %d", got, want)
	}
	if stepped.SchedStats.Scheduled != blocking.SchedStats.Scheduled ||
		stepped.SchedStats.Retries != blocking.SchedStats.Retries ||
		stepped.SchedStats.Failed != blocking.SchedStats.Failed {
		t.Errorf("scheduler stats diverged: %+v != %+v", stepped.SchedStats, blocking.SchedStats)
	}
	if stepped.DRSMigrations != blocking.DRSMigrations {
		t.Errorf("DRS migrations %d != %d", stepped.DRSMigrations, blocking.DRSMigrations)
	}
	for _, id := range []string{"fig9", "fig14a", "table1", "fig15a"} {
		exp, _ := ExperimentByID(id)
		a, err := exp.Compute(stepped)
		if err != nil {
			t.Fatal(err)
		}
		b, err := exp.Compute(blocking)
		if err != nil {
			t.Fatal(err)
		}
		if a.Text != b.Text {
			t.Errorf("%s artifact drifted across Step boundaries", id)
		}
	}
}

// TestSessionCancellation: a canceled context unwinds the run from the
// current tick, the driving call returns ctx.Err(), and the observer
// pipeline is drained and shut down (resources released) before it does.
func TestSessionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := &collector{}
	s, err := NewSession(sessionTestConfig(3), WithContext(ctx), WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	before := s.Now()
	cancel()
	err = s.RunToCompletion()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunToCompletion after cancel = %v, want context.Canceled", err)
	}
	if s.State() != StateCanceled {
		t.Fatalf("state = %v, want canceled", s.State())
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("session Err = %v", s.Err())
	}
	if s.Now() != before {
		t.Fatalf("clock advanced after cancellation: %v -> %v", before, s.Now())
	}
	if s.Now() >= s.Horizon() {
		t.Fatal("canceled session should stop short of the horizon")
	}
	if _, err := s.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result after cancel = %v, want context.Canceled", err)
	}
	// cancel() closed the dispatcher after draining: the terminal Error
	// event is already visible without any further synchronization.
	var sawErr bool
	for _, ev := range col.snapshot() {
		if e, ok := ev.(Error); ok && errors.Is(e.Err, context.Canceled) {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("observer never saw the cancellation Error event")
	}
	// Terminal sessions refuse further driving.
	if _, err := s.Step(1); err == nil {
		t.Fatal("Step on a canceled session should error")
	}
}

// TestSessionCancelsWithinOneTick: cancellation latency is bounded by one
// engine event, not by the remaining window. A pre-canceled context must
// stop the run at the position it was in.
func TestSessionCancelsWithinOneTick(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSession(sessionTestConfig(4), WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Now() != 0 {
		t.Fatalf("pre-canceled run advanced to %v", s.Now())
	}
}

// TestObserverBackpressureNeverDeadlocks: an observer far slower than the
// engine must not stall the run — publishes never block on consumption, and
// Progress events coalesce instead of queueing without bound. Run with
// -race; the engine goroutine and dispatch goroutine share the queue.
func TestObserverBackpressureNeverDeadlocks(t *testing.T) {
	var mu sync.Mutex
	var progresses, others int
	var last Progress
	slow := ObserverFunc(func(ev SessionEvent) {
		time.Sleep(200 * time.Microsecond) // ~100x slower than event production
		mu.Lock()
		defer mu.Unlock()
		if p, ok := ev.(Progress); ok {
			progresses++
			last = p
		} else {
			others++
		}
	})
	cfg := sessionTestConfig(5)
	s, err := NewSession(cfg, WithObserver(slow))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan error, 1)
	go func() { done <- s.RunToCompletion() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("session deadlocked behind a slow observer")
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
	// Completion closed the dispatcher after draining, so the final
	// Progress (at the horizon) has been delivered despite the slow
	// consumer; coalescing means the count may be far below the tick count.
	mu.Lock()
	defer mu.Unlock()
	if progresses == 0 {
		t.Fatal("no progress events delivered")
	}
	if last.Now != cfg.Horizon() {
		t.Fatalf("last delivered progress at %v, want horizon %v", last.Now, cfg.Horizon())
	}
	// Raw production is one Progress per tick plus the Start and finish
	// bookends; coalescing can only shrink that.
	ticks := int(cfg.Horizon()/cfg.SampleEvery) + 1
	if progresses > ticks+2 {
		t.Fatalf("%d progress events for %d ticks", progresses, ticks)
	}
}

// TestSessionProgressStream: a full-speed observer sees a monotone progress
// stream ending exactly at the horizon, plus placement and migration
// events. The second row fails half the fleet, so the stream carries
// evacuations and the VMs they strand; every streamed count matches its
// event-log rows.
func TestSessionProgressStream(t *testing.T) {
	failures := sessionTestConfig(6)
	failures.Injectors = []core.Injector{
		scenario.HostFailures{At: sim.Day, Fraction: 0.5, Recover: 12 * sim.Hour}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"steady", sessionTestConfig(6)},
		{"host-failures", failures},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := &collector{}
			cfg := tc.cfg
			s, err := NewSession(cfg, WithObserver(col))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.RunToCompletion(); err != nil {
				t.Fatal(err)
			}
			res, err := s.Result()
			if err != nil {
				t.Fatal(err)
			}
			var lastNow sim.Time = -1
			var placements, failed, migrations int
			kinds := map[string]int{}
			for _, ev := range col.snapshot() {
				switch e := ev.(type) {
				case Progress:
					if e.Now < lastNow {
						t.Fatalf("progress went backwards: %v after %v", e.Now, lastNow)
					}
					lastNow = e.Now
				case Placement:
					placements++
					if e.VM == "" || e.Flavor == "" {
						t.Fatalf("malformed placement %+v", e)
					}
					if !e.Failed && e.Node == "" {
						t.Fatalf("successful placement without node: %+v", e)
					}
					if e.Failed {
						failed++
					}
				case Migration:
					migrations++
					kinds[e.Kind]++
					if e.From == "" || e.To == "" {
						t.Fatalf("malformed migration %+v", e)
					}
				}
			}
			if lastNow != cfg.Horizon() {
				t.Fatalf("final progress at %v, want %v", lastNow, cfg.Horizon())
			}
			counts := res.Events.CountByType()
			// In-window creations (plus failures) stream as placements.
			wantPlacements := counts["create"] + counts["schedule_failed"] + counts["evacuate_failed"]
			if placements != wantPlacements {
				t.Errorf("streamed %d placements, event log has %d", placements, wantPlacements)
			}
			if rebalance := migrations - kinds["evacuation"]; rebalance != res.DRSMigrations+res.CrossBBMoves {
				t.Errorf("streamed %d rebalancing migrations, result counted %d", rebalance, res.DRSMigrations+res.CrossBBMoves)
			}
			for _, c := range []struct {
				what      string
				got, want int
			}{
				{"successful placements", placements - failed, counts["create"]},
				{"failed placements", failed, counts["schedule_failed"] + counts["evacuate_failed"]},
				{"drs migrations", kinds["drs"], counts["migrate_intra_bb"]},
				{"cross-bb migrations", kinds["cross-bb"], counts["migrate_cross_bb"]},
				{"evacuation migrations", kinds["evacuation"], counts["evacuate"]},
			} {
				if c.got != c.want {
					t.Errorf("streamed %d %s, event log has %d", c.got, c.what, c.want)
				}
			}
			if tc.name == "host-failures" && (counts["evacuate"] == 0 || counts["evacuate_failed"] == 0) {
				t.Errorf("host failures left %d evacuate and %d evacuate_failed rows, want both > 0",
					counts["evacuate"], counts["evacuate_failed"])
			}
		})
	}
}

// TestSessionIncrementalArtifacts: prefix-stage experiments emit before the
// horizon, everything emits by completion, and every streamed artifact is
// byte-identical to recomputing it from the finished Result. Resize churn
// is disabled so the epoch classification (tables 1-2) is genuinely final
// at t=0; TestSessionIncrementalArtifactsWithResizes covers the deferral.
func TestSessionIncrementalArtifacts(t *testing.T) {
	col := &collector{}
	cfg := sessionTestConfig(8)
	cfg.ResizeRate = 0
	s, err := NewSession(cfg, WithObserver(col), WithIncrementalArtifacts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	arrived := map[string]ArtifactReady{}
	for _, ev := range col.snapshot() {
		if a, ok := ev.(ArtifactReady); ok {
			if _, dup := arrived[a.Artifact.ID]; dup {
				t.Fatalf("artifact %s emitted twice", a.Artifact.ID)
			}
			arrived[a.Artifact.ID] = a
		}
	}
	if len(arrived) != len(Experiments()) {
		t.Fatalf("streamed %d artifacts, want %d", len(arrived), len(Experiments()))
	}
	for _, exp := range Experiments() {
		a, ok := arrived[exp.ID]
		if !ok {
			t.Errorf("%s never emitted", exp.ID)
			continue
		}
		switch exp.Stage {
		case StageStatic, StageEpoch:
			if a.At != 0 {
				t.Errorf("%s emitted at %v, want at Start (t=0)", exp.ID, a.At)
			}
		case StageComplete:
			if a.At != cfg.Horizon() {
				t.Errorf("%s emitted at %v, want horizon", exp.ID, a.At)
			}
		}
		want, err := exp.Compute(res)
		if err != nil {
			t.Fatal(err)
		}
		if a.Artifact.Text != want.Text {
			t.Errorf("%s streamed artifact differs from post-run computation", exp.ID)
		}
	}
}

// TestSessionIncrementalArtifactsWithResizes: with resize churn enabled the
// epoch tables' inputs stay fluid (live VMs change flavors), so their
// emission defers to the horizon — and still matches the final Result.
func TestSessionIncrementalArtifactsWithResizes(t *testing.T) {
	col := &collector{}
	cfg := sessionTestConfig(8) // default ResizeRate > 0
	if cfg.ResizeRate <= 0 {
		t.Fatal("test requires resize churn")
	}
	s, err := NewSession(cfg, WithObserver(col), WithIncrementalArtifacts("table1", "table2", "fig15a"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]ArtifactReady{}
	for _, ev := range col.snapshot() {
		if a, ok := ev.(ArtifactReady); ok {
			got[a.Artifact.ID] = a
		}
	}
	if len(got) != 3 {
		t.Fatalf("streamed %d artifacts, want the 3 requested", len(got))
	}
	for _, id := range []string{"table1", "table2"} {
		a, ok := got[id]
		if !ok {
			t.Fatalf("%s never emitted", id)
		}
		if a.At != cfg.Horizon() {
			t.Errorf("%s emitted at %v; resize churn should defer it to the horizon", id, a.At)
		}
		exp, _ := ExperimentByID(id)
		want, err := exp.Compute(res)
		if err != nil {
			t.Fatal(err)
		}
		if a.Artifact.Text != want.Text {
			t.Errorf("%s streamed artifact differs from post-run computation", id)
		}
	}
	// Lifetime records snapshot the flavor at placement, so fig15 still
	// streams at the last arrival even with resize churn.
	if a := got["fig15a"]; a.At >= cfg.Horizon() {
		t.Errorf("fig15a emitted at %v, want before the horizon", a.At)
	}
}

// TestSessionIncrementalArtifactsWithInjectors: scenario injectors can
// resize epoch VMs mid-run (e.g. a ResizeWave), so the epoch tables defer
// to the horizon whenever injectors are present — and still match the
// final Result byte-for-byte.
func TestSessionIncrementalArtifactsWithInjectors(t *testing.T) {
	col := &collector{}
	cfg := sessionTestConfig(8)
	cfg.ResizeRate = 0
	cfg.Injectors = []core.Injector{scenario.ResizeWave{At: 6 * sim.Hour, Fraction: 0.2}}
	s, err := NewSession(cfg, WithObserver(col), WithIncrementalArtifacts("table1", "table2"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resizes == 0 {
		t.Fatal("resize wave did not fire; test exercises nothing")
	}
	got := map[string]ArtifactReady{}
	for _, ev := range col.snapshot() {
		if a, ok := ev.(ArtifactReady); ok {
			got[a.Artifact.ID] = a
		}
	}
	for _, id := range []string{"table1", "table2"} {
		a, ok := got[id]
		if !ok {
			t.Fatalf("%s never emitted", id)
		}
		if a.At != cfg.Horizon() {
			t.Errorf("%s emitted at %v; injectors must defer it to the horizon", id, a.At)
		}
		exp, _ := ExperimentByID(id)
		want, err := exp.Compute(res)
		if err != nil {
			t.Fatal(err)
		}
		if a.Artifact.Text != want.Text {
			t.Errorf("%s streamed artifact differs from post-run computation", id)
		}
	}
}

func TestSessionOptionValidation(t *testing.T) {
	if _, err := NewSession(sessionTestConfig(1), WithPolicy("no-such-policy")); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewSession(sessionTestConfig(1), WithContext(nil)); err == nil {
		t.Error("nil context accepted")
	}
	if _, err := NewSession(sessionTestConfig(1), WithObserver(nil)); err == nil {
		t.Error("nil observer accepted")
	}
	if _, err := NewSession(sessionTestConfig(1), WithIncrementalArtifacts("nope")); err == nil {
		t.Error("unknown incremental artifact ID accepted")
	}
	bad := sessionTestConfig(1)
	bad.Days = 0
	if _, err := NewSession(bad); err == nil {
		t.Error("invalid config accepted")
	}
	s, err := NewSession(sessionTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Step(0); err == nil {
		t.Error("Step(0) accepted")
	}
}

func TestPolicyRegistry(t *testing.T) {
	var names []string
	for _, p := range Policies() {
		names = append(names, p.Name)
	}
	want := []string{PolicyProduction, PolicyContentionAware, PolicyPack, PolicySpread}
	if !slices.Equal(names, want) {
		t.Errorf("Policies() = %v, want %v", names, want)
	}
	// Every row of the one table is a policy, complete.
	for _, v := range scenario.BuiltinVariants() {
		p, ok := PolicyByName(v.Name)
		if !ok {
			t.Fatalf("row %q is not a policy", v.Name)
		}
		if p.Description == "" || p.Apply == nil {
			t.Errorf("policy %q incomplete", v.Name)
		}
	}
	if _, ok := PolicyByName("nope"); ok {
		t.Error("unknown policy found")
	}
	// WithPolicy actually mutates the session's config copy.
	s, err := NewSession(sessionTestConfig(1), WithPolicy(PolicyContentionAware))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	weighsContention := func(cfg Config) bool {
		return slices.ContainsFunc(cfg.Scheduler.Weighers, func(w nova.Weigher) bool {
			_, ok := w.(nova.ContentionWeigher)
			return ok
		})
	}
	if !weighsContention(s.Config()) {
		t.Error("contention-aware policy did not add the contention weigher")
	}
	// The base config the caller holds is untouched.
	if weighsContention(sessionTestConfig(1)) {
		t.Error("policy mutated the shared base config")
	}
}

// TestExperimentCatalogCoherent: the lookup map and the ordered slice are
// built from the same catalog and cannot drift.
func TestExperimentCatalogCoherent(t *testing.T) {
	list := Experiments()
	for i, exp := range list {
		got, ok := ExperimentByID(exp.ID)
		if !ok {
			t.Fatalf("experiment %d (%s) missing from index", i, exp.ID)
		}
		if got.ID != exp.ID || got.Title != exp.Title || got.Stage != exp.Stage {
			t.Fatalf("index entry for %s differs from slice entry", exp.ID)
		}
	}
	// Stages partition as documented.
	stages := map[string]Stage{
		"table1": StageEpoch, "table2": StageEpoch,
		"table3": StageStatic, "table4": StageStatic, "table5": StageStatic,
		"fig15a": StageArrivals, "fig15b": StageArrivals,
	}
	for _, exp := range list {
		want, special := stages[exp.ID]
		if !special {
			want = StageComplete
		}
		if exp.Stage != want {
			t.Errorf("%s stage = %v, want %v", exp.ID, exp.Stage, want)
		}
	}
	// Mutating the returned slice must not poison the catalog.
	list[0].ID = "mutated"
	if fresh := Experiments(); fresh[0].ID == "mutated" {
		t.Fatal("Experiments returns a shared slice")
	}
}

func TestRunWrapperErrors(t *testing.T) {
	bad := sessionTestConfig(1)
	bad.VMs = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("Run accepted an invalid config")
	}
	if !strings.Contains(errString(func() error { _, err := Run(bad); return err }()), "core:") {
		t.Error("validation error should surface from core")
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
