package engprof

import (
	"bytes"
	"testing"
	"time"
)

func TestEventAttributionByOwner(t *testing.T) {
	c := New()
	c.BeginRun()
	for i := 0; i < 10; i++ {
		c.Event("core/arrive")
	}
	c.Event("core/tick/host")
	c.Event("inj/0/host-failure")
	c.Event("mystery/owner")

	if got := c.Events(); got != 13 {
		t.Fatalf("events = %d, want 13", got)
	}
	p := c.Profile()
	if p.Phase(PhaseArrive).Count != 10 {
		t.Fatalf("arrive count = %d, want 10", p.Phase(PhaseArrive).Count)
	}
	if p.Phase(PhaseHostSample).Count != 1 {
		t.Fatalf("host-sample count = %d", p.Phase(PhaseHostSample).Count)
	}
	if p.Phase(PhaseInject).Count != 1 {
		t.Fatalf("inject count = %d", p.Phase(PhaseInject).Count)
	}
	if p.Phase(PhaseOther).Count != 1 {
		t.Fatalf("other count = %d", p.Phase(PhaseOther).Count)
	}
	if len(p.Owners) != 4 {
		t.Fatalf("owners = %d, want 4", len(p.Owners))
	}
}

// The envelope invariant is the basis of the "phases sum to >=90% of cell
// wall time" acceptance: top-level phases sum to exactly AccountedNanos.
func TestTopLevelSumsToAccounted(t *testing.T) {
	c := New()
	st := c.Start()
	time.Sleep(time.Millisecond)
	c.EndSpan(PhaseBuild, st, 5)
	c.BeginRun()
	time.Sleep(time.Millisecond)
	c.Event("core/arrive")
	// Nested span must not inflate the envelope.
	st = c.Start()
	c.EndSpan(PhaseSchedFilter, st, 100)
	st = c.Start()
	time.Sleep(time.Millisecond)
	c.EndSpan(PhaseSnapshotEncode, st, 4096)

	p := c.Profile()
	if p.AccountedNanos <= 0 {
		t.Fatal("no accounted time")
	}
	if got := p.TopLevelNanos(); got != p.AccountedNanos {
		t.Fatalf("top-level sum %d != accounted %d", got, p.AccountedNanos)
	}
	if p.Phase(PhaseSchedFilter).Ops != 100 {
		t.Fatalf("nested ops = %d", p.Phase(PhaseSchedFilter).Ops)
	}
}

// BeginRun must restart the delta chain: time spent outside a run window
// (between segments) may not leak into the next window's first event.
func TestBeginRunRestartsDeltaChain(t *testing.T) {
	c := New()
	c.BeginRun()
	c.Event("core/arrive")
	time.Sleep(5 * time.Millisecond) // inter-segment work
	c.BeginRun()
	c.Event("core/arrive")
	p := c.Profile()
	if got := p.Phase(PhaseArrive).Nanos; got >= int64(5*time.Millisecond) {
		t.Fatalf("inter-segment time leaked into arrive: %d ns", got)
	}
}

func TestOpsHelpers(t *testing.T) {
	c := New()
	c.AddOps(PhaseHostSample, 7)
	c.AddOps(PhaseHostSample, 3)
	c.SetOps(PhaseSchedClaim, 42)
	c.SetOps(PhaseSchedClaim, 40)
	p := c.Profile()
	if got := p.Phase(PhaseHostSample).Ops; got != 10 {
		t.Fatalf("AddOps = %d, want 10", got)
	}
	if got := p.Phase(PhaseSchedClaim).Ops; got != 40 {
		t.Fatalf("SetOps = %d, want 40", got)
	}
}

func TestProfileRoundTripAndMerge(t *testing.T) {
	c := New()
	c.BeginRun()
	c.Event("core/arrive")
	c.Event("core/tick/drs")
	st := c.Start()
	c.EndSpan(PhaseDRSScan, st, 12)
	a := c.Profile()

	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Events != a.Events || back.AccountedNanos != a.AccountedNanos {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, a)
	}
	if back.Phase(PhaseDRSScan).Ops != 12 {
		t.Fatalf("drs/scan ops = %d", back.Phase(PhaseDRSScan).Ops)
	}

	merged := back
	merged.Merge(a)
	if merged.Cells != 2 {
		t.Fatalf("cells = %d, want 2", merged.Cells)
	}
	if merged.Events != 2*a.Events {
		t.Fatalf("merged events = %d, want %d", merged.Events, 2*a.Events)
	}
	if got := merged.Phase(PhaseArrive).Count; got != 2 {
		t.Fatalf("merged arrive count = %d, want 2", got)
	}
	if got := merged.TopLevelNanos(); got != merged.AccountedNanos {
		t.Fatalf("merged envelope broken: %d != %d", got, merged.AccountedNanos)
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	if _, err := DecodeBytes([]byte(`{"Format": 99}`)); err == nil {
		t.Fatal("want format error")
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		name := p.String()
		if name == "" || seen[name] {
			t.Fatalf("phase %d has bad/duplicate name %q", p, name)
		}
		seen[name] = true
		got, ok := PhaseByName(name)
		if !ok || got != p {
			t.Fatalf("PhaseByName(%q) = %v, %v", name, got, ok)
		}
	}
	if PhaseBuild.Nested() || PhaseSnapshotEncode.Nested() {
		t.Fatal("top-level phase reported nested")
	}
	if !PhaseSchedFilter.Nested() || !PhaseDRSDecide.Nested() {
		t.Fatal("nested phase reported top-level")
	}
}

// The hot path must not allocate once an owner's bucket exists.
func TestEventDoesNotAllocate(t *testing.T) {
	c := New()
	c.BeginRun()
	c.Event("core/arrive")
	c.Event("core/tick/host")
	avg := testing.AllocsPerRun(1000, func() {
		c.Event("core/arrive")
		c.Event("core/tick/host")
	})
	if avg != 0 {
		t.Fatalf("Event allocates %.1f/run, want 0", avg)
	}
}

func BenchmarkEvent(b *testing.B) {
	c := New()
	c.BeginRun()
	c.Event("core/arrive")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Event("core/arrive")
	}
}
