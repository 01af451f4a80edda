package sim

import (
	"testing"

	"sapsim/internal/engprof"
)

// TestProfiledScheduleAllocs pins the overhead budget of the always-on
// engine profiler on the scheduling path: attaching a collector must not
// change Schedule's arena-amortized allocation behavior (the profiler only
// observes event *firing*, never event creation).
func TestProfiledScheduleAllocs(t *testing.T) {
	e := NewEngine()
	e.SetProfiler(engprof.New())
	fn := func(Time) {}
	at := Time(0)
	avg := testing.AllocsPerRun(1000, func() {
		at += Second
		if _, err := e.Schedule(at, fn); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2.0/arenaChunk {
		t.Errorf("profiled Schedule allocates %.4f objects/op, want <= %.4f (arena-amortized)",
			avg, 2.0/arenaChunk)
	}
}

// TestProfiledTickerFireAllocs pins the profiler's hot-path contract:
// steady-state ticking with a collector attached allocates nothing. The
// per-fire cost is one monotonic clock read plus counter adds into an
// already-existing owner bucket.
func TestProfiledTickerFireAllocs(t *testing.T) {
	e := NewEngine()
	prof := engprof.New()
	e.SetProfiler(prof)
	n := 0
	if _, err := e.EveryOwned(0, Minute, "core/tick/host", func(Time) { n++ }); err != nil {
		t.Fatal(err)
	}
	// Warm up so the queue's backing array (and the profiler's owner
	// bucket) exists; steady state reuses them.
	horizon := 5 * Hour
	if err := e.Run(horizon); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		horizon += Hour
		if err := e.Run(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("profiled ticker run allocates %.2f objects per hour of ticks, want 0", avg)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}
	if prof.Events() == 0 {
		t.Fatal("profiler observed no events")
	}
	c := prof.Profile().Phase(engprof.PhaseHostSample)
	if c.Count != int64(n) {
		t.Errorf("profiler counted %d host-tick events, ticker fired %d", c.Count, n)
	}
}
