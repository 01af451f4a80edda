package sim

import "testing"

// BenchmarkEngineSchedule measures event insertion against a realistic
// standing queue: a simulation cell keeps thousands of far-future deletion
// events pending while near-term ticks and arrivals churn. Each insertion is
// 3:1 near (seconds to minutes ahead of the engine's clock) to far (hours to
// days ahead), cycling deterministically, and is paired with one Step, so
// the queue stays at its standing depth of 4,096 (reported as "pending")
// however large b.N grows.
func BenchmarkEngineSchedule(b *testing.B) {
	offsets := []Time{
		30 * Second, 5 * Minute, 90 * Second, 2 * Day,
		Minute, 3 * Minute, 45 * Second, 6 * Hour,
	}
	e := NewEngine()
	// Standing population: pending VM deletions spread over a month.
	for i := 0; i < 4096; i++ {
		if _, err := e.Schedule(Time(i%30)*Day+Time(i)*Second, func(Time) {}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Schedule(e.Now()+offsets[i%len(offsets)], func(Time) {}); err != nil {
			b.Fatal(err)
		}
		if !e.Step() {
			b.Fatal("nothing fired")
		}
	}
	b.ReportMetric(float64(len(e.queue)), "pending")
}

// BenchmarkEngineScheduleRunCycle measures the full push/pop lifecycle: a
// standing far-future population plus a tight schedule-then-fire loop, the
// shape of a sampler-dominated cell run.
func BenchmarkEngineScheduleRunCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 2048; j++ {
			if _, err := e.Schedule(Day+Time(j)*Minute, func(Time) {}); err != nil {
				b.Fatal(err)
			}
		}
		n := 0
		if _, err := e.Every(0, 5*Minute, func(Time) { n++ }); err != nil {
			b.Fatal(err)
		}
		if err := e.Run(3 * Day); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("ticker never fired")
		}
	}
}
