package sim

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Day).Hours(); got != 48 {
		t.Errorf("2 days = %v hours, want 48", got)
	}
	if got := (90 * Second).Seconds(); got != 90 {
		t.Errorf("90s = %v seconds, want 90", got)
	}
	if got := Week.Days(); got != 7 {
		t.Errorf("week = %v days, want 7", got)
	}
	if got := Hour.Duration(); got != time.Hour {
		t.Errorf("Hour.Duration() = %v, want %v", got, time.Hour)
	}
}

func TestTimeDate(t *testing.T) {
	got := (5 * Day).Date(Epoch)
	want := time.Date(2024, time.August, 5, 0, 0, 0, 0, time.UTC)
	if !got.Equal(want) {
		t.Errorf("Date = %v, want %v", got, want)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	mustSchedule(t, e, 3*Second, func(Time) { order = append(order, 3) })
	mustSchedule(t, e, 1*Second, func(Time) { order = append(order, 1) })
	mustSchedule(t, e, 2*Second, func(Time) { order = append(order, 2) })
	if err := e.Run(10 * Second); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		mustSchedule(t, e, Second, func(Time) { order = append(order, i) })
	}
	if err := e.Run(Minute); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	if _, err := e.SchedulePriority(Second, 5, func(Time) { order = append(order, "low") }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SchedulePriority(Second, -5, func(Time) { order = append(order, "high") }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(Minute); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Errorf("priority order = %v, want [high low]", order)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	mustSchedule(t, e, Minute, func(Time) {})
	if err := e.Run(Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(Second, func(Time) {}); err == nil {
		t.Error("scheduling in the past succeeded, want error")
	}
}

func TestNilHandlerRejected(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(Second, nil); err == nil {
		t.Error("nil handler accepted, want error")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := mustSchedule(t, e, Second, func(Time) { ran = true })
	ev.Cancel()
	if err := e.Run(Minute); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("canceled event ran")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
}

func TestHorizonStopsEarly(t *testing.T) {
	e := NewEngine()
	ran := false
	mustSchedule(t, e, Day, func(Time) { ran = true })
	if err := e.Run(Hour); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("event beyond horizon ran")
	}
	if e.Now() != Hour {
		t.Errorf("Now() = %v, want %v (clock should rest at horizon)", e.Now(), Hour)
	}
	// A later Run should pick the event up.
	if err := e.Run(2 * Day); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("event did not run in extended horizon")
	}
}

func TestClockAdvancesToHorizonWhenIdle(t *testing.T) {
	e := NewEngine()
	if err := e.Run(30 * Day); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 30*Day {
		t.Errorf("Now() = %v, want 30 days", e.Now())
	}
}

func TestHandlerSchedulesMore(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain Handler
	chain = func(now Time) {
		count++
		if count < 5 {
			if _, err := e.After(Second, chain); err != nil {
				t.Errorf("After: %v", err)
			}
		}
	}
	mustSchedule(t, e, 0, chain)
	if err := e.Run(Minute); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("chain ran %d times, want 5", count)
	}
	if e.Fired() != 5 {
		t.Errorf("Fired() = %d, want 5", e.Fired())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	_, err := e.Every(0, Hour, func(now Time) { ticks = append(ticks, now) })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5 * Hour); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 6 { // t=0,1h,...,5h
		t.Fatalf("got %d ticks, want 6: %v", len(ticks), ticks)
	}
	for i, tk := range ticks {
		if tk != Time(i)*Hour {
			t.Errorf("tick %d at %v, want %v", i, tk, Time(i)*Hour)
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	var err error
	tk, err = e.Every(0, Hour, func(now Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(100 * Hour); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("ticker fired %d times after Stop at 3, want 3", count)
	}
}

func TestTickerInvalidInterval(t *testing.T) {
	e := NewEngine()
	if _, err := e.Every(0, 0, func(Time) {}); err == nil {
		t.Error("zero interval accepted, want error")
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	ran := 0
	mustSchedule(t, e, Second, func(Time) { ran++ })
	mustSchedule(t, e, 2*Second, func(Time) { ran++ })
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if ran != 1 {
		t.Fatalf("after one Step ran=%d, want 1", ran)
	}
	if !e.Step() {
		t.Fatal("second Step returned false")
	}
	if e.Step() {
		t.Error("Step returned true on empty queue")
	}
}

func TestEventAccessors(t *testing.T) {
	e := NewEngine()
	ev, err := e.ScheduleOwned(3*Second, 0, "probe", func(Time) {})
	if err != nil {
		t.Fatal(err)
	}
	if ev.At() != 3*Second {
		t.Errorf("At() = %v, want 3s", ev.At())
	}
	if ev.Owner() != "probe" {
		t.Errorf("Owner() = %q, want probe", ev.Owner())
	}
}

// Property: for any set of scheduled times, execution is sorted.
func TestPropertyExecutionSorted(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		for _, off := range offsets {
			at := Time(off) * Second
			if _, err := e.Schedule(at, func(now Time) {
				if now < e.Now() {
					t.Errorf("time ran backwards")
				}
			}); err != nil {
				return false
			}
		}
		var last Time = -1
		ok := true
		for e.Step() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every non-canceled event fires exactly once within horizon.
func TestPropertyAllEventsFire(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		n := rng.IntN(200) + 1
		fired := make([]int, n)
		for i := 0; i < n; i++ {
			i := i
			at := Time(rng.Int64N(int64(Day)))
			if _, err := e.Schedule(at, func(Time) { fired[i]++ }); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(Day); err != nil {
			t.Fatal(err)
		}
		for i, c := range fired {
			if c != 1 {
				t.Fatalf("trial %d: event %d fired %d times", trial, i, c)
			}
		}
	}
}

func TestRunReentrantRejected(t *testing.T) {
	e := NewEngine()
	var inner error
	mustSchedule(t, e, Second, func(Time) {
		inner = e.Run(Minute)
	})
	if err := e.Run(Minute); err != nil {
		t.Fatal(err)
	}
	if inner == nil {
		t.Error("re-entrant Run succeeded, want error")
	}
}

func mustSchedule(t *testing.T, e *Engine, at Time, fn Handler) *Event {
	t.Helper()
	ev, err := e.Schedule(at, fn)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j)*Second, func(Time) {})
		}
		e.Run(2000 * Second)
	}
}

// TestTickerRescheduleErrorSurfaced forces the one reachable reschedule
// failure — now+interval overflowing into the past — and asserts the error
// reaches the caller instead of being dropped.
func TestTickerRescheduleErrorSurfaced(t *testing.T) {
	e := NewEngine()
	if _, err := e.Every(5, Time(math.MaxInt64), func(Time) {}); err != nil {
		t.Fatal(err)
	}
	err := e.Run(10)
	if err == nil {
		t.Fatal("overflowing ticker reschedule was silently dropped")
	}
	if !errors.Is(err, ErrPast) {
		t.Fatalf("expected ErrPast, got %v", err)
	}
}
