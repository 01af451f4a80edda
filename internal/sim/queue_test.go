package sim

import (
	"math/rand"
	"testing"
)

// TestRunFiresInStableSortOrder is the ordering contract the engine's
// determinism (and the golden digests) rest on: whatever the schedule, Run
// fires events in the order of a stable sort by (time, priority) over the
// order they were scheduled in. Seeded random schedules with many ties are
// fired through Run with horizon stops; handlers schedule more events, some
// at the current instant, and cancel pending ones. The oracle is that stable
// sort taken over the events still pending at each fire.
func TestRunFiresInStableSortOrder(t *testing.T) {
	type item struct {
		id       int
		at       Time
		priority int
		ev       *Event
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var pending []item // scheduling order
		nextID, fired := 0, 0
		horizon := Time(0)

		// next is the stable-sort minimum of pending: the first item in
		// scheduling order among those with the least (time, priority).
		next := func() int {
			best := 0
			for i, it := range pending[1:] {
				b := pending[best]
				if it.at < b.at || (it.at == b.at && it.priority < b.priority) {
					best = i + 1
				}
			}
			return best
		}
		var schedule func(at Time)
		schedule = func(at Time) {
			id, pri := nextID, rng.Intn(5)-2
			nextID++
			ev, err := e.SchedulePriority(at, pri, func(now Time) {
				i := next()
				if want := pending[i]; want.id != id {
					t.Fatalf("seed %d: fired event %d (at %v, priority %d), want %d (at %v, priority %d)",
						seed, id, now, pri, want.id, want.at, want.priority)
				}
				pending = append(pending[:i], pending[i+1:]...)
				fired++
				if now > horizon {
					t.Fatalf("seed %d: event %d fired at %v, beyond the horizon %v", seed, id, now, horizon)
				}
				if nextID >= 3000 {
					return
				}
				for k := rng.Intn(3); k > 0; k-- {
					if rng.Intn(2) == 0 {
						schedule(now) // same instant: ordered by priority, then after every earlier schedule
					} else {
						schedule(now + Time(rng.Intn(10))*Minute)
					}
				}
				if len(pending) > 0 && rng.Intn(10) == 0 {
					j := rng.Intn(len(pending))
					pending[j].ev.Cancel()
					pending = append(pending[:j], pending[j+1:]...)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, item{id: id, at: at, priority: pri, ev: ev})
		}

		for i := 0; i < 200; i++ {
			schedule(Time(rng.Intn(60)) * Minute)
		}
		for len(pending) > 0 {
			// Stops land on pending instants (whose events must fire
			// before the stop), between them, and repeat the last stop.
			horizon += Time(rng.Intn(30)) * Minute
			if rng.Intn(2) == 0 {
				horizon += Time(rng.Intn(60)) * Second
			}
			if err := e.Run(horizon); err != nil {
				t.Fatal(err)
			}
			if e.Now() != horizon {
				t.Fatalf("seed %d: Run(%v) left the clock at %v", seed, horizon, e.Now())
			}
			if len(pending) > 0 && pending[next()].at <= horizon {
				t.Fatalf("seed %d: Run(%v) returned with event %d at %v still pending",
					seed, horizon, pending[next()].id, pending[next()].at)
			}
			// Schedule between runs too, at and after the stop.
			for k := rng.Intn(3); k > 0 && nextID < 3000; k-- {
				schedule(horizon + Time(rng.Intn(5))*Minute)
			}
		}
		if uint64(fired) != e.Fired() {
			t.Fatalf("seed %d: handlers ran %d times, engine counted %d", seed, fired, e.Fired())
		}
	}
}

// TestScheduleAllocs pins the arena behavior: scheduling amortizes to one
// chunk allocation per arenaChunk events rather than one *Event per call.
func TestScheduleAllocs(t *testing.T) {
	e := NewEngine()
	fn := func(Time) {}
	at := Time(0)
	avg := testing.AllocsPerRun(1000, func() {
		at += Second
		if _, err := e.Schedule(at, fn); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2.0/arenaChunk {
		t.Errorf("Schedule allocates %.4f objects/op, want <= %.4f (arena-amortized)",
			avg, 2.0/arenaChunk)
	}
}

// TestTickerFireAllocs pins the ticker's event reuse: steady-state ticking
// must not allocate at all.
func TestTickerFireAllocs(t *testing.T) {
	e := NewEngine()
	n := 0
	if _, err := e.Every(0, Minute, func(Time) { n++ }); err != nil {
		t.Fatal(err)
	}
	// Warm up so the queue's backing array exists; steady state after that
	// reuses it, and the ticker reuses its event.
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
		t.Errorf("ticker run allocates %.2f objects per hour of ticks, want 0", avg)
	}
	if n == 0 {
		t.Fatal("ticker never fired")
	}
}
