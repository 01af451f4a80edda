// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives every experiment in this repository: a 30-day
// observation window (matching the paper's measurement period) executes in
// seconds of wall-clock time. Events are totally ordered by (time, priority,
// sequence) so that runs are reproducible bit-for-bit given the same inputs.
package sim

import (
	"errors"
	"fmt"
	"time"

	"sapsim/internal/engprof"
)

// Time is a point in simulated time, expressed as a duration since the
// simulation epoch. Using a duration rather than wall-clock time keeps the
// engine free of time-zone and monotonic-clock concerns.
type Time time.Duration

// Common simulation durations.
const (
	Second = Time(time.Second)
	Minute = Time(time.Minute)
	Hour   = Time(time.Hour)
	Day    = 24 * Hour
	Week   = 7 * Day
)

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Hours reports t in hours.
func (t Time) Hours() float64 { return time.Duration(t).Hours() }

// Days reports t in days.
func (t Time) Days() float64 { return time.Duration(t).Hours() / 24 }

// String renders t as a duration since epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Date renders t as an absolute date given the paper's observation epoch
// (2024-07-31 00:00:00 UTC), e.g. for heatmap row labels.
func (t Time) Date(epoch time.Time) time.Time { return epoch.Add(time.Duration(t)) }

// Epoch is the observation start used throughout the paper:
// July 31, 2024 00:00:00 UTC.
var Epoch = time.Date(2024, time.July, 31, 0, 0, 0, 0, time.UTC)

// Handler is a scheduled callback. It runs at the event's firing time and
// may schedule further events.
type Handler func(now Time)

// Event is a scheduled occurrence inside the engine. Events are immutable
// once scheduled; cancellation is expressed through Cancel.
type Event struct {
	at       Time
	priority int
	seq      uint64
	fn       Handler
	canceled bool
	// owner labels the event for the profiler's per-owner attribution.
	owner string
}

// At reports the scheduled firing time.
func (e *Event) At() Time { return e.at }

// Owner reports the label given at scheduling time (empty for Schedule).
func (e *Event) Owner() string { return e.owner }

// Canceled reports whether Cancel was called before the event fired.
func (e *Event) Canceled() bool { return e.canceled }

// Cancel prevents the event's handler from running. Canceling an event that
// has already fired (or was already canceled) is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// eventQueue is the engine's event queue: a binary min-heap ordered by
// (time, priority, sequence). The sift operations are hand-rolled (rather
// than container/heap) so every push and pop avoids interface dispatch.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].priority != q[j].priority {
		return q[i].priority < q[j].priority
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && q.less(r, l) {
			min = r
		}
		if !q.less(min, i) {
			return
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

func (q *eventQueue) push(e *Event) {
	*q = append(*q, e)
	q.up(len(*q) - 1)
}

// pop removes and returns the minimum event; the queue must not be empty.
func (q *eventQueue) pop() *Event {
	old := *q
	n := len(old) - 1
	e := old[0]
	old[0] = old[n]
	old[n] = nil
	*q = old[:n]
	(*q).down(0)
	return e
}

// eventArena hands out events from chunked backing arrays: one allocation
// per arenaChunk events instead of one per Schedule. Events are never
// recycled — a caller may hold a fired event's pointer indefinitely (Cancel
// after firing is a documented no-op), so reuse would let one caller's
// Cancel hit an unrelated event. Tickers, whose events never escape the
// engine, do reuse their event across fires (see Ticker.fire).
type eventArena struct {
	chunk []Event
}

const arenaChunk = 256

func (a *eventArena) alloc() *Event {
	if len(a.chunk) == 0 {
		a.chunk = make([]Event, arenaChunk)
	}
	ev := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	arena   eventArena
	seq     uint64
	fired   uint64
	running bool
	horizon Time
	errs    []error
	// prof, when set, receives per-event wall-time attribution from the
	// run loop: one monotonic-clock read per fired event, attributed to
	// the event's owner. Schedule and Ticker.fire stay uninstrumented —
	// their 0 allocs/op pins are part of the engine's contract — and the
	// profiler writes into counters nothing in the simulation reads, so
	// event order is unaffected.
	prof *engprof.Collector
}

// SetProfiler attaches (or, with nil, detaches) the self-profiler the run
// loop attributes event wall time to.
func (e *Engine) SetProfiler(p *engprof.Collector) { e.prof = p }

// NoteError records an error a handler cannot return — a ticker failing to
// reschedule, a sampler's rejected append — for Run to surface. A nil error
// is ignored.
func (e *Engine) NoteError(err error) {
	if err != nil {
		e.errs = append(e.errs, err)
	}
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// ErrPast is returned when scheduling an event before the current time.
var ErrPast = errors.New("sim: cannot schedule event in the past")

// Schedule registers fn to run at absolute time at. It returns the event,
// which may be canceled until it fires.
func (e *Engine) Schedule(at Time, fn Handler) (*Event, error) {
	return e.schedule(at, 0, "", fn)
}

// ScheduleOwned is SchedulePriority with an owner label, which the
// profiler attributes the event's wall time to.
func (e *Engine) ScheduleOwned(at Time, priority int, owner string, fn Handler) (*Event, error) {
	return e.schedule(at, priority, owner, fn)
}

// After registers fn to run delay after the current time.
func (e *Engine) After(delay Time, fn Handler) (*Event, error) {
	return e.schedule(e.now+delay, 0, "", fn)
}

// SchedulePriority registers fn at time at with an explicit priority;
// events at the same instant run in ascending priority order.
func (e *Engine) SchedulePriority(at Time, priority int, fn Handler) (*Event, error) {
	return e.schedule(at, priority, "", fn)
}

func (e *Engine) schedule(at Time, priority int, owner string, fn Handler) (*Event, error) {
	if at < e.now {
		return nil, fmt.Errorf("%w: at=%v now=%v", ErrPast, at, e.now)
	}
	if fn == nil {
		return nil, errors.New("sim: nil handler")
	}
	ev := e.arena.alloc()
	e.scheduleInto(ev, at, priority, owner, fn)
	return ev, nil
}

// scheduleInto (re)initializes ev and enqueues it. The caller must have
// validated at >= now and fn != nil; ev must not be pending in the queue.
func (e *Engine) scheduleInto(ev *Event, at Time, priority int, owner string, fn Handler) {
	e.seq++
	*ev = Event{at: at, priority: priority, seq: e.seq, fn: fn, owner: owner}
	e.queue.push(ev)
}

// Every schedules fn at start and then repeatedly every interval until the
// engine's run horizon ends or the returned Ticker is stopped.
func (e *Engine) Every(start, interval Time, fn Handler) (*Ticker, error) {
	return e.EveryOwned(start, interval, "", fn)
}

// EveryOwned is Every with an owner label on every tick.
func (e *Engine) EveryOwned(start, interval Time, owner string, fn Handler) (*Ticker, error) {
	if interval <= 0 {
		return nil, errors.New("sim: non-positive ticker interval")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn, owner: owner}
	t.fireFn = t.fire // bound once so each tick does not allocate a method value
	var err error
	t.next, err = e.schedule(start, 0, owner, t.fireFn)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Ticker re-schedules a handler at a fixed interval.
type Ticker struct {
	engine   *Engine
	interval Time
	fn       Handler
	fireFn   Handler
	next     *Event
	stopped  bool
	owner    string
}

func (t *Ticker) fire(now Time) {
	if t.stopped {
		return
	}
	t.fn(now)
	if t.stopped { // fn may call Stop
		return
	}
	// The ticker's event never escapes the engine, so the tick that just
	// fired is reused for the next one instead of allocating a fresh event.
	// Rescheduling cannot fail today (now+interval > now), but injectors
	// that reschedule near the horizon would silently lose ticks if a
	// failure were dropped — surface it through the engine's error hook.
	at := now + t.interval
	if at < t.engine.now {
		err := fmt.Errorf("%w: at=%v now=%v", ErrPast, at, t.engine.now)
		t.engine.NoteError(fmt.Errorf("sim: ticker reschedule at %v: %w", now, err))
		return
	}
	t.engine.scheduleInto(t.next, at, 0, t.owner, t.fireFn)
}

// Stop prevents future ticks. It is safe to call from within the tick
// handler and is idempotent.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.next != nil {
		t.next.Cancel()
	}
}

// Run executes events in order until the queue empties or the next event
// lies beyond horizon. The clock finishes at min(horizon, last event time);
// it advances to horizon exactly when events at or beyond it remain.
//
// Run may be called again with a larger horizon to continue the same event
// sequence: events at exactly the first horizon fire in the first call, so
// a run split across any number of Run calls is identical to one
// uninterrupted run.
func (e *Engine) Run(horizon Time) error {
	return e.RunInterruptible(horizon, nil)
}

// RunInterruptible is Run with a cooperative stop check: when non-nil,
// check is consulted before each event fires, and a non-nil result stops
// the run immediately — before the next event executes — leaving the queue
// and clock intact so the run can resume later. The check's error is
// returned unchanged (e.g. ctx.Err() for context-driven cancellation).
func (e *Engine) RunInterruptible(horizon Time, check func() error) error {
	if e.running {
		return errors.New("sim: engine already running")
	}
	e.running = true
	e.horizon = horizon
	defer func() { e.running = false }()

	// The profiler's delta chain opens here: each fired event closes the
	// interval since the previous reading and attributes it to its owner,
	// so one clock read per event accounts for the whole loop — queue reads
	// included — without a second read.
	if e.prof != nil {
		e.prof.BeginRun()
	}
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		if ev.at > horizon {
			e.now = horizon
			return e.takeErrs()
		}
		e.queue.pop()
		if ev.canceled {
			continue
		}
		e.now = ev.at
		e.fired++
		// ev may be reused by its own handler (Ticker.fire reschedules in
		// place), so capture the owner before firing.
		owner := ev.owner
		ev.fn(ev.at)
		if e.prof != nil {
			e.prof.Event(owner)
		}
	}
	if e.now < horizon {
		e.now = horizon
	}
	return e.takeErrs()
}

// takeErrs joins and clears collected internal errors, so a resumed Run
// does not re-report failures already surfaced by an earlier window.
func (e *Engine) takeErrs() error {
	err := errors.Join(e.errs...)
	e.errs = nil
	return err
}

// Step executes exactly one (non-canceled) event, if any, and reports
// whether an event ran. Useful in tests.
func (e *Engine) Step() bool {
	if e.prof != nil {
		e.prof.BeginRun()
	}
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.canceled {
			continue
		}
		e.now = ev.at
		e.fired++
		owner := ev.owner
		ev.fn(ev.at)
		if e.prof != nil {
			e.prof.Event(owner)
		}
		return true
	}
	return false
}
