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
	"sort"
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
	index    int // position in its heap (bucket or overflow), -1 when popped
	name     string
	owner    string
	payload  []byte
}

// At reports the scheduled firing time.
func (e *Event) At() Time { return e.at }

// Name reports the optional diagnostic label given at scheduling time.
func (e *Event) Name() string { return e.name }

// Owner reports the rearm key given at scheduling time (empty for events
// that cannot survive a snapshot).
func (e *Event) Owner() string { return e.owner }

// Payload reports the serializable rearm payload given at scheduling time.
func (e *Event) Payload() []byte { return e.payload }

// Canceled reports whether Cancel was called before the event fired.
func (e *Event) Canceled() bool { return e.canceled }

// Cancel prevents the event's handler from running. Canceling an event that
// has already fired (or was already canceled) is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// eventQueue is a min-heap ordered by (time, priority, sequence). The sift
// operations are hand-rolled (rather than container/heap) so pushes and pops
// on the timer wheel's hot path avoid interface dispatch.
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

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
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
		q.swap(i, min)
		i = min
	}
}

func (q *eventQueue) push(e *Event) {
	e.index = len(*q)
	*q = append(*q, e)
	q.up(e.index)
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() *Event {
	old := *q
	n := len(old)
	e := old[0]
	old.swap(0, n-1)
	old[n-1] = nil
	*q = old[:n-1]
	if n > 1 {
		(*q).down(0)
	}
	e.index = -1
	return e
}

// Timer-wheel geometry: a 256-slot near wheel at one-minute tick
// granularity (a ~4.3 h window) in front of an overflow heap. Near events —
// sampler and rebalancer ticks, imminent arrivals — get O(1) slot selection
// plus a sift inside a tiny per-slot heap; far events (VM deletions
// scheduled days ahead) wait in the overflow heap, which stays small and
// shallow, and migrate into the wheel as the cursor approaches them.
const (
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits
	wheelMask     = wheelSlots - 1
	wheelTick     = Time(time.Minute)
)

func slotOf(t Time) int64 { return int64(t / wheelTick) }

// timerWheel is a hierarchical event queue preserving the exact
// (time, priority, sequence) total order of the flat heap it replaces: the
// cursor visits slots in time order, each slot is itself ordered by the full
// comparator, and overflow events always sort after every wheel event.
type timerWheel struct {
	cur      int64 // absolute slot index of the cursor (monotone)
	buckets  [wheelSlots]eventQueue
	nearN    int // events currently in buckets
	overflow eventQueue
}

func (w *timerWheel) len() int { return w.nearN + len(w.overflow) }

// limit is the first instant beyond the wheel's current window.
func (w *timerWheel) limit() Time { return Time(w.cur+wheelSlots) * wheelTick }

func (w *timerWheel) push(ev *Event) {
	s := slotOf(ev.at)
	if s >= w.cur+wheelSlots {
		w.overflow.push(ev)
		return
	}
	if s < w.cur {
		// The cursor advanced past this slot while peeking at a future
		// event (e.g. a horizon stop followed by a near schedule). The
		// cursor bucket is the next one drained and its heap orders the
		// event correctly ahead of everything scheduled later.
		s = w.cur
	}
	w.buckets[s&wheelMask].push(ev)
	w.nearN++
}

// migrate pulls overflow events that now fall inside the wheel window.
func (w *timerWheel) migrate() {
	lim := w.limit()
	for len(w.overflow) > 0 && w.overflow[0].at < lim {
		ev := w.overflow.pop()
		w.buckets[slotOf(ev.at)&wheelMask].push(ev)
		w.nearN++
	}
}

// peek returns the next event without removing it, or nil when empty. It
// advances the cursor to the next event's slot, which is safe: pushes behind
// the cursor fall into the cursor bucket (see push) and ordering holds.
func (w *timerWheel) peek() *Event {
	for {
		if w.nearN == 0 {
			if len(w.overflow) == 0 {
				return nil
			}
			// The wheel is empty: jump straight to the overflow minimum
			// instead of stepping through empty slots.
			w.cur = slotOf(w.overflow[0].at)
			w.migrate()
			continue
		}
		for len(w.buckets[w.cur&wheelMask]) == 0 {
			w.cur++
			w.migrate()
		}
		return w.buckets[w.cur&wheelMask][0]
	}
}

// pop removes and returns the next event, or nil when empty.
func (w *timerWheel) pop() *Event {
	if w.peek() == nil {
		return nil
	}
	ev := w.buckets[w.cur&wheelMask].pop()
	w.nearN--
	return ev
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
	wheel   timerWheel
	arena   eventArena
	seq     uint64
	fired   uint64
	running bool
	horizon Time
	errHook func(error)
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

// OnError installs a hook that observes internal scheduling errors that
// cannot be returned to a caller (e.g. a ticker failing to reschedule).
// Without a hook such errors are collected and surfaced by Run.
func (e *Engine) OnError(fn func(error)) { e.errHook = fn }

// NoteError routes an error a handler cannot return — a ticker failing to
// reschedule, a sampler's rejected append — to the hook, or records it for
// Run. A nil error is ignored.
func (e *Engine) NoteError(err error) {
	if err == nil {
		return
	}
	if e.errHook != nil {
		e.errHook(err)
		return
	}
	e.errs = append(e.errs, err)
}

// Errs returns internal errors collected so far (nil hook installed).
func (e *Engine) Errs() []error { return e.errs }

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue (including
// canceled ones that have not been popped yet).
func (e *Engine) Pending() int { return e.wheel.len() }

// ErrPast is returned when scheduling an event before the current time.
var ErrPast = errors.New("sim: cannot schedule event in the past")

// Schedule registers fn to run at absolute time at. It returns the event,
// which may be canceled until it fires.
func (e *Engine) Schedule(at Time, fn Handler) (*Event, error) {
	return e.schedule(at, 0, "", "", nil, fn)
}

// ScheduleNamed is Schedule with a diagnostic label.
func (e *Engine) ScheduleNamed(at Time, name string, fn Handler) (*Event, error) {
	return e.schedule(at, 0, name, "", nil, fn)
}

// ScheduleOwned is Schedule with a rearm key and serializable payload: the
// event survives CaptureState/RestoreState, where the registered rearmer for
// owner rebuilds the handler from payload. Events scheduled without an owner
// make the engine un-snapshottable while they are pending.
func (e *Engine) ScheduleOwned(at Time, priority int, owner string, payload []byte, fn Handler) (*Event, error) {
	if owner == "" {
		return nil, errors.New("sim: ScheduleOwned with empty owner")
	}
	return e.schedule(at, priority, "", owner, payload, fn)
}

// After registers fn to run delay after the current time.
func (e *Engine) After(delay Time, fn Handler) (*Event, error) {
	return e.schedule(e.now+delay, 0, "", "", nil, fn)
}

// SchedulePriority registers fn at time at with an explicit priority;
// events at the same instant run in ascending priority order.
func (e *Engine) SchedulePriority(at Time, priority int, fn Handler) (*Event, error) {
	return e.schedule(at, priority, "", "", nil, fn)
}

// SchedulePriorityOwned is SchedulePriority with a rearm key and payload.
func (e *Engine) SchedulePriorityOwned(at Time, priority int, owner string, payload []byte, fn Handler) (*Event, error) {
	if owner == "" {
		return nil, errors.New("sim: SchedulePriorityOwned with empty owner")
	}
	return e.schedule(at, priority, "", owner, payload, fn)
}

func (e *Engine) schedule(at Time, priority int, name, owner string, payload []byte, fn Handler) (*Event, error) {
	if at < e.now {
		return nil, fmt.Errorf("%w: at=%v now=%v", ErrPast, at, e.now)
	}
	if fn == nil {
		return nil, errors.New("sim: nil handler")
	}
	ev := e.arena.alloc()
	e.scheduleInto(ev, at, priority, name, owner, payload, fn)
	return ev, nil
}

// scheduleInto (re)initializes ev and enqueues it. The caller must have
// validated at >= now and fn != nil; ev must not be pending in the wheel.
func (e *Engine) scheduleInto(ev *Event, at Time, priority int, name, owner string, payload []byte, fn Handler) {
	e.seq++
	*ev = Event{at: at, priority: priority, seq: e.seq, fn: fn, name: name,
		owner: owner, payload: payload, index: -1}
	e.wheel.push(ev)
}

// Every schedules fn at start and then repeatedly every interval until the
// engine's run horizon ends or the returned Ticker is stopped.
func (e *Engine) Every(start, interval Time, fn Handler) (*Ticker, error) {
	return e.EveryOwned(start, interval, "", fn)
}

// EveryOwned is Every with a rearm key: the ticker's pending tick survives
// CaptureState/RestoreState, where RearmTicker rebinds it.
func (e *Engine) EveryOwned(start, interval Time, owner string, fn Handler) (*Ticker, error) {
	if interval <= 0 {
		return nil, errors.New("sim: non-positive ticker interval")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn, owner: owner}
	t.fireFn = t.fire // bound once so each tick does not allocate a method value
	var err error
	t.next, err = e.schedule(start, 0, "", owner, nil, t.fireFn)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// RearmTicker recreates a ticker on a restoring engine without scheduling
// its first tick: the returned Rearmed re-binds the ticker's pending event
// when RestoreState replays the captured queue. The ticker behaves exactly
// like one built by EveryOwned whose next tick is the captured event.
func (e *Engine) RearmTicker(interval Time, owner string, fn Handler) (*Ticker, Rearmed) {
	t := &Ticker{engine: e, interval: interval, fn: fn, owner: owner}
	t.fireFn = t.fire
	return t, Rearmed{Fn: t.fireFn, Attach: func(ev *Event) { t.next = ev }}
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
	t.engine.scheduleInto(t.next, at, 0, "", t.owner, nil, t.fireFn)
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
	// so one clock read per event accounts for the whole loop — peek/pop
	// included — without a second read.
	if e.prof != nil {
		e.prof.BeginRun()
	}
	for {
		ev := e.wheel.peek()
		if ev == nil {
			break
		}
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		if ev.at > horizon {
			e.now = horizon
			return e.takeErrs()
		}
		e.wheel.pop()
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
	for {
		ev := e.wheel.pop()
		if ev == nil {
			return false
		}
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
}

// PendingEvent is the serializable form of one queued event: everything but
// the handler, which is rebuilt at restore time by the owner's rearmer.
type PendingEvent struct {
	At       Time
	Priority int
	Seq      uint64
	Name     string
	Owner    string
	Payload  []byte
}

// EngineState is a consistent snapshot of the engine: the clock, the
// scheduling counters, and the pending queue in total order. It contains no
// function values and serializes with encoding/gob.
type EngineState struct {
	Now    Time
	Seq    uint64
	Fired  uint64
	Events []PendingEvent
}

// Rearmed is a rearmer's product: the rebuilt handler for one pending
// event, plus an optional hook that observes the re-created *Event (tickers
// use it to re-bind their reusable tick).
type Rearmed struct {
	Fn     Handler
	Attach func(*Event)
}

// CaptureState snapshots the engine between run windows. Every pending
// non-canceled event must carry an owner (see ScheduleOwned/EveryOwned);
// an unowned pending event makes the state un-restorable, so capture fails
// loudly instead of producing a snapshot that silently drops events.
// CaptureState must not be called from inside a handler: a ticker that is
// mid-fire has not re-scheduled its next tick yet, so the queue would be
// missing it.
func (e *Engine) CaptureState() (*EngineState, error) {
	if e.running {
		return nil, errors.New("sim: CaptureState inside a run window")
	}
	st := &EngineState{Now: e.now, Seq: e.seq, Fired: e.fired}
	collect := func(q eventQueue) error {
		for _, ev := range q {
			if ev.canceled {
				continue
			}
			if ev.owner == "" {
				return fmt.Errorf("sim: pending event %q at %v has no owner; cannot snapshot", ev.name, ev.at)
			}
			st.Events = append(st.Events, PendingEvent{
				At: ev.at, Priority: ev.priority, Seq: ev.seq,
				Name: ev.name, Owner: ev.owner, Payload: ev.payload,
			})
		}
		return nil
	}
	for i := range e.wheel.buckets {
		if err := collect(e.wheel.buckets[i]); err != nil {
			return nil, err
		}
	}
	if err := collect(e.wheel.overflow); err != nil {
		return nil, err
	}
	sort.Slice(st.Events, func(i, j int) bool {
		a, b := st.Events[i], st.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		return a.Seq < b.Seq
	})
	return st, nil
}

// RestoreState loads a captured state into a fresh engine: the clock,
// counters, and queue come back exactly, with each pending event's handler
// rebuilt by rearm from its (owner, payload). Original sequence numbers are
// preserved, so the restored engine pops events in the identical total order
// and assigns identical sequence numbers to everything scheduled later —
// the continuation is bit-identical to the uninterrupted run.
func (e *Engine) RestoreState(st *EngineState, rearm func(PendingEvent) (Rearmed, error)) error {
	if e.running {
		return errors.New("sim: RestoreState inside a run window")
	}
	if e.now != 0 || e.seq != 0 || e.fired != 0 || e.wheel.len() != 0 {
		return errors.New("sim: RestoreState on a non-fresh engine")
	}
	e.now = st.Now
	e.fired = st.Fired
	e.wheel.cur = slotOf(st.Now)
	for _, pe := range st.Events {
		r, err := rearm(pe)
		if err != nil {
			return fmt.Errorf("sim: rearm %q (event %q at %v): %w", pe.Owner, pe.Name, pe.At, err)
		}
		if r.Fn == nil {
			return fmt.Errorf("sim: rearm %q returned nil handler", pe.Owner)
		}
		ev := e.arena.alloc()
		*ev = Event{at: pe.At, priority: pe.Priority, seq: pe.Seq, fn: r.Fn,
			name: pe.Name, owner: pe.Owner, payload: pe.Payload, index: -1}
		e.wheel.push(ev)
		if r.Attach != nil {
			r.Attach(ev)
		}
	}
	e.seq = st.Seq
	return nil
}
