package sapsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sapsim/internal/core"
	"sapsim/internal/events"
	"sapsim/internal/sim"
)

// SessionEvent is the interface satisfied by every typed event a Session
// delivers to its observers: Progress, Placement, Migration, Error, and
// SessionPhase.
type SessionEvent interface{ sessionEvent() }

// Progress reports the run's heartbeat, emitted once per host-telemetry
// tick (Config.SampleEvery). Consecutive Progress events coalesce in the
// delivery queue: a slow observer sees the freshest state, never a backlog.
type Progress struct {
	Now, Horizon sim.Time
	// FiredEvents counts discrete-engine events executed so far.
	FiredEvents uint64
	// LiveVMs counts VMs resident in the fleet right now.
	LiveVMs int
}

// Placement reports one in-window scheduling outcome: a create row of the
// run's event log, or a schedule_failed / evacuate_failed row (epoch-
// population placements at t <= 0 are not streamed, matching the log).
type Placement struct {
	At         sim.Time
	VM, Flavor string
	// Node is the landing node, empty when placement failed.
	Node string
	// Failed marks a VM left without a host: a NoValidHost schedule or an
	// evacuation that found no valid host.
	Failed bool
}

// Migration reports one move between hosts: DRS intra-BB rebalancing,
// cross-BB rebalancing, or a scenario-driven evacuation off a failed or
// draining host.
type Migration struct {
	At           sim.Time
	VM, From, To string
	// Kind is "drs", "cross-bb", or "evacuation": the event log's
	// migrate_intra_bb, migrate_cross_bb, or evacuate row.
	Kind string
}

// Error reports a run abort: context cancellation or an engine failure.
type Error struct {
	At  sim.Time
	Err error
}

// SessionPhase reports the wall-clock cost of one engine phase: "build"
// (simulation assembly), "run" (one driving call's AdvanceTo), or
// "snapshot-capture" (one Session.Snapshot call). It is the session's hook
// for external tracing — a supervisor turns these into spans attributed to
// the cell's attempt. Phase events are only measured and emitted when
// observers are registered; an observer-less run pays no clock reads on the
// driving loop.
type SessionPhase struct {
	Name string
	// Start and End bound the phase in wall-clock time.
	Start, End time.Time
	// FromSim and ToSim bound the phase in simulated time (equal for
	// phases that do not advance the clock, like build).
	FromSim, ToSim sim.Time
}

func (Progress) sessionEvent()     {}
func (Placement) sessionEvent()    {}
func (Migration) sessionEvent()    {}
func (Error) sessionEvent()        {}
func (SessionPhase) sessionEvent() {}

// Observer receives session events. Observers run on a dedicated dispatch
// goroutine, never on the simulation hot loop: a slow observer delays its
// own deliveries but can never stall or deadlock the engine.
type Observer interface {
	OnSessionEvent(SessionEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(SessionEvent)

// OnSessionEvent implements Observer.
func (f ObserverFunc) OnSessionEvent(ev SessionEvent) { f(ev) }

// LogDailyProgress returns an Observer that writes one "<prefix>: day X/N"
// line to w per completed simulated day — the standard -progress output of
// the CLIs. Like any observer it runs on the dispatch goroutine, so the
// writes never slow the simulation.
func LogDailyProgress(w io.Writer, prefix string) Observer {
	lastDay := -1
	return ObserverFunc(func(ev SessionEvent) {
		p, ok := ev.(Progress)
		if !ok {
			return
		}
		day := int(p.Now.Days())
		if day <= lastDay {
			return
		}
		lastDay = day
		fmt.Fprintf(w, "%s: day %d/%d (%d live VMs, %d events)\n",
			prefix, day, int(p.Horizon.Days()), p.LiveVMs, p.FiredEvents)
	})
}

// SessionState is the lifecycle phase of a Session.
type SessionState int

const (
	// StateNew is a configured session before Build.
	StateNew SessionState = iota
	// StateBuilt has the simulation assembled (topology, epoch population,
	// samplers) and positioned at time zero.
	StateBuilt
	// StateRunning has Start called; the clock advances via Step or
	// RunToCompletion.
	StateRunning
	// StateDone reached the horizon; Result is available.
	StateDone
	// StateCanceled was unwound by its context before the horizon.
	StateCanceled
	// StateFailed aborted on an internal error.
	StateFailed
)

// String renders the state for logs and errors.
func (s SessionState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateBuilt:
		return "built"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateCanceled:
		return "canceled"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

type sessionOptions struct {
	ctx         context.Context
	observers   []Observer
	policyNames []string
}

// Option configures a Session at construction.
type Option func(*sessionOptions) error

// WithContext ties the run to ctx: cancellation unwinds the simulation
// cleanly from any tick — within one engine event — and the driving call
// (Step or RunToCompletion) returns ctx's error.
func WithContext(ctx context.Context) Option {
	return func(o *sessionOptions) error {
		if ctx == nil {
			return errors.New("sapsim: WithContext(nil)")
		}
		o.ctx = ctx
		return nil
	}
}

// WithObserver registers an observer for the session's event stream.
// Multiple observers are invoked in registration order.
func WithObserver(obs Observer) Option {
	return func(o *sessionOptions) error {
		if obs == nil {
			return errors.New("sapsim: WithObserver(nil)")
		}
		o.observers = append(o.observers, obs)
		return nil
	}
}

// WithObserverFunc is WithObserver for a bare function.
func WithObserverFunc(fn func(SessionEvent)) Option {
	return func(o *sessionOptions) error {
		if fn == nil {
			return errors.New("sapsim: WithObserverFunc(nil)")
		}
		o.observers = append(o.observers, ObserverFunc(fn))
		return nil
	}
}

// WithPolicy applies a named scheduler configuration (see PolicyByName) to
// the session's config copy. Unknown names fail NewSession.
func WithPolicy(name string) Option {
	return func(o *sessionOptions) error {
		// Resolution is deferred to NewSession where the config lives;
		// validate eagerly so the error points at the right option.
		if _, ok := PolicyByName(name); !ok {
			return fmt.Errorf("sapsim: unknown policy %q", name)
		}
		o.policyNames = append(o.policyNames, name)
		return nil
	}
}

// Session is the phased, observable, cancellable form of a run. The
// lifecycle is Build → Start → Step(n)/RunToCompletion → Result, with Run
// remaining as the blocking one-call wrapper. Sessions are driven from one
// goroutine; event delivery to observers is concurrent but never blocks the
// simulation.
//
//	s, err := sapsim.NewSession(cfg,
//	    sapsim.WithContext(ctx),
//	    sapsim.WithObserverFunc(onEvent))
//	if err != nil { ... }
//	defer s.Close()
//	if err := s.RunToCompletion(); err != nil { ... }
//	res, err := s.Result()
type Session struct {
	cfg   Config
	opts  sessionOptions
	state SessionState
	err   error

	sim  *core.Simulation
	disp *dispatcher

	// name labels a branch session produced by Fork.
	name string
	// resume, when set, makes Build restore this snapshot instead of
	// assembling at t=0.
	resume *Snapshot
}

// NewSession validates cfg, applies options and any selected policies to a
// private copy, and returns a session in StateNew. The simulation itself is
// assembled by Build (or lazily by Start).
func NewSession(cfg Config, opts ...Option) (*Session, error) {
	var o sessionOptions
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	for _, name := range o.policyNames {
		p, ok := PolicyByName(name)
		if !ok {
			return nil, fmt.Errorf("sapsim: unknown policy %q", name)
		}
		p.Apply(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, opts: o}, nil
}

// Config returns the session's effective configuration (base config with
// policies applied).
func (s *Session) Config() Config { return s.cfg }

// State reports the lifecycle phase.
func (s *Session) State() SessionState { return s.state }

// Err reports the terminal error for a canceled or failed session.
func (s *Session) Err() error { return s.err }

// Now reports the current simulated time (zero before Build).
func (s *Session) Now() sim.Time {
	if s.sim == nil {
		return 0
	}
	return s.sim.Now()
}

// Horizon reports the end of the observation window.
func (s *Session) Horizon() sim.Time { return s.cfg.Horizon() }

// onEvent streams the event-log rows observers see as placements and
// migrations; deletions and resizes are not streamed.
func (s *Session) onEvent(e events.Event) {
	switch e.Type {
	case events.Create:
		s.disp.publish(Placement{At: e.At, VM: e.VM, Flavor: e.Flavor, Node: e.Target})
	case events.ScheduleFailed, events.EvacuateFailed:
		s.disp.publish(Placement{At: e.At, VM: e.VM, Flavor: e.Flavor, Failed: true})
	case events.MigrateIntraBB:
		s.disp.publish(Migration{At: e.At, VM: e.VM, From: e.Source, To: e.Target, Kind: "drs"})
	case events.MigrateCrossBB:
		s.disp.publish(Migration{At: e.At, VM: e.VM, From: e.Source, To: e.Target, Kind: "cross-bb"})
	case events.Evacuate:
		s.disp.publish(Migration{At: e.At, VM: e.VM, From: e.Source, To: e.Target, Kind: "evacuation"})
	}
}

// Build assembles the simulation: topology, scheduler, epoch population,
// samplers, rebalancers, and scenario injectors, leaving the clock at zero.
// Build is idempotent; Start calls it implicitly.
func (s *Session) Build() error {
	switch s.state {
	case StateNew:
	case StateBuilt, StateRunning:
		return nil
	default:
		return fmt.Errorf("sapsim: Build on %s session", s.state)
	}
	if len(s.opts.observers) > 0 {
		s.disp = newDispatcher(s.opts.observers)
	}
	var buildStart time.Time
	if s.disp != nil {
		buildStart = time.Now()
	}
	var hooks core.Hooks
	if s.disp != nil {
		hooks.OnEvent = s.onEvent
		hooks.OnTick = func(sim.Time) { s.publishProgress() }
	}
	var simulation *core.Simulation
	var err error
	if s.resume != nil {
		simulation, err = core.RestoreSimulation(s.cfg, hooks, s.resume)
	} else {
		simulation, err = core.NewSimulation(s.cfg, hooks)
	}
	if err != nil {
		s.fail(err)
		return err
	}
	s.sim = simulation
	s.state = StateBuilt
	if s.disp != nil {
		// A resumed build starts at the snapshot time, a cold one at t=0.
		s.disp.publish(SessionPhase{Name: "build", Start: buildStart, End: time.Now(),
			FromSim: s.sim.Now(), ToSim: s.sim.Now()})
	}
	return nil
}

// Start transitions the session to StateRunning and emits the initial
// Progress.
func (s *Session) Start() error {
	if err := s.Build(); err != nil {
		return err
	}
	switch s.state {
	case StateBuilt:
	case StateRunning:
		return nil
	default:
		return fmt.Errorf("sapsim: Start on %s session", s.state)
	}
	s.state = StateRunning
	s.publishProgress()
	return nil
}

// Step advances the run by n host-telemetry ticks (n × Config.SampleEvery
// of simulated time), clamped to the horizon. It reports whether the run is
// complete. Pausing a run is simply not calling Step; the session holds its
// position indefinitely.
func (s *Session) Step(n int) (done bool, err error) {
	if n <= 0 {
		return false, errors.New("sapsim: Step of non-positive tick count")
	}
	if s.state == StateDone {
		return true, nil
	}
	if err := s.Start(); err != nil {
		return false, err
	}
	target := s.sim.Now() + sim.Time(n)*s.cfg.SampleEvery
	if err := s.advance(target); err != nil {
		return false, err
	}
	return s.state == StateDone, nil
}

// RunToCompletion drives the run to the horizon. Interleaving Step and
// RunToCompletion is byte-identical to one uninterrupted run.
func (s *Session) RunToCompletion() error {
	if s.state == StateDone {
		return nil
	}
	if err := s.Start(); err != nil {
		return err
	}
	return s.advance(s.cfg.Horizon())
}

// advance drives the engine to target simulated time in one uninterrupted
// stretch, routing context cancellation and engine errors to the terminal
// states. With observers registered the stretch is measured as a "run"
// phase; a zero-length one (target already reached) publishes nothing.
func (s *Session) advance(target sim.Time) error {
	var interrupt func() error
	if ctx := s.opts.ctx; ctx != nil {
		interrupt = ctx.Err
	}
	from := s.sim.Now()
	var start time.Time
	if s.disp != nil {
		start = time.Now()
	}
	err := s.sim.AdvanceTo(target, interrupt)
	if s.disp != nil && target > from {
		s.disp.publish(SessionPhase{Name: "run", Start: start, End: time.Now(),
			FromSim: from, ToSim: s.sim.Now()})
	}
	if err != nil {
		return s.abort(err)
	}
	if s.sim.Done() {
		s.finish()
	}
	return nil
}

// abort routes a driving-loop error to the matching terminal state and
// returns it.
func (s *Session) abort(err error) error {
	if s.opts.ctx != nil && errors.Is(err, s.opts.ctx.Err()) {
		s.cancel(err)
	} else {
		s.fail(err)
	}
	return err
}

// Result returns the finished run. It errors until the session reaches
// StateDone (use Step/RunToCompletion to get there), and returns the
// terminal error for canceled or failed sessions.
func (s *Session) Result() (*Result, error) {
	switch s.state {
	case StateDone:
		return s.sim.Result(), nil
	case StateCanceled, StateFailed:
		return nil, s.err
	default:
		return nil, fmt.Errorf("sapsim: Result on %s session", s.state)
	}
}

// Close releases the session's resources — it stops the observer dispatch
// goroutine after draining queued events. Close is idempotent and safe in
// any state; terminal transitions (done, canceled, failed) already close
// the dispatcher, so deferring Close costs nothing.
func (s *Session) Close() error {
	if s.disp != nil {
		s.disp.close()
	}
	return nil
}

// finish marks the session done: summary counters are final, the last
// Progress is published, and the dispatcher drains.
func (s *Session) finish() {
	s.state = StateDone
	s.publishProgress()
	if s.disp != nil {
		s.disp.close()
	}
}

// cancel marks the session canceled by its context.
func (s *Session) cancel(err error) {
	s.state = StateCanceled
	s.err = err
	s.publish(Error{At: s.Now(), Err: err})
	if s.disp != nil {
		s.disp.close()
	}
}

// fail marks the session failed on an internal error.
func (s *Session) fail(err error) {
	s.state = StateFailed
	s.err = err
	s.publish(Error{At: s.Now(), Err: err})
	if s.disp != nil {
		s.disp.close()
	}
}

func (s *Session) publish(ev SessionEvent) {
	if s.disp != nil {
		s.disp.publish(ev)
	}
}

func (s *Session) publishProgress() {
	s.publish(Progress{
		Now:         s.sim.Now(),
		Horizon:     s.cfg.Horizon(),
		FiredEvents: s.sim.FiredEvents(),
		LiveVMs:     s.sim.LiveVMs(),
	})
}

// Run executes an experiment in one blocking call — the original monolith,
// now a thin compatibility wrapper over the Session lifecycle. Artifacts
// produced through Run and through an explicitly stepped Session are
// byte-identical (pinned by the golden harness).
func Run(cfg Config) (*Result, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.RunToCompletion(); err != nil {
		return nil, err
	}
	return s.Result()
}

// dispatcher fans session events out to observers from a dedicated
// goroutine. The publishing side appends under a mutex and never blocks on
// observer speed; consecutive Progress events coalesce so a slow consumer
// sees fresh state instead of an ever-growing backlog.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []SessionEvent
	closed bool

	observers []Observer
	done      chan struct{}
}

func newDispatcher(observers []Observer) *dispatcher {
	d := &dispatcher{observers: observers, done: make(chan struct{})}
	d.cond = sync.NewCond(&d.mu)
	go d.loop()
	return d
}

// publish enqueues an event. It never blocks beyond the queue mutex, which
// the dispatch loop holds only to swap queues — observer callbacks run
// outside the lock.
func (d *dispatcher) publish(ev SessionEvent) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if _, isProgress := ev.(Progress); isProgress && len(d.queue) > 0 {
		if _, tailProgress := d.queue[len(d.queue)-1].(Progress); tailProgress {
			d.queue[len(d.queue)-1] = ev
			d.cond.Signal()
			return
		}
	}
	d.queue = append(d.queue, ev)
	d.cond.Signal()
}

func (d *dispatcher) loop() {
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.closed {
			d.cond.Wait()
		}
		batch := d.queue
		d.queue = nil
		closed := d.closed
		d.mu.Unlock()

		for _, ev := range batch {
			for _, obs := range d.observers {
				obs.OnSessionEvent(ev)
			}
		}
		if closed && len(batch) == 0 {
			close(d.done)
			return
		}
	}
}

// close drains queued events to the observers and stops the dispatch
// goroutine. Idempotent.
func (d *dispatcher) close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		<-d.done
		return
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	<-d.done
}
