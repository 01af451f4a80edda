package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"

	"sapsim/internal/analysis"
	"sapsim/internal/drs"
	"sapsim/internal/engprof"
	"sapsim/internal/esx"
	"sapsim/internal/events"
	"sapsim/internal/nova"
	"sapsim/internal/placement"
	"sapsim/internal/sim"
	"sapsim/internal/snapshot"
	"sapsim/internal/telemetry"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// Hooks observe a running simulation. Every hook is optional (nil hooks are
// skipped) and fires synchronously on the engine goroutine — implementations
// must not block and must not mutate simulation state.
type Hooks struct {
	// OnEvent is the tail of the run's event log: it receives each row —
	// creation, deletion, resize, migration, evacuation, failed schedule —
	// right after the row is appended, including the rows scenario
	// injectors record through Env.Record. Like the log, it never sees the
	// pre-window epoch population (arrivals at t <= 0).
	OnEvent func(events.Event)
	// OnTick fires after each host-telemetry sampling sweep — the
	// simulation's heartbeat (one tick per Config.SampleEvery).
	OnTick func(now sim.Time)
}

// Owners of the core layer's snapshot-surviving events. Scenario injectors
// use "inj/<idx>/<suffix>" keys built by Env.
const (
	ownerArrive     = "core/arrive"
	ownerDelete     = "core/delete"
	ownerTickHost   = "core/tick/host"
	ownerTickVM     = "core/tick/vm"
	ownerTickDRS    = "core/tick/drs"
	ownerTickCross  = "core/tick/cross"
	ownerTickResize = "core/tick/resize"
	ownerResizeRNG  = "core/resize"
)

// Simulation is a fully assembled experiment that has not necessarily run
// to completion yet: the phased, step-driven form of Run. NewSimulation
// builds the region, places the epoch population, and wires samplers,
// rebalancers, and scenario injectors; AdvanceTo then drives the engine in
// as many segments as the caller likes. A run split across AdvanceTo
// boundaries is bit-for-bit identical to one uninterrupted run.
type Simulation struct {
	cfg    Config
	hooks  Hooks
	res    *Result
	engine *sim.Engine
	live   map[vmmodel.ID]*vmmodel.VM

	rebalancer *drs.DRS
	cross      *drs.CrossBB

	finalized bool

	// instances is the deterministic workload in generation order; the
	// snapshot's VM overlay is index-aligned with its prefix.
	instances []*workload.Instance
	// placeVM places instance idx at now (shared by the cold arrival path
	// and the arrival rearmer).
	placeVM func(idx int, in *workload.Instance, now sim.Time)
	// rearmers rebuilds the handler of a pending event from its
	// (owner, payload) record when the engine queue is restored.
	rearmers map[string]func(payload []byte) (sim.Rearmed, error)
	// rngs registers every RNG source that stays live across events; the
	// snapshot marshals them, restore rewinds them.
	rngs map[string]*rand.PCG
	// down is the scenario layer's out-of-service refcount map, shared by
	// every injector Env (empty when no injector runs).
	down map[topology.NodeID]int
	// sampler is kept so a restore can seed its per-VM series handles (the
	// flavor label is pinned at a VM's first sample, which may predate the
	// snapshot and a later resize).
	sampler *sampler
	// env is the base injector environment (nil without injectors); fork
	// restores copy it to inject branch injectors after the queue is back.
	env *Env
	// prof is the always-on engine self-profiler: every simulation carries
	// one, the engine/scheduler/DRS write attribution into it, and Result
	// snapshots it. It reads the wall clock and nothing else, so it cannot
	// perturb event order.
	prof *engprof.Collector
	// placement is kept so the profile can fold the placement database's
	// operation counters into its owner breakdown.
	placement *placement.Service
}

// indexPayload encodes an instance index as an event payload.
func indexPayload(i int) []byte { return []byte(strconv.Itoa(i)) }

// payloadIndex decodes an instance index payload, bounds-checked against n.
func payloadIndex(p []byte, n int) (int, error) {
	i, err := strconv.Atoi(string(p))
	if err != nil || i < 0 || i >= n {
		return 0, fmt.Errorf("core: bad index payload %q", p)
	}
	return i, nil
}

// NewSimulation assembles a simulation: topology, fleet, scheduler, epoch
// population (placed at t=0), telemetry samplers, rebalancers, resize
// churn, and scenario injectors. The returned simulation is positioned at
// time zero with the whole observation window ahead of it.
func NewSimulation(cfg Config, hooks Hooks) (*Simulation, error) {
	return assemble(cfg, hooks, nil)
}

// assemble builds the full simulation skeleton. With a nil snapshot it is
// the ordinary cold start. With a snapshot it prepares the same skeleton for
// an overlay restore: the epoch population stays unplaced, no arrival or
// ticker events are scheduled (they come back from the captured engine
// queue through the rearmer table), and the first snap.NumInjectors
// injectors run in restoring mode — registering their handler factories and
// RNG streams without scheduling anything.
func assemble(cfg Config, hooks Hooks, snap *snapshot.Snapshot) (*Simulation, error) {
	restoring := snap != nil
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prof := engprof.New()
	buildStart := prof.Start()
	region, err := topology.Build(topology.DefaultBuildSpec(cfg.Scale))
	if err != nil {
		return nil, fmt.Errorf("core: building region: %w", err)
	}
	fleet := esx.NewFleet(region, cfg.ESX)
	if cfg.HolisticNodeFit {
		cfg.Scheduler.Filters = append(append([]nova.Filter{}, cfg.Scheduler.Filters...),
			nova.NodeFitFilter{FitsNode: func(bb *topology.BuildingBlock, f *vmmodel.Flavor) bool {
				for _, h := range fleet.HostsInBB(bb) {
					if h.Fits(f) {
						return true
					}
				}
				return false
			}})
	}
	pl := placement.NewService()
	sched, err := nova.NewScheduler(fleet, pl, cfg.Scheduler)
	if err != nil {
		return nil, fmt.Errorf("core: scheduler: %w", err)
	}
	sched.SetProfiler(prof)
	s := &Simulation{
		cfg:   cfg,
		hooks: hooks,
		res: &Result{
			Config:    cfg,
			Region:    region,
			Fleet:     fleet,
			Store:     telemetry.NewStore(),
			Scheduler: sched,
			Events:    &events.Log{},
		},
		engine:    sim.NewEngine(),
		live:      make(map[vmmodel.ID]*vmmodel.VM),
		rearmers:  make(map[string]func([]byte) (sim.Rearmed, error)),
		rngs:      make(map[string]*rand.PCG),
		down:      make(map[topology.NodeID]int),
		prof:      prof,
		placement: pl,
	}
	s.engine.SetProfiler(prof)
	res, engine, live := s.res, s.engine, s.live

	spec := workload.DefaultSpec(cfg.VMs, cfg.Seed)
	spec.Horizon = cfg.Horizon()
	spec.Phases = cfg.ArrivalPhases
	s.instances = workload.NewGenerator(spec).Generate()
	instances := s.instances

	// record appends an event and hands it to OnEvent. Appends happen in
	// simulation-time order, so a rejected one is a bug; it fails the run
	// instead of thinning the log.
	record := func(e events.Event) {
		engine.NoteError(res.Events.Append(e))
		if hooks.OnEvent != nil {
			hooks.OnEvent(e)
		}
	}

	// deleteVM builds the planned-deletion handler for one instance. Both
	// the cold path and the rearmer use it, so a restored deletion event
	// behaves identically to the original.
	deleteVM := func(in *workload.Instance) sim.Handler {
		return func(at sim.Time) {
			if _, ok := live[in.VM.ID]; !ok {
				return
			}
			delete(live, in.VM.ID)
			source := ""
			if in.VM.Node != nil {
				source = string(in.VM.Node.ID)
			}
			engine.NoteError(sched.Delete(in.VM, at))
			record(events.Event{At: at, Type: events.Delete,
				VM: string(in.VM.ID), Flavor: in.VM.Flavor.Name, Source: source})
		}
	}

	s.placeVM = func(idx int, in *workload.Instance, now sim.Time) {
		res.VMs = append(res.VMs, in.VM)
		res.Lifetimes = append(res.Lifetimes, analysis.LifetimeRecord{
			Flavor: in.VM.Flavor, Lifetime: in.Lifetime,
		})
		// Events cover the observation window only; the initial
		// population's creations predate it (in.ArriveAt <= 0).
		inWindow := in.ArriveAt > 0
		r, err := sched.Schedule(&nova.RequestSpec{VM: in.VM}, now)
		if err != nil {
			res.PlacementFailures++
			if inWindow {
				record(events.Event{At: now, Type: events.ScheduleFailed,
					VM: string(in.VM.ID), Flavor: in.VM.Flavor.Name})
			}
			return
		}
		if inWindow {
			record(events.Event{At: now, Type: events.Create,
				VM: string(in.VM.ID), Flavor: in.VM.Flavor.Name, Target: string(r.Node.ID)})
		}
		live[in.VM.ID] = in.VM
		if del := in.DeleteAt(); del < cfg.Horizon() {
			_, err := engine.SchedulePriorityOwned(del, -1, ownerDelete, indexPayload(idx), deleteVM(in))
			engine.NoteError(err)
		}
	}
	placeVM := s.placeVM

	s.rearmers[ownerArrive] = func(p []byte) (sim.Rearmed, error) {
		idx, err := payloadIndex(p, len(instances))
		if err != nil {
			return sim.Rearmed{}, err
		}
		in := instances[idx]
		return sim.Rearmed{Fn: func(at sim.Time) { placeVM(idx, in, at) }}, nil
	}
	s.rearmers[ownerDelete] = func(p []byte) (sim.Rearmed, error) {
		idx, err := payloadIndex(p, len(instances))
		if err != nil {
			return sim.Rearmed{}, err
		}
		return sim.Rearmed{Fn: deleteVM(instances[idx])}, nil
	}

	// Initial population: placed before the first sample. The paper's
	// region is in steady state at the epoch. A restore skips placement
	// and arrival scheduling: the VM overlay and the captured engine queue
	// carry that state.
	if !restoring {
		for idx, in := range instances {
			if in.ArriveAt <= 0 {
				placeVM(idx, in, 0)
				continue
			}
			if _, err := engine.ScheduleOwned(in.ArriveAt, 0, ownerArrive, indexPayload(idx), func(at sim.Time) {
				placeVM(idx, in, at)
			}); err != nil {
				return nil, err
			}
		}
	}

	// addTicker wires a recurring event: scheduled from scratch on a cold
	// start, or created unscheduled and registered as a rearmer when the
	// captured queue will bring its pending event back.
	addTicker := func(owner string, start, every sim.Time, fn sim.Handler) error {
		if restoring {
			_, r := engine.RearmTicker(every, owner, fn)
			s.rearmers[owner] = func([]byte) (sim.Rearmed, error) { return r, nil }
			return nil
		}
		_, err := engine.EveryOwned(start, every, owner, fn)
		return err
	}

	// Host telemetry sampler. OnTick fires after the sweep so observers see
	// a consistent snapshot of the just-sampled state.
	sampler := newSampler(res, cfg, prof, engine.NoteError)
	s.sampler = sampler
	hostTick := sampler.sampleHosts
	if hooks.OnTick != nil {
		hostTick = func(now sim.Time) {
			sampler.sampleHosts(now)
			hooks.OnTick(now)
		}
	}
	if err := addTicker(ownerTickHost, 0, cfg.SampleEvery, hostTick); err != nil {
		return nil, err
	}
	if cfg.RecordVMMetrics {
		vmSampler := func(now sim.Time) { sampler.sampleVMs(now, len(live)) }
		if err := addTicker(ownerTickVM, 0, cfg.VMSampleEvery, vmSampler); err != nil {
			return nil, err
		}
	}

	// Rebalancers.
	if cfg.DRS {
		every := cfg.DRSEvery
		if every <= 0 {
			every = sim.Hour
		}
		s.rebalancer = drs.New(fleet, drs.DefaultConfig())
		s.rebalancer.SetProfiler(prof)
		res.DRS = s.rebalancer
		s.rebalancer.OnMigrate = func(vm *vmmodel.VM, from, to *topology.Node, now sim.Time) {
			record(events.Event{At: now, Type: events.MigrateIntraBB,
				VM: string(vm.ID), Flavor: vm.Flavor.Name,
				Source: string(from.ID), Target: string(to.ID)})
		}
		rebalancer := s.rebalancer
		if err := addTicker(ownerTickDRS, every, every, func(now sim.Time) {
			rebalancer.RebalanceAll(now)
		}); err != nil {
			return nil, err
		}
	}
	if cfg.CrossBB {
		s.cross = drs.NewCrossBB(fleet, sched.MoveBB)
		s.cross.OnMigrate = func(vm *vmmodel.VM, from, to *topology.Node, now sim.Time) {
			record(events.Event{At: now, Type: events.MigrateCrossBB,
				VM: string(vm.ID), Flavor: vm.Flavor.Name,
				Source: string(from.ID), Target: string(to.ID)})
		}
		cross := s.cross
		if err := addTicker(ownerTickCross, sim.Day, sim.Day, func(now sim.Time) {
			cross.Rebalance(now)
		}); err != nil {
			return nil, err
		}
	}

	// Resize churn: user-initiated flavor changes at the configured rate
	// (resize is a scheduler-triggering event, Sec. 2.2). The stream stays
	// live across ticks, so it is registered for snapshot capture.
	if cfg.ResizeRate > 0 {
		src := rand.NewPCG(cfg.Seed, 0x7e512e)
		rng := rand.New(src)
		s.rngs[ownerResizeRNG] = src
		perDay := cfg.ResizeRate * float64(cfg.VMs) / 30
		if err := addTicker(ownerTickResize, 12*sim.Hour, sim.Day, func(now sim.Time) {
			n := int(perDay)
			if rng.Float64() < perDay-float64(n) {
				n++
			}
			if n == 0 || len(live) == 0 {
				return
			}
			// A resize never adds or removes a live VM (a failed one rolls
			// back onto its old node), so one ID-ordered view serves every
			// pick of the tick.
			view := sortedLive(live)
			for i := 0; i < n; i++ {
				vm := view[rng.IntN(len(view))]
				target := vmmodel.ResizeTarget(vm.Flavor, rng)
				if target == nil {
					continue
				}
				if _, err := sched.Resize(vm, target, now); err != nil {
					continue
				}
				res.Resizes++
				record(events.Event{At: now, Type: events.Resize,
					VM: string(vm.ID), Flavor: target.Name,
					Target: string(vm.Node.ID)})
			}
		}); err != nil {
			return nil, err
		}
	}

	// Scenario injectors run last so the steady-state wiring above is
	// complete when they schedule their operational events. On a restore,
	// only the injectors the snapshot was captured with run here (in
	// restoring mode); appended branch injectors are injected by
	// RestoreSimulation once the engine queue is back.
	if len(cfg.Injectors) > 0 {
		s.env = &Env{
			Engine: engine, Config: cfg, Region: region, Fleet: fleet,
			Scheduler: sched, Result: res, live: live, record: record,
			down: s.down, rearmers: s.rearmers, rngs: s.rngs,
		}
		limit := len(cfg.Injectors)
		if restoring {
			limit = snap.NumInjectors
		}
		for i := 0; i < limit; i++ {
			// Each injector gets its own Env copy: the index baked into the
			// copy namespaces the rearm keys its handlers compute at event
			// time, while the maps stay shared.
			env := *s.env
			env.idx = i
			env.restoring = restoring
			if restoring {
				env.restoreAt = snap.At
			}
			if err := cfg.Injectors[i].Inject(&env); err != nil {
				return nil, fmt.Errorf("core: injector %s: %w", cfg.Injectors[i].Name(), err)
			}
		}
	}

	prof.EndSpan(engprof.PhaseBuild, buildStart, int64(len(instances)))
	return s, nil
}

// Now reports the current simulated time.
func (s *Simulation) Now() sim.Time { return s.engine.Now() }

// Horizon reports the end of the observation window.
func (s *Simulation) Horizon() sim.Time { return s.cfg.Horizon() }

// Done reports whether the simulation has reached its horizon.
func (s *Simulation) Done() bool { return s.finalized }

// FiredEvents reports how many engine events have executed so far.
func (s *Simulation) FiredEvents() uint64 { return s.engine.Fired() }

// LiveVMs reports how many VMs are currently resident in the fleet.
func (s *Simulation) LiveVMs() int { return len(s.live) }

// Result returns the simulation's live result. Telemetry, events, and the
// VM population accumulate as the clock advances; the end-of-run summary
// counters (SchedStats, migration totals) are filled once the horizon is
// reached. Each call refreshes Result.Profile with the profiler's current
// attribution.
func (s *Simulation) Result() *Result {
	s.res.Profile = s.snapshotProfile()
	return s.res
}

// snapshotProfile folds the subsystem counters the collector cannot see
// from the engine loop — placement-database operations, the fleet's
// snapshot-cache outcomes — into the owner breakdown, then snapshots.
func (s *Simulation) snapshotProfile() *engprof.Profile {
	hits, misses := s.res.Fleet.SnapshotCacheStats()
	s.prof.SetOwnerOps("esx/snapshot-cache/hit", int64(hits))
	s.prof.SetOwnerOps("esx/snapshot-cache/miss", int64(misses))
	pst := s.placement.Stats()
	s.prof.SetOwnerOps("placement/claims", pst.Claims)
	s.prof.SetOwnerOps("placement/claim-conflicts", pst.ClaimConflicts)
	return s.prof.Profile()
}

// ErrFinished is returned when advancing a simulation past its horizon.
var ErrFinished = errors.New("core: simulation already finished")

// AdvanceTo drives the engine until simulated time t (clamped to the
// horizon). When interrupt is non-nil it is consulted before every engine
// event; a non-nil result aborts the segment immediately and is returned
// unchanged, leaving the simulation resumable from the abort point.
// Reaching the horizon finalizes the run's summary counters.
func (s *Simulation) AdvanceTo(t sim.Time, interrupt func() error) error {
	if s.finalized {
		return ErrFinished
	}
	horizon := s.cfg.Horizon()
	if t > horizon {
		t = horizon
	}
	if err := s.engine.RunInterruptible(t, interrupt); err != nil {
		return err
	}
	if t >= horizon {
		s.finalize()
	}
	return nil
}

// finalize snapshots the end-of-run counters into the result.
func (s *Simulation) finalize() {
	if s.finalized {
		return
	}
	s.finalized = true
	if s.rebalancer != nil {
		s.res.DRSMigrations = s.rebalancer.Migrations()
		// Result.DRS outlives the run; its hook reaches the engine through
		// record, and a held Result must not pin the engine's queue.
		s.rebalancer.OnMigrate = nil
	}
	if s.cross != nil {
		s.res.CrossBBMoves = s.cross.Moves()
	}
	s.res.SchedStats = s.res.Scheduler.Stats()
}
