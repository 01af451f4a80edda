package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sapsim/internal/analysis"
	"sapsim/internal/engprof"
	"sapsim/internal/events"
	"sapsim/internal/exporter"
	"sapsim/internal/nova"
	"sapsim/internal/sim"
	"sapsim/internal/snapshot"
	"sapsim/internal/telemetry"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// fingerprint identifies the deterministic re-assembly a snapshot belongs
// to: every config knob that shapes the instance sequence, the event
// wiring, or an RNG stream, plus the names of the first numInjectors
// injectors. Injector parameters are the caller's responsibility — a
// restore against a same-named injector with different settings silently
// replays a different scenario.
func fingerprint(cfg Config, numInjectors int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d scale=%g vms=%d days=%d sample=%d vmsample=%d",
		cfg.Seed, cfg.Scale, cfg.VMs, cfg.Days, cfg.SampleEvery, cfg.VMSampleEvery)
	fmt.Fprintf(&b, " drs=%t/%d cross=%t vmmetrics=%t contention=%t holistic=%t resize=%g",
		cfg.DRS, cfg.DRSEvery, cfg.CrossBB, cfg.RecordVMMetrics,
		weighsContention(cfg), cfg.HolisticNodeFit, cfg.ResizeRate)
	fmt.Fprintf(&b, " esx=%+v", cfg.ESX)
	fmt.Fprintf(&b, " phases=%+v", cfg.ArrivalPhases)
	for i := 0; i < numInjectors && i < len(cfg.Injectors); i++ {
		fmt.Fprintf(&b, " inj=%s", cfg.Injectors[i].Name())
	}
	return b.String()
}

// Snapshot captures the simulation's complete mid-run state at the current
// engine-idle boundary: the pending event queue as rearmable records, the
// dynamic VM overlay, node service state, RNG streams, counters, the event
// log, and the telemetry store. It must be called between AdvanceTo
// segments, never from inside a handler. Every capture is attributed to the
// profile's snapshot/encode phase, one op each.
func (s *Simulation) Snapshot() (*snapshot.Snapshot, error) {
	if s.finalized {
		return nil, errors.New("core: cannot snapshot a finished simulation")
	}
	mark := s.prof.Start()
	eng, err := s.engine.CaptureState()
	if err != nil {
		return nil, err
	}
	snap := &snapshot.Snapshot{
		At:           s.engine.Now(),
		Fingerprint:  fingerprint(s.cfg, len(s.cfg.Injectors)),
		NumInjectors: len(s.cfg.Injectors),
		Engine:       *eng,
		Arrived:      len(s.res.VMs),
		VMs:          make([]snapshot.VMState, 0, len(s.res.VMs)),
		Down:         make(map[string]int),
		RNGs:         make(map[string][]byte, len(s.rngs)),
	}
	for _, vm := range s.res.VMs {
		st := snapshot.VMState{
			Flavor:     vm.Flavor.Name,
			State:      int(vm.State),
			PlacedAt:   vm.PlacedAt,
			DeletedAt:  vm.DeletedAt,
			Migrations: vm.Migrations,
		}
		if vm.Node != nil {
			st.Node = string(vm.Node.ID)
		}
		if _, ok := s.live[vm.ID]; ok {
			st.Live = true
		}
		snap.VMs = append(snap.VMs, st)
	}
	for id, n := range s.down {
		if n > 0 {
			snap.Down[string(id)] = n
		}
	}
	for name, src := range s.rngs {
		b, err := src.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot rng %s: %w", name, err)
		}
		snap.RNGs[name] = b
	}
	snap.Counters = snapshot.Counters{
		PlacementFailures: s.res.PlacementFailures,
		Resizes:           s.res.Resizes,
	}
	if s.rebalancer != nil {
		snap.Counters.DRSMigrations = s.rebalancer.Migrations()
		snap.Counters.DRSPasses = s.rebalancer.Passes()
	}
	if s.cross != nil {
		snap.Counters.CrossBBMoves = s.cross.Moves()
	}
	st := s.res.Scheduler.Stats()
	snap.Sched = snapshot.SchedulerState{
		Scheduled:  st.Scheduled,
		Failed:     st.Failed,
		Retries:    st.Retries,
		Eliminated: st.Eliminated,
		Contention: make(map[string]float64),
	}
	for bb, v := range s.res.Scheduler.Contention() {
		snap.Sched.Contention[string(bb)] = v
	}
	snap.Events = append([]events.Event(nil), s.res.Events.All()...)
	snap.Series = s.res.Store.Dump()
	s.prof.EndSpan(engprof.PhaseSnapshotEncode, mark, 1)
	return snap, nil
}

// RestoreSimulation rebuilds a running simulation from a snapshot. The
// config must deterministically re-assemble the captured run: its
// fingerprint (over the first snap.NumInjectors injectors) must match the
// snapshot's. Injectors appended beyond that prefix are injected into the
// restored run at the snapshot time — the speculative-branching mechanism.
// With an unchanged config the restored run continues bit-identically to
// the uninterrupted one.
func RestoreSimulation(cfg Config, hooks Hooks, snap *snapshot.Snapshot) (*Simulation, error) {
	if snap == nil {
		return nil, errors.New("core: restore from nil snapshot")
	}
	if snap.NumInjectors > len(cfg.Injectors) {
		return nil, fmt.Errorf("core: snapshot captured with %d injectors, config has %d",
			snap.NumInjectors, len(cfg.Injectors))
	}
	if got := fingerprint(cfg, snap.NumInjectors); got != snap.Fingerprint {
		return nil, fmt.Errorf("core: snapshot fingerprint mismatch:\n  config:   %s\n  snapshot: %s",
			got, snap.Fingerprint)
	}
	s, err := assemble(cfg, hooks, snap)
	if err != nil {
		return nil, err
	}
	if err := s.overlay(snap); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	// Branch injectors run only now, with the clock and the fleet at the
	// snapshot point. Their inject-time events get priority -1 so they sort
	// before coincident in-flight events — the position their cold
	// counterparts' assembly-time sequence numbers would give them; the
	// priority resets afterwards so handler-scheduled follow-ups order like
	// any dynamically scheduled event.
	for i := snap.NumInjectors; i < len(cfg.Injectors); i++ {
		env := *s.env
		env.idx = i
		env.restoring = false
		env.restoreAt = snap.At
		env.schedPriority = -1
		if err := cfg.Injectors[i].Inject(&env); err != nil {
			return nil, fmt.Errorf("core: branch injector %s: %w", cfg.Injectors[i].Name(), err)
		}
		env.schedPriority = 0
	}
	return s, nil
}

// overlay applies the snapshot's dynamic state onto a freshly assembled
// skeleton. Ordering matters: node service state first (admission rejects
// out-of-service nodes), then provider inventories (claims check capacity),
// then the VM overlay, counters, logs, RNG streams, and finally the engine
// queue.
func (s *Simulation) overlay(snap *snapshot.Snapshot) error {
	res := s.res
	// Node service state. The snapshot's down map is authoritative — it
	// already includes inject-time claims (e.g. a capacity expansion's
	// undelivered nodes), so inject-time mutations from the restoring
	// assembly are discarded. The map object is shared with every injector
	// Env and is therefore cleared and refilled in place.
	clear(s.down)
	for id, n := range snap.Down {
		s.down[topology.NodeID(id)] = n
	}
	for _, n := range res.Region.Nodes() {
		n.Maintenance = s.down[n.ID] > 0
	}
	// Provider inventories now reflect the restored service state. Blocks
	// from a not-yet-arrived capacity expansion have no provider yet —
	// exactly as in the original run.
	if err := res.Scheduler.RefreshAllInventories(); err != nil {
		return err
	}
	// VM overlay: the snapshot covers the arrived prefix of the generated
	// instance sequence, index-aligned.
	if snap.Arrived != len(snap.VMs) || snap.Arrived > len(s.instances) {
		return fmt.Errorf("vm overlay: %d states for %d arrived of %d instances",
			len(snap.VMs), snap.Arrived, len(s.instances))
	}
	catalog := vmmodel.CatalogByName()
	for i := 0; i < snap.Arrived; i++ {
		in, st := s.instances[i], snap.VMs[i]
		vm := in.VM
		// The lifetime record keeps the generated flavor: it was written at
		// placement time, before any resize.
		res.VMs = append(res.VMs, vm)
		res.Lifetimes = append(res.Lifetimes, analysis.LifetimeRecord{
			Flavor: vm.Flavor, Lifetime: in.Lifetime,
		})
		if st.Flavor != vm.Flavor.Name {
			f, ok := catalog[st.Flavor]
			if !ok {
				return fmt.Errorf("vm %s: unknown flavor %q", vm.ID, st.Flavor)
			}
			vm.Flavor = f
		}
		if st.Live {
			node, err := res.Region.Node(topology.NodeID(st.Node))
			if err != nil {
				return fmt.Errorf("vm %s: %w", vm.ID, err)
			}
			if err := res.Fleet.Place(vm, node, st.PlacedAt); err != nil {
				return fmt.Errorf("vm %s on %s: %w", vm.ID, st.Node, err)
			}
			if err := res.Scheduler.RestoreAllocation(vm); err != nil {
				return fmt.Errorf("vm %s: %w", vm.ID, err)
			}
			vm.Migrations = st.Migrations
			s.live[vm.ID] = vm
			continue
		}
		// Not live: deleted, lost to a failed evacuation, or never placed.
		vm.State = vmmodel.State(st.State)
		vm.PlacedAt = st.PlacedAt
		vm.DeletedAt = st.DeletedAt
		vm.Migrations = st.Migrations
	}
	// Scalar accumulators.
	res.PlacementFailures = snap.Counters.PlacementFailures
	res.Resizes = snap.Counters.Resizes
	if s.rebalancer != nil {
		s.rebalancer.RestoreCounters(snap.Counters.DRSMigrations, snap.Counters.DRSPasses)
	}
	if s.cross != nil {
		s.cross.RestoreMoves(snap.Counters.CrossBBMoves)
	}
	res.Scheduler.RestoreStats(nova.Stats{
		Scheduled:  snap.Sched.Scheduled,
		Failed:     snap.Sched.Failed,
		Retries:    snap.Sched.Retries,
		Eliminated: snap.Sched.Eliminated,
	})
	contention := make([]string, 0, len(snap.Sched.Contention))
	for bb := range snap.Sched.Contention {
		contention = append(contention, bb)
	}
	sort.Strings(contention)
	for _, bb := range contention {
		res.Scheduler.SetContention(topology.BBID(bb), snap.Sched.Contention[bb])
	}
	// Event log and telemetry.
	for _, e := range snap.Events {
		if err := res.Events.Append(e); err != nil {
			return fmt.Errorf("event log: %w", err)
		}
	}
	if err := res.Store.Load(snap.Series); err != nil {
		return err
	}
	// Seed the sampler's per-VM handles from the loaded series: the flavor
	// label is pinned at a VM's first sample, so a VM resized after that
	// must keep appending to its original series, not open a new one under
	// the current flavor.
	for _, d := range snap.Series {
		if d.Metric != exporter.MetricVMCPURatio {
			continue
		}
		l, err := telemetry.NewLabels(d.Labels...)
		if err != nil {
			return fmt.Errorf("vm series handles: %w", err)
		}
		if id := l.Get("virtualmachine"); id != "" {
			s.sampler.vmRefs[vmmodel.ID(id)] = res.Store.Refs(vmSchema, []telemetry.Labels{l})
		}
	}
	// RNG streams: every registered stream must have captured state and
	// vice versa — an asymmetry means the config assembles a different run.
	if len(snap.RNGs) != len(s.rngs) {
		return fmt.Errorf("rng registry mismatch: snapshot has %d streams, assembly registered %d",
			len(snap.RNGs), len(s.rngs))
	}
	names := make([]string, 0, len(snap.RNGs))
	for name := range snap.RNGs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src, ok := s.rngs[name]
		if !ok {
			return fmt.Errorf("rng %s in snapshot but not registered by assembly", name)
		}
		if err := src.UnmarshalBinary(snap.RNGs[name]); err != nil {
			return fmt.Errorf("rng %s: %w", name, err)
		}
	}
	// Finally the engine queue, re-armed through the rearmer table.
	return s.engine.RestoreState(&snap.Engine, func(pe sim.PendingEvent) (sim.Rearmed, error) {
		f, ok := s.rearmers[pe.Owner]
		if !ok {
			return sim.Rearmed{}, fmt.Errorf("no rearmer for owner %q", pe.Owner)
		}
		return f(pe.Payload)
	})
}
