package core

import (
	"fmt"
	"math/rand/v2"

	"sapsim/internal/esx"
	"sapsim/internal/events"
	"sapsim/internal/nova"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// Injector is a scenario hook. Run invokes each injector once after the
// simulation is fully assembled (fleet, scheduler, workload, samplers,
// rebalancers) but before the engine starts, so injectors can schedule
// operational events — host failures, maintenance drains, resize waves —
// onto the engine. Injectors must be deterministic: any randomness has to
// derive from Config.Seed.
//
// To survive a mid-run snapshot, an injector schedules its events through
// Env.ScheduleOwned against handler factories registered with Env.OnRestore,
// and registers any RNG stream that stays live across events with
// Env.RegisterRNG. When Env.Restoring reports true the injector must
// register its factories and streams but skip its initial scheduling: the
// pending events come back from the snapshot through the rearmer table.
type Injector interface {
	// Name labels the injector for error reporting.
	Name() string
	// Inject wires the injector into the assembled simulation.
	Inject(env *Env) error
}

// Env exposes the assembled simulation to injectors. It is valid from
// injection time until Run returns. Each injector receives its own copy
// (with a distinct index namespacing its rearm keys) sharing the underlying
// maps, so overlapping out-of-service claims still compose across
// injections.
type Env struct {
	Engine    *sim.Engine
	Config    Config
	Region    *topology.Region
	Fleet     *esx.Fleet
	Scheduler *nova.Scheduler
	Result    *Result

	live   map[vmmodel.ID]*vmmodel.VM
	record func(events.Event)
	// down reference-counts overlapping out-of-service claims per node:
	// composed injections (a drain over a zone that also suffers
	// failures) must not return a node to service while another claim
	// still holds it down.
	down map[topology.NodeID]int

	// idx is the injector's position in Config.Injectors; it namespaces
	// the injector's rearm keys so two instances of the same injector
	// type never collide.
	idx int
	// restoring marks a snapshot-restore assembly: factories and RNG
	// streams must be registered, initial scheduling must be skipped.
	restoring bool
	restoreAt sim.Time
	// schedPriority is the priority ScheduleOwned stamps on events. It is
	// -1 only while a branch injector's Inject runs post-restore: a cold
	// run's inject-time events carry assembly-time sequence numbers and so
	// sort before any coincident in-flight event, while a branch's carry
	// post-snapshot sequence numbers — the lower priority restores the cold
	// ordering at shared instants. Handler-scheduled events (recoveries,
	// rescheduled evaluations) go back to priority 0, matching their cold
	// counterparts' dynamic sequence order.
	schedPriority int
	// rearmers is the simulation-wide rearmer table (shared with the core
	// event owners); rngs is the registry of live RNG streams.
	rearmers map[string]func(payload []byte) (sim.Rearmed, error)
	rngs     map[string]*rand.PCG
}

// Restoring reports whether the simulation is being re-assembled from a
// snapshot. Injectors must skip their initial event scheduling when true.
func (e *Env) Restoring() bool { return e.restoring }

// RestoreAt reports the snapshot's capture time during a restoring
// assembly (zero otherwise). Injectors whose inject-time work depends on
// what has already happened (e.g. capacity expansions registering blocks
// that arrived before the snapshot) consult it.
func (e *Env) RestoreAt() sim.Time { return e.restoreAt }

// ownerKey builds the engine-wide rearm key for one of this injector's
// event kinds.
func (e *Env) ownerKey(suffix string) string {
	return fmt.Sprintf("inj/%d/%s", e.idx, suffix)
}

// OnRestore registers the handler factory for one of this injector's event
// kinds. The factory rebuilds the event's handler from its serialized
// payload — both when a snapshot is restored and whenever ScheduleOwned
// schedules such an event in the first place, so the live path and the
// restore path run the identical handler by construction.
func (e *Env) OnRestore(suffix string, factory func(payload []byte) (sim.Handler, error)) {
	e.rearmers[e.ownerKey(suffix)] = func(p []byte) (sim.Rearmed, error) {
		fn, err := factory(p)
		if err != nil {
			return sim.Rearmed{}, err
		}
		return sim.Rearmed{Fn: fn}, nil
	}
}

// ScheduleOwned schedules an event of a kind previously registered with
// OnRestore: the handler is built by the registered factory from payload,
// and the event carries the (owner, payload) pair that re-arms it across a
// snapshot boundary.
func (e *Env) ScheduleOwned(at sim.Time, suffix string, payload []byte) (*sim.Event, error) {
	owner := e.ownerKey(suffix)
	f, ok := e.rearmers[owner]
	if !ok {
		return nil, fmt.Errorf("core: no rearmer registered for %q", owner)
	}
	r, err := f(payload)
	if err != nil {
		return nil, err
	}
	return e.Engine.ScheduleOwned(at, e.schedPriority, owner, payload, r.Fn)
}

// RegisterRNG registers an RNG source that stays live across this
// injector's events, keyed under the injector's namespace. The snapshot
// captures its state; restore rewinds the re-created source to it.
func (e *Env) RegisterRNG(suffix string, src *rand.PCG) {
	e.rngs[e.ownerKey(suffix)] = src
}

// TakeDown registers one out-of-service claim on the node and removes it
// from service.
func (e *Env) TakeDown(n *topology.Node) {
	e.down[n.ID]++
	n.Maintenance = true
}

// BringUp releases one out-of-service claim. The node returns to service
// only when no claims remain; the return value reports whether it did. A
// claim never released (a permanent failure) keeps the node down for good.
func (e *Env) BringUp(n *topology.Node) bool {
	if e.down[n.ID] > 0 {
		e.down[n.ID]--
	}
	if e.down[n.ID] > 0 {
		return false
	}
	n.Maintenance = false
	return true
}

// Live returns the currently running VMs sorted by ID, so injector-side
// iteration is deterministic.
func (e *Env) Live() []*vmmodel.VM { return sortedLive(e.live) }

// LiveCount reports the number of currently running VMs.
func (e *Env) LiveCount() int { return len(e.live) }

// IsLive reports whether the VM is currently running.
func (e *Env) IsLive(id vmmodel.ID) bool {
	_, ok := e.live[id]
	return ok
}

// Lose removes a VM from the live set without a normal deletion — an
// evacuation that found no valid host. Its pending deletion event becomes a
// no-op.
func (e *Env) Lose(vm *vmmodel.VM) { delete(e.live, vm.ID) }

// Record appends an event to the run's scheduling-relevant event stream.
func (e *Env) Record(ev events.Event) { e.record(ev) }
