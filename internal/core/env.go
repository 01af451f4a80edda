package core

import (
	"fmt"

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
// derive from Config.Seed. The rows an injector writes with Env.Record —
// evacuations, resizes — join the run's one event stream: the log and
// Hooks.OnEvent see them exactly as they see the core's own rows.
//
// Restoring a snapshot re-runs Inject on a cold build of the captured
// config and replays the run to the snapshot's time, so an injector needs
// no restore path of its own: it schedules plain closures through
// Env.Schedule. A restore needs the captured injectors exactly; a what-if
// with another injector is a cold run.
type Injector interface {
	// Name labels the injector for error reporting.
	Name() string
	// Inject wires the injector into the assembled simulation.
	Inject(env *Env) error
}

// Env exposes the assembled simulation to injectors. It is valid from
// injection time until Run returns. Each injector receives its own copy
// (with a distinct index labelling its events) sharing the underlying maps,
// so overlapping out-of-service claims still compose across injections.
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
	// the owner labels of the injector's events.
	idx int
}

// Schedule schedules fn at at as one of this injector's events. The event
// is labelled "inj/<idx>/<suffix>" for the profiler.
func (e *Env) Schedule(at sim.Time, suffix string, fn sim.Handler) error {
	_, err := e.Engine.ScheduleOwned(at, 0, fmt.Sprintf("inj/%d/%s", e.idx, suffix), fn)
	return err
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

// Lose removes a VM from the live set without a normal deletion — an
// evacuation that found no valid host. Its pending deletion event becomes a
// no-op.
func (e *Env) Lose(vm *vmmodel.VM) { delete(e.live, vm.ID) }

// Record appends an event to the run's scheduling-relevant event stream
// and hands it to Hooks.OnEvent.
func (e *Env) Record(ev events.Event) { e.record(ev) }
