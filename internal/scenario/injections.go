package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"sapsim/internal/core"
	"sapsim/internal/esx"
	"sapsim/internal/events"
	"sapsim/internal/placement"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// injectionStream decorrelates the RNG streams of different injections
// while keeping every draw derived from the run's seed.
func injectionStream(env *core.Env, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(env.Config.Seed, 0x5ce7a110^salt))
}

// intPayload serializes a small index as a rearm payload.
func intPayload(i int) []byte { return []byte(strconv.Itoa(i)) }

// payloadInt decodes an index payload, bounds-checked against n.
func payloadInt(p []byte, n int) (int, error) {
	i, err := strconv.Atoi(string(p))
	if err != nil || i < 0 || i >= n {
		return 0, fmt.Errorf("scenario: bad index payload %q", p)
	}
	return i, nil
}

// hostsPayload serializes a host list (by node ID, order-preserving) as a
// rearm payload for recovery events that close over their victims.
func hostsPayload(hosts []*esx.Host) []byte {
	ids := make([]string, len(hosts))
	for i, h := range hosts {
		ids[i] = string(h.Node.ID)
	}
	return []byte(strings.Join(ids, "\n"))
}

// payloadHosts resolves a hostsPayload back to live host handles.
func payloadHosts(env *core.Env, p []byte) ([]*esx.Host, error) {
	if len(p) == 0 {
		return nil, nil
	}
	ids := strings.Split(string(p), "\n")
	hosts := make([]*esx.Host, 0, len(ids))
	for _, id := range ids {
		h, err := env.Fleet.Host(topology.NodeID(id))
		if err != nil {
			return nil, fmt.Errorf("scenario: recovery payload: %w", err)
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

// restoreHostsFactory is the rearm factory for recovery events: it rebuilds
// the `restoreHosts(env, victims)` handler from the serialized victim list.
func restoreHostsFactory(env *core.Env) func([]byte) (sim.Handler, error) {
	return func(p []byte) (sim.Handler, error) {
		hosts, err := payloadHosts(env, p)
		if err != nil {
			return nil, err
		}
		return func(sim.Time) { restoreHosts(env, hosts) }, nil
	}
}

// evacuateHost reschedules every resident VM of a (failed or draining) host
// through the normal Nova pipeline, recording evacuate / evacuate_failed
// events. VMs that find no valid host are lost.
func evacuateHost(env *core.Env, h *esx.Host, now sim.Time) {
	source := string(h.Node.ID)
	for _, vm := range h.VMs() {
		res, err := env.Scheduler.Evacuate(vm, now)
		if err != nil {
			env.Lose(vm)
			env.Record(events.Event{At: now, Type: events.EvacuateFailed,
				VM: string(vm.ID), Flavor: vm.Flavor.Name, Source: source})
			continue
		}
		env.Record(events.Event{At: now, Type: events.Evacuate,
			VM: string(vm.ID), Flavor: vm.Flavor.Name,
			Source: source, Target: string(res.Node.ID)})
	}
}

// failNode takes a node out of service and evacuates its residents.
func failNode(env *core.Env, h *esx.Host, now sim.Time) {
	env.TakeDown(h.Node)
	refreshBBs(env, []*esx.Host{h})
	evacuateHost(env, h, now)
}

// scheduleFollowUp schedules an injector's next owned event from inside one
// of its handlers. A handler has no caller to return a rejection to, and a
// follow-up that silently never fires — hosts that never recover, an
// evaluation loop that stops — changes the run's results without a trace, so
// the rejection fails the run.
func scheduleFollowUp(env *core.Env, at sim.Time, suffix string, payload []byte) {
	_, err := env.ScheduleOwned(at, suffix, payload)
	env.Engine.NoteError(err)
}

// restoreHosts releases one out-of-service claim per host; hosts with no
// remaining claims return to service and their building blocks' placement
// inventories re-sync, once per block.
func restoreHosts(env *core.Env, hosts []*esx.Host) {
	var up []*esx.Host
	for _, h := range hosts {
		if env.BringUp(h.Node) {
			up = append(up, h)
		}
	}
	refreshBBs(env, up)
}

// refreshBBs re-syncs the placement inventory of each host's building
// block, once per block. A block with no provider has nothing to re-sync: a
// CapacityExpansion block is in the topology from inject time but joins
// placement only on arrival, with whatever capacity it has then, and an
// injector that picks blocks by index can reach it before that. Any other
// failure fails the run.
func refreshBBs(env *core.Env, hosts []*esx.Host) {
	seen := make(map[*topology.BuildingBlock]bool)
	for _, h := range hosts {
		if bb := h.Node.BB; !seen[bb] {
			seen[bb] = true
			if err := env.Scheduler.RefreshInventory(bb); !errors.Is(err, placement.ErrUnknownProvider) {
				env.Engine.NoteError(err)
			}
		}
	}
}

// HostFailures fails a seed-derived subset of hosts at a point in time;
// residents are evacuated through the Nova pipeline and failed hosts
// optionally recover after a fixed outage.
type HostFailures struct {
	// At is the failure instant.
	At sim.Time
	// Count fixes the number of failed hosts; when zero, Fraction of the
	// active fleet (rounded up) fails instead.
	Count    int
	Fraction float64
	// Recover is the outage duration; zero means the hosts never return.
	Recover sim.Time
	// Salt decorrelates host selection from other seeded injections.
	Salt uint64
}

// Name implements core.Injector.
func (HostFailures) Name() string { return "host-failures" }

// FirstEffect reports the first instant the injection mutates run state.
func (hf HostFailures) FirstEffect() sim.Time { return hf.At }

// Inject implements core.Injector.
func (hf HostFailures) Inject(env *core.Env) error {
	if hf.Count < 0 || hf.Fraction < 0 || hf.Fraction > 1 {
		return fmt.Errorf("host-failures: bad count=%d fraction=%g", hf.Count, hf.Fraction)
	}
	fail := func(now sim.Time) {
		var active []*esx.Host
		for _, h := range env.Fleet.Hosts() {
			if !h.Node.Maintenance {
				active = append(active, h)
			}
		}
		n := hf.Count
		if n == 0 {
			n = int(math.Ceil(hf.Fraction * float64(len(active))))
		}
		if n > len(active) {
			n = len(active)
		}
		if n == 0 {
			return
		}
		rng := injectionStream(env, hf.Salt)
		perm := rng.Perm(len(active))
		failed := make([]*esx.Host, n)
		for i := 0; i < n; i++ {
			failed[i] = active[perm[i]]
		}
		// Process in node-ID order so the evacuation event stream is
		// independent of the permutation's draw order.
		sort.Slice(failed, func(i, j int) bool { return failed[i].Node.ID < failed[j].Node.ID })
		// Mark every victim down first: evacuations must not land on a
		// host that fails in the same instant.
		for _, h := range failed {
			env.TakeDown(h.Node)
		}
		refreshBBs(env, failed)
		for _, h := range failed {
			evacuateHost(env, h, now)
		}
		if hf.Recover > 0 {
			scheduleFollowUp(env, now+hf.Recover, "restore", hostsPayload(failed))
		}
	}
	env.OnRestore("fail", func([]byte) (sim.Handler, error) { return fail, nil })
	env.OnRestore("restore", restoreHostsFactory(env))
	if env.Restoring() {
		return nil
	}
	_, err := env.ScheduleOwned(hf.At, "fail", nil)
	return err
}

// AZOutage takes every host of one availability zone out of service for a
// fixed duration — the paper's region spans multiple AZs precisely to
// survive this class of event.
type AZOutage struct {
	At sim.Time
	// AZIndex selects the zone (modulo the region's AZ count).
	AZIndex  int
	Duration sim.Time
}

// Name implements core.Injector.
func (AZOutage) Name() string { return "az-outage" }

// FirstEffect reports the first instant the injection mutates run state.
func (o AZOutage) FirstEffect() sim.Time { return o.At }

// Inject implements core.Injector.
func (o AZOutage) Inject(env *core.Env) error {
	azs := env.Region.AZs
	if len(azs) == 0 {
		return fmt.Errorf("az-outage: region has no availability zones")
	}
	az := azs[((o.AZIndex%len(azs))+len(azs))%len(azs)]
	outage := func(now sim.Time) {
		var down []*esx.Host
		for _, dc := range az.DCs {
			for _, bb := range dc.BBs {
				for _, h := range env.Fleet.HostsInBB(bb) {
					if !h.Node.Maintenance {
						down = append(down, h)
					}
				}
			}
		}
		// Whole zone goes dark at once, then residents evacuate to the
		// surviving zones.
		for _, h := range down {
			env.TakeDown(h.Node)
		}
		refreshBBs(env, down)
		for _, h := range down {
			evacuateHost(env, h, now)
		}
		if o.Duration > 0 {
			scheduleFollowUp(env, now+o.Duration, "restore", hostsPayload(down))
		}
	}
	env.OnRestore("outage", func([]byte) (sim.Handler, error) { return outage, nil })
	env.OnRestore("restore", restoreHostsFactory(env))
	if env.Restoring() {
		return nil
	}
	_, err := env.ScheduleOwned(o.At, "outage", nil)
	return err
}

// MaintenanceDrain rolls a building block through maintenance: nodes drain
// one at a time (residents live-migrate off through the Nova pipeline),
// stay down for Hold, then return to service.
type MaintenanceDrain struct {
	// At is when the first node starts draining.
	At sim.Time
	// BBIndex selects the building block among the region's non-reserved
	// multi-node blocks (modulo their count).
	BBIndex int
	// NodeEvery staggers successive node drains (default 15 minutes).
	NodeEvery sim.Time
	// Hold is each node's maintenance duration after draining (default
	// 2 hours).
	Hold sim.Time
}

// Name implements core.Injector.
func (MaintenanceDrain) Name() string { return "maintenance-drain" }

// FirstEffect reports the first instant the injection mutates run state.
func (d MaintenanceDrain) FirstEffect() sim.Time { return d.At }

// Inject implements core.Injector.
func (d MaintenanceDrain) Inject(env *core.Env) error {
	every := d.NodeEvery
	if every <= 0 {
		every = 15 * sim.Minute
	}
	hold := d.Hold
	if hold <= 0 {
		hold = 2 * sim.Hour
	}
	var candidates []*topology.BuildingBlock
	for _, bb := range env.Region.BBs() {
		if !bb.Reserved && len(bb.Nodes) > 1 {
			candidates = append(candidates, bb)
		}
	}
	if len(candidates) == 0 {
		return fmt.Errorf("maintenance-drain: no drainable building blocks")
	}
	bb := candidates[((d.BBIndex%len(candidates))+len(candidates))%len(candidates)]
	hostAt := func(p []byte) (*esx.Host, error) {
		i, err := payloadInt(p, len(bb.Nodes))
		if err != nil {
			return nil, err
		}
		return env.Fleet.Host(bb.Nodes[i].ID)
	}
	env.OnRestore("drain", func(p []byte) (sim.Handler, error) {
		h, err := hostAt(p)
		if err != nil {
			return nil, err
		}
		return func(now sim.Time) { failNode(env, h, now) }, nil
	})
	env.OnRestore("undrain", func(p []byte) (sim.Handler, error) {
		h, err := hostAt(p)
		if err != nil {
			return nil, err
		}
		return func(sim.Time) { restoreHosts(env, []*esx.Host{h}) }, nil
	})
	if env.Restoring() {
		return nil
	}
	for i := range bb.Nodes {
		drainAt := d.At + sim.Time(i)*every
		if _, err := env.ScheduleOwned(drainAt, "drain", intPayload(i)); err != nil {
			return fmt.Errorf("maintenance-drain: %w", err)
		}
		if _, err := env.ScheduleOwned(drainAt+hold, "undrain", intPayload(i)); err != nil {
			return fmt.Errorf("maintenance-drain: %w", err)
		}
	}
	return nil
}

// CorrelatedFailures models failure bursts that are correlated in space:
// instead of independent node failures scattered across the region, each
// burst concentrates inside one building block of a single seed-chosen
// availability zone — the shared power feed, top-of-rack switch, or bad
// firmware rollout that takes out neighbors together. Successive bursts
// march through the same AZ's building blocks, Spacing apart, so the
// surviving blocks of that zone absorb wave after wave of evacuations.
type CorrelatedFailures struct {
	// At is the first burst instant.
	At sim.Time
	// Bursts is the number of bursts (default 3).
	Bursts int
	// Spacing separates successive bursts (default 6 hours).
	Spacing sim.Time
	// Fraction of each victim block's active hosts that fail per burst
	// (default 0.5 — a correlated failure takes out most of a rack).
	Fraction float64
	// Recover is the per-host outage duration; zero means the hosts never
	// return.
	Recover sim.Time
	// Salt decorrelates the selection from other seeded injections.
	Salt uint64
}

// Name implements core.Injector.
func (CorrelatedFailures) Name() string { return "correlated-failures" }

// FirstEffect reports the first instant the injection mutates run state.
func (cf CorrelatedFailures) FirstEffect() sim.Time { return cf.At }

// Inject implements core.Injector.
func (cf CorrelatedFailures) Inject(env *core.Env) error {
	if cf.Fraction < 0 || cf.Fraction > 1 {
		return fmt.Errorf("correlated-failures: bad fraction=%g", cf.Fraction)
	}
	bursts := cf.Bursts
	if bursts <= 0 {
		bursts = 3
	}
	spacing := cf.Spacing
	if spacing <= 0 {
		spacing = 6 * sim.Hour
	}
	fraction := cf.Fraction
	if fraction == 0 {
		fraction = 0.5
	}
	if len(env.Region.AZs) == 0 {
		return fmt.Errorf("correlated-failures: region has no availability zones")
	}
	// All selection draws happen at injection time so the burst schedule is
	// fixed up front: one zone for the whole campaign, then one victim
	// block per burst, cycling through the zone's blocks in permuted order.
	// A restoring assembly replays the identical draws, so the schedule —
	// and each burst's private RNG, untouched until its burst fires —
	// rebuilds without captured state.
	rng := injectionStream(env, 0xc0221e1a^cf.Salt)
	az := env.Region.AZs[rng.IntN(len(env.Region.AZs))]
	var blocks []*topology.BuildingBlock
	for _, dc := range az.DCs {
		for _, bb := range dc.BBs {
			if !bb.Reserved && len(bb.Nodes) > 1 {
				blocks = append(blocks, bb)
			}
		}
	}
	if len(blocks) == 0 {
		return fmt.Errorf("correlated-failures: zone %s has no failable building blocks", az.Name)
	}
	perm := rng.Perm(len(blocks))
	burst := make([]sim.Handler, bursts)
	for i := 0; i < bursts; i++ {
		bb := blocks[perm[i%len(blocks)]]
		burstRNG := rand.New(rand.NewPCG(env.Config.Seed, 0xb325^cf.Salt^uint64(i)))
		burst[i] = func(now sim.Time) {
			var active []*esx.Host
			for _, h := range env.Fleet.HostsInBB(bb) {
				if !h.Node.Maintenance {
					active = append(active, h)
				}
			}
			n := int(math.Ceil(fraction * float64(len(active))))
			if n > len(active) {
				n = len(active)
			}
			if n == 0 {
				return
			}
			hostPerm := burstRNG.Perm(len(active))
			failed := make([]*esx.Host, n)
			for j := 0; j < n; j++ {
				failed[j] = active[hostPerm[j]]
			}
			sort.Slice(failed, func(a, b int) bool { return failed[a].Node.ID < failed[b].Node.ID })
			// The whole burst lands at once: evacuations must not target a
			// host failing in the same instant.
			for _, h := range failed {
				env.TakeDown(h.Node)
			}
			refreshBBs(env, failed)
			for _, h := range failed {
				evacuateHost(env, h, now)
			}
			if cf.Recover > 0 {
				scheduleFollowUp(env, now+cf.Recover, "restore", hostsPayload(failed))
			}
		}
	}
	env.OnRestore("burst", func(p []byte) (sim.Handler, error) {
		i, err := payloadInt(p, bursts)
		if err != nil {
			return nil, err
		}
		return burst[i], nil
	})
	env.OnRestore("restore", restoreHostsFactory(env))
	if env.Restoring() {
		return nil
	}
	for i := 0; i < bursts; i++ {
		if _, err := env.ScheduleOwned(cf.At+sim.Time(i)*spacing, "burst", intPayload(i)); err != nil {
			return fmt.Errorf("correlated-failures: %w", err)
		}
	}
	return nil
}

// CascadingFailures couples each host's failure probability to its current
// load: at every evaluation instant each active host fails independently
// with hazard(load) = BaseProb × (1 + Gain × load²), load being the
// host's allocation fraction (the hotter of vCPU and memory). The feedback
// loop is the point — every failure evacuates residents through the Nova
// pipeline onto the surviving hosts, raising their load and therefore
// their hazard at the next evaluation, so failures cluster and cascade
// toward the hottest corners of the fleet instead of falling uniformly.
type CascadingFailures struct {
	// Start opens the hazard window (default day 1).
	Start sim.Time
	// Duration is how long the window stays open (default 2 days).
	Duration sim.Time
	// Every is the evaluation cadence (default 1 hour).
	Every sim.Time
	// BaseProb is an idle host's per-evaluation failure probability.
	// Zero disables the hazard entirely, at any gain: the coupling
	// multiplies the base, it never invents one. (The builtin
	// cascading-failures scenario uses 0.001.)
	BaseProb float64
	// Gain scales how sharply load raises the hazard (default 30: a host
	// at 90% load is ~25x likelier to fail per evaluation than an idle
	// one).
	Gain float64
	// Recover is the per-host outage duration; zero means failed hosts
	// never return.
	Recover sim.Time
	// Salt decorrelates the hazard draws from other seeded injections.
	Salt uint64
	// OnFail observes each failure with the load that drove it (tests).
	OnFail func(node topology.NodeID, load float64, now sim.Time)
}

// Name implements core.Injector.
func (CascadingFailures) Name() string { return "cascading-failures" }

// FirstEffect reports the first instant the injection mutates run state.
func (cf CascadingFailures) FirstEffect() sim.Time {
	if cf.Start > 0 {
		return cf.Start
	}
	return sim.Day
}

// hazard is the per-evaluation failure probability at a given load
// fraction, capped at 1.
func (cf CascadingFailures) hazard(load float64) float64 {
	base := cf.BaseProb
	gain := cf.Gain
	if gain == 0 {
		gain = 30
	}
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	p := base * (1 + gain*load*load)
	switch {
	case p > 1:
		return 1
	case p < 0:
		return 0
	}
	return p
}

// hostLoad is the allocation fraction the hazard couples to: the hotter
// of the host's vCPU and memory allocation against its overcommit
// ceilings.
func hostLoad(h *esx.Host) float64 {
	var cpu, mem float64
	if cap := h.VCPUCapacity(); cap > 0 {
		cpu = float64(h.AllocatedVCPUs()) / float64(cap)
	}
	if cap := h.MemCapacityMB(); cap > 0 {
		mem = float64(h.AllocatedMemMB()) / float64(cap)
	}
	return math.Max(cpu, mem)
}

// Inject implements core.Injector.
func (cf CascadingFailures) Inject(env *core.Env) error {
	if cf.BaseProb < 0 || cf.BaseProb > 1 {
		return fmt.Errorf("cascading-failures: bad base probability %g", cf.BaseProb)
	}
	if cf.Gain < 0 {
		// A negative gain would invert the premise: loaded hosts would
		// become the safest in the fleet.
		return fmt.Errorf("cascading-failures: negative gain %g", cf.Gain)
	}
	start := cf.Start
	if start <= 0 {
		start = sim.Day
	}
	duration := cf.Duration
	if duration <= 0 {
		duration = 2 * sim.Day
	}
	every := cf.Every
	if every <= 0 {
		every = sim.Hour
	}
	// One stream for the whole campaign, drawn in host-ID order each
	// round, keeps the cascade bit-for-bit deterministic per seed. The
	// stream stays live across evaluations, so it is registered for
	// snapshot capture (same construction as injectionStream, with the
	// source kept for state marshaling).
	src := rand.NewPCG(env.Config.Seed, 0x5ce7a110^(0xca5cade^cf.Salt))
	rng := rand.New(src)
	env.RegisterRNG("hazard", src)
	end := start + duration
	var evaluate func(now sim.Time)
	evaluate = func(now sim.Time) {
		var failed []*esx.Host
		loads := map[topology.NodeID]float64{}
		for _, h := range env.Fleet.Hosts() { // sorted by node ID
			if h.Node.Maintenance {
				continue
			}
			load := hostLoad(h)
			if rng.Float64() < cf.hazard(load) {
				failed = append(failed, h)
				loads[h.Node.ID] = load
			}
		}
		// The round's victims go dark together before anyone evacuates, so
		// no evacuation lands on a host failing in the same instant.
		for _, h := range failed {
			env.TakeDown(h.Node)
		}
		refreshBBs(env, failed)
		for _, h := range failed {
			if cf.OnFail != nil {
				cf.OnFail(h.Node.ID, loads[h.Node.ID], now)
			}
			evacuateHost(env, h, now)
		}
		if cf.Recover > 0 && len(failed) > 0 {
			scheduleFollowUp(env, now+cf.Recover, "restore", hostsPayload(failed))
		}
		if next := now + every; next < end {
			scheduleFollowUp(env, next, "eval", nil)
		}
	}
	env.OnRestore("eval", func([]byte) (sim.Handler, error) { return evaluate, nil })
	env.OnRestore("restore", restoreHostsFactory(env))
	if env.Restoring() {
		return nil
	}
	_, err := env.ScheduleOwned(start, "eval", nil)
	return err
}

// CapacityExpansion grows the region mid-run: newly delivered
// general-purpose building blocks join a seed-chosen data center while the
// fleet is live, entering the placement service through
// Scheduler.RegisterBB (which re-syncs inventory for blocks that already
// exist). New nodes clone the capacity of the host DC's existing
// general-purpose hardware, start empty, and are picked up by the
// scheduler, DRS, and the telemetry samplers from their arrival tick on.
type CapacityExpansion struct {
	// At is the first block's arrival instant.
	At sim.Time
	// Nodes per added block (default 8).
	Nodes int
	// Blocks is how many blocks arrive (default 1), spaced Every apart.
	Blocks int
	// Every separates successive block arrivals (default 1 day).
	Every sim.Time
	// Salt decorrelates the DC choice from other seeded injections.
	Salt uint64
}

// Name implements core.Injector.
func (CapacityExpansion) Name() string { return "capacity-expansion" }

// FirstEffect reports the first instant the injection mutates run state.
// A capacity expansion mutates the topology at injection time (blocks are
// pre-built out of service), so there is no injection-free warm prefix.
func (CapacityExpansion) FirstEffect() sim.Time { return 0 }

// Inject implements core.Injector. The blocks are created here, at
// injection time — where topology errors (duplicate IDs from two
// expansions targeting the same DC, bad capacity) can still fail the run
// loudly — with every node parked out of service and no placement
// provider, so nothing schedules onto or samples them. Each block's
// scheduled arrival then only brings the pre-built nodes into service and
// registers the provider, which cannot fail.
func (ce CapacityExpansion) Inject(env *core.Env) error {
	nodes := ce.Nodes
	if nodes <= 0 {
		nodes = 8
	}
	blocks := ce.Blocks
	if blocks <= 0 {
		blocks = 1
	}
	every := ce.Every
	if every <= 0 {
		every = sim.Day
	}
	dcs := env.Region.Datacenters()
	if len(dcs) == 0 {
		return fmt.Errorf("capacity-expansion: region has no data centers")
	}
	rng := injectionStream(env, 0xca9ac17e^ce.Salt)
	dc := dcs[rng.IntN(len(dcs))]
	// Clone the capacity of the DC's existing general-purpose nodes so the
	// expansion matches the installed hardware generation.
	var template *topology.Node
	for _, bb := range dc.BBs {
		if bb.Kind == topology.GeneralPurpose && !bb.Reserved && len(bb.Nodes) > 0 {
			template = bb.Nodes[0]
			break
		}
	}
	if template == nil {
		return fmt.Errorf("capacity-expansion: DC %s has no general-purpose block to clone", dc.Name)
	}
	bbs := make([]*topology.BuildingBlock, blocks)
	for i := 0; i < blocks; i++ {
		// Salt in the ID keeps two differently-salted expansions of the
		// same DC from colliding.
		id := topology.BBID(fmt.Sprintf("%s-exp%02x-%02d", dc.Name, ce.Salt&0xff, i))
		bb, err := dc.AddBB(id, topology.GeneralPurpose, nodes, template.Capacity)
		if err != nil {
			return fmt.Errorf("capacity-expansion: %w", err)
		}
		bbs[i] = bb
		for _, n := range bb.Nodes {
			env.Fleet.AddHost(n)
			env.TakeDown(n) // undelivered: invisible until arrival
		}
	}
	env.OnRestore("arrive", func(p []byte) (sim.Handler, error) {
		i, err := payloadInt(p, blocks)
		if err != nil {
			return nil, err
		}
		bb := bbs[i]
		return func(sim.Time) {
			for _, n := range bb.Nodes {
				env.BringUp(n)
			}
			env.Engine.NoteError(env.Scheduler.RegisterBB(bb))
		}, nil
	})
	if env.Restoring() {
		// Blocks whose arrival predates the snapshot already joined the
		// placement service; re-register them now. Service state and
		// inventory come from the restore overlay, which runs after every
		// restoring injection.
		for i, bb := range bbs {
			if ce.At+sim.Time(i)*every <= env.RestoreAt() {
				if err := env.Scheduler.RegisterBB(bb); err != nil {
					return fmt.Errorf("capacity-expansion: %w", err)
				}
			}
		}
		return nil
	}
	for i := 0; i < blocks; i++ {
		if _, err := env.ScheduleOwned(ce.At+sim.Time(i)*every, "arrive", intPayload(i)); err != nil {
			return fmt.Errorf("capacity-expansion: %w", err)
		}
	}
	return nil
}

// ResizeWave resizes a seed-derived subset of the live population at one
// instant — the scheduled mass-resize campaigns (OS upgrades, license
// right-sizing) that hit production schedulers as a thundering herd.
type ResizeWave struct {
	At sim.Time
	// Count fixes the number of resizes; when zero, Fraction of the live
	// population (rounded up) resizes instead.
	Count    int
	Fraction float64
	// Salt decorrelates VM selection from other seeded injections.
	Salt uint64
}

// Name implements core.Injector.
func (ResizeWave) Name() string { return "resize-wave" }

// FirstEffect reports the first instant the injection mutates run state.
func (w ResizeWave) FirstEffect() sim.Time { return w.At }

// Inject implements core.Injector.
func (w ResizeWave) Inject(env *core.Env) error {
	if w.Count < 0 || w.Fraction < 0 || w.Fraction > 1 {
		return fmt.Errorf("resize-wave: bad count=%d fraction=%g", w.Count, w.Fraction)
	}
	wave := func(now sim.Time) {
		live := env.Live()
		n := w.Count
		if n == 0 {
			n = int(math.Ceil(w.Fraction * float64(len(live))))
		}
		if n > len(live) {
			n = len(live)
		}
		rng := injectionStream(env, 0x9e512e^w.Salt)
		perm := rng.Perm(len(live))
		for i := 0; i < n; i++ {
			vm := live[perm[i]]
			if vm.Node == nil {
				continue
			}
			target := vmmodel.ResizeTarget(vm.Flavor, rng)
			if target == nil {
				continue
			}
			if _, err := env.Scheduler.Resize(vm, target, now); err != nil {
				continue // rolled back; the wave moves on
			}
			env.Result.Resizes++
			env.Record(events.Event{At: now, Type: events.Resize,
				VM: string(vm.ID), Flavor: target.Name, Target: string(vm.Node.ID)})
		}
	}
	env.OnRestore("wave", func([]byte) (sim.Handler, error) { return wave, nil })
	if env.Restoring() {
		return nil
	}
	_, err := env.ScheduleOwned(w.At, "wave", nil)
	return err
}
