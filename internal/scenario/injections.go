package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

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

// outage is every injector's take-down path. All hosts go out of service
// first, so no evacuation lands on a host failing in the same instant;
// their blocks re-sync once; then each host's residents reschedule through
// the normal Nova pipeline, in host order, recording evacuate /
// evacuate_failed events (VMs that find no valid host are lost). With
// recovery > 0 the hosts' return is scheduled that long after now, as the
// calling injector's "restore" event.
func outage(env *core.Env, hosts []*esx.Host, now, recovery sim.Time) {
	for _, h := range hosts {
		env.TakeDown(h.Node)
	}
	refreshBBs(env, hosts)
	for _, h := range hosts {
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
	if recovery > 0 {
		scheduleFollowUp(env, now+recovery, "restore", func(sim.Time) { restoreHosts(env, hosts) })
	}
}

// inService keeps the hosts that are not out of service, in order.
func inService(hosts []*esx.Host) []*esx.Host {
	var active []*esx.Host
	for _, h := range hosts {
		if !h.Node.Maintenance {
			active = append(active, h)
		}
	}
	return active
}

// pickVictims draws count hosts from active — or, when count is zero,
// fraction of them rounded up — and returns them in node-ID order, so the
// evacuation event stream is independent of the permutation's draw order.
// It draws nothing from rng when there is nothing to pick.
func pickVictims(active []*esx.Host, count int, fraction float64, rng *rand.Rand) []*esx.Host {
	n := count
	if n == 0 {
		n = int(math.Ceil(fraction * float64(len(active))))
	}
	n = min(n, len(active))
	if n == 0 {
		return nil
	}
	perm := rng.Perm(len(active))
	victims := make([]*esx.Host, n)
	for i := range victims {
		victims[i] = active[perm[i]]
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Node.ID < victims[j].Node.ID })
	return victims
}

// scheduleFollowUp schedules an injector's next event from inside one of
// its handlers. A handler has no caller to return a rejection to, and a
// follow-up that silently never fires — hosts that never recover, an
// evaluation loop that stops — changes the run's results without a trace, so
// the rejection fails the run.
func scheduleFollowUp(env *core.Env, at sim.Time, suffix string, fn sim.Handler) {
	env.Engine.NoteError(env.Schedule(at, suffix, fn))
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

// Inject implements core.Injector.
func (hf HostFailures) Inject(env *core.Env) error {
	if hf.Count < 0 || hf.Fraction < 0 || hf.Fraction > 1 {
		return fmt.Errorf("host-failures: bad count=%d fraction=%g", hf.Count, hf.Fraction)
	}
	fail := func(now sim.Time) {
		active := inService(env.Fleet.Hosts())
		if failed := pickVictims(active, hf.Count, hf.Fraction, injectionStream(env, hf.Salt)); len(failed) > 0 {
			outage(env, failed, now, hf.Recover)
		}
	}
	return env.Schedule(hf.At, "fail", fail)
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

// Inject implements core.Injector.
func (o AZOutage) Inject(env *core.Env) error {
	azs := env.Region.AZs
	if len(azs) == 0 {
		return fmt.Errorf("az-outage: region has no availability zones")
	}
	az := azs[((o.AZIndex%len(azs))+len(azs))%len(azs)]
	// The whole zone goes dark at once, then residents evacuate to the
	// surviving zones. The restore is scheduled even when the zone had no
	// host in service.
	dark := func(now sim.Time) {
		var zone []*esx.Host
		for _, dc := range az.DCs {
			for _, bb := range dc.BBs {
				zone = append(zone, env.Fleet.HostsInBB(bb)...)
			}
		}
		outage(env, inService(zone), now, o.Duration)
	}
	return env.Schedule(o.At, "outage", dark)
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
	for i, n := range bb.Nodes {
		h, err := env.Fleet.Host(n.ID)
		if err != nil {
			return fmt.Errorf("maintenance-drain: %w", err)
		}
		drainAt := d.At + sim.Time(i)*every
		if err := env.Schedule(drainAt, "drain", func(now sim.Time) {
			outage(env, []*esx.Host{h}, now, 0)
		}); err != nil {
			return fmt.Errorf("maintenance-drain: %w", err)
		}
		if err := env.Schedule(drainAt+hold, "undrain", func(sim.Time) {
			restoreHosts(env, []*esx.Host{h})
		}); err != nil {
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
	for i := 0; i < bursts; i++ {
		bb := blocks[perm[i%len(blocks)]]
		burstRNG := rand.New(rand.NewPCG(env.Config.Seed, 0xb325^cf.Salt^uint64(i)))
		if err := env.Schedule(cf.At+sim.Time(i)*spacing, "burst", func(now sim.Time) {
			active := inService(env.Fleet.HostsInBB(bb))
			if failed := pickVictims(active, 0, fraction, burstRNG); len(failed) > 0 {
				outage(env, failed, now, cf.Recover)
			}
		}); err != nil {
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
	p := base * (1 + float64(gain*load*load)) // rounded: never fused
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
	// round, keeps the cascade bit-for-bit deterministic per seed.
	rng := injectionStream(env, 0xca5cade^cf.Salt)
	end := start + duration
	var evaluate func(now sim.Time)
	evaluate = func(now sim.Time) {
		var failed []*esx.Host
		for _, h := range inService(env.Fleet.Hosts()) { // sorted by node ID
			load := hostLoad(h)
			if rng.Float64() < cf.hazard(load) {
				failed = append(failed, h)
				if cf.OnFail != nil {
					cf.OnFail(h.Node.ID, load, now)
				}
			}
		}
		if len(failed) > 0 {
			outage(env, failed, now, cf.Recover)
		}
		if next := now + every; next < end {
			scheduleFollowUp(env, next, "eval", evaluate)
		}
	}
	return env.Schedule(start, "eval", evaluate)
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
	for i, bb := range bbs {
		if err := env.Schedule(ce.At+sim.Time(i)*every, "arrive", func(sim.Time) {
			for _, n := range bb.Nodes {
				env.BringUp(n)
			}
			env.Engine.NoteError(env.Scheduler.RegisterBB(bb))
		}); err != nil {
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
	return env.Schedule(w.At, "wave", wave)
}
