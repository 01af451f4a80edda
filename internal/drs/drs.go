// Package drs models the VMware Distributed Resource Scheduler: the second
// scheduling layer that dynamically balances VM load *within* a vSphere
// cluster (building block). The DRS "is configured to monitor the load of
// the ESXi hosts and triggers automatic migrations of VMs from over-utilized
// to less utilized hosts" (Sec. 3.1).
//
// Imbalance *across* building blocks is out of DRS scope and needs an
// external rebalancer (also here, CrossBB), matching the paper's
// observation that such imbalances "require manual intervention or external
// rebalancers".
package drs

import (
	"sort"

	"sapsim/internal/engprof"
	"sapsim/internal/esx"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// Config tunes the rebalancer.
type Config struct {
	// CPUImbalancePct triggers migration when the spread between the
	// most and least CPU-utilized node of a BB exceeds this many
	// percentage points.
	CPUImbalancePct float64
	// MemImbalancePct is the analogous memory trigger.
	MemImbalancePct float64
	// MaxMigrationsPerPass bounds migrations per BB per invocation;
	// DRS is deliberately conservative because each migration costs
	// performance (Sec. 3.2, "avoiding migration of heavy VMs").
	MaxMigrationsPerPass int
	// MaxVMMemGiB skips VMs above this size: migrating memory-heavy VMs
	// moves large datasets and should be avoided (Sec. 3.2).
	MaxVMMemGiB int
}

// DefaultConfig mirrors a moderately aggressive DRS posture.
func DefaultConfig() Config {
	return Config{
		CPUImbalancePct:      20,
		MemImbalancePct:      25,
		MaxMigrationsPerPass: 2,
		MaxVMMemGiB:          512,
	}
}

// DRS rebalances building blocks of a fleet.
type DRS struct {
	fleet *esx.Fleet
	cfg   Config

	// OnMigrate, when set, observes every completed migration (the
	// event stream of Sec. 4).
	OnMigrate func(vm *vmmodel.VM, from, to *topology.Node, now sim.Time)
	// OnDecide, when set, observes every migration decision with the
	// decision-time CPU loads of the chosen source and destination. The
	// invariant test suite uses it to assert DRS never migrates toward a
	// fuller host.
	OnDecide func(vm *vmmodel.VM, srcCPUPct, dstCPUPct float64, now sim.Time)

	migrations int
	passes     int

	// loadBuf is the scratch slice loads sorts into, reused across passes.
	// Between the iterations of one pass only the migration's source and
	// destination hosts recompute their snapshots (the others are served
	// from the host snapshot cache keyed on the unchanged resident set).
	loadBuf []nodeLoad

	// prof, when set, receives scan/decide sub-phase attribution (nested
	// inside the drs tick event the engine attributes).
	prof *engprof.Collector
}

// SetProfiler attaches the engine self-profiler's collector; nil detaches.
func (d *DRS) SetProfiler(p *engprof.Collector) { d.prof = p }

// New returns a DRS bound to the fleet.
func New(fleet *esx.Fleet, cfg Config) *DRS {
	if cfg.MaxMigrationsPerPass <= 0 {
		cfg.MaxMigrationsPerPass = 2
	}
	if cfg.MaxVMMemGiB <= 0 {
		cfg.MaxVMMemGiB = 512
	}
	return &DRS{fleet: fleet, cfg: cfg}
}

// Migrations reports the total migrations performed.
func (d *DRS) Migrations() int { return d.migrations }

// Passes reports how many rebalance passes ran.
func (d *DRS) Passes() int { return d.passes }

// RestoreCounters overwrites the migration and pass counters from a
// snapshot.
func (d *DRS) RestoreCounters(migrations, passes int) {
	d.migrations = migrations
	d.passes = passes
}

// nodeLoad captures one node's instantaneous load.
type nodeLoad struct {
	host *esx.Host
	cpu  float64 // CPU demand as % of physical cores (can exceed 100)
	mem  float64 // memory usage %
}

// loads snapshots the active nodes of the BB, sorted by ascending CPU load.
// The returned slice aliases d.loadBuf and is valid until the next call.
func (d *DRS) loads(bb *topology.BuildingBlock, now sim.Time) []nodeLoad {
	d.loadBuf = d.loadBuf[:0]
	d.fleet.EachHostInBB(bb, func(h *esx.Host) {
		if h.Node.Maintenance {
			return
		}
		m := h.Snapshot(now, sim.Minute)
		// Reconstruct raw demand: utilization is capped at 100, so add
		// back the contention share to order saturated nodes correctly.
		cpu := m.CPUUtilPct
		if m.CPUContentionPct > 0 {
			cpu = m.CPUUtilPct / (1 - m.CPUContentionPct/100)
		}
		d.loadBuf = append(d.loadBuf, nodeLoad{host: h, cpu: cpu, mem: m.MemUsagePct})
	})
	out := d.loadBuf
	sort.Slice(out, func(i, j int) bool {
		if out[i].cpu != out[j].cpu {
			return out[i].cpu < out[j].cpu
		}
		return out[i].host.Node.ID < out[j].host.Node.ID
	})
	return out
}

// RebalanceBB runs one DRS pass over a building block and returns the
// number of migrations performed.
func (d *DRS) RebalanceBB(bb *topology.BuildingBlock, now sim.Time) int {
	d.passes++
	moved := 0
	for moved < d.cfg.MaxMigrationsPerPass {
		var mark int64
		if d.prof != nil {
			mark = d.prof.Start()
		}
		loads := d.loads(bb, now)
		if d.prof != nil {
			d.prof.EndSpan(engprof.PhaseDRSScan, mark, int64(len(loads)))
			mark = d.prof.Start()
		}
		moreToDo, migrated := d.decide(loads, now)
		if d.prof != nil {
			d.prof.EndSpan(engprof.PhaseDRSDecide, mark, int64(migrated))
		}
		moved += migrated
		if !moreToDo {
			return moved
		}
	}
	return moved
}

// decide runs the decision half of one rebalance iteration over a scanned
// load slice: imbalance test, victim selection, migration. It reports
// whether the pass should scan again and how many migrations it performed
// (0 or 1).
func (d *DRS) decide(loads []nodeLoad, now sim.Time) (more bool, migrated int) {
	if len(loads) < 2 {
		return false, 0
	}
	coldest, hottest := loads[0], loads[len(loads)-1]
	cpuGap := hottest.cpu - coldest.cpu
	memGap := hottest.mem - coldest.mem
	if cpuGap < d.cfg.CPUImbalancePct && memGap < d.cfg.MemImbalancePct {
		return false, 0
	}
	vm := d.pickVM(hottest.host, coldest.host, now)
	if vm == nil {
		return false, 0
	}
	if d.OnDecide != nil {
		d.OnDecide(vm, hottest.cpu, coldest.cpu, now)
	}
	from := hottest.host.Node
	if err := d.fleet.Migrate(vm, coldest.host.Node, now); err != nil {
		return false, 0
	}
	d.migrations++
	if d.OnMigrate != nil {
		d.OnMigrate(vm, from, coldest.host.Node, now)
	}
	return true, 1
}

// pickVM chooses the migration candidate: the VM with the highest CPU
// demand that (a) fits the target, (b) is below the memory-weight cutoff,
// and (c) would not immediately overload the target.
func (d *DRS) pickVM(src, dst *esx.Host, now sim.Time) *vmmodel.VM {
	dstSnap := dst.Snapshot(now, sim.Minute)
	dstCores := float64(dst.Node.Capacity.PCPUCores)
	var best *vmmodel.VM
	bestDemand := -1.0
	// loads has just snapshotted src at now: its per-resident demand is cached.
	src.EachVMDemand(now, func(vm *vmmodel.VM, cpu float64) {
		if vm.Flavor.RAMGiB > d.cfg.MaxVMMemGiB {
			return
		}
		if !dst.Fits(vm.Flavor) {
			return
		}
		demand := cpu * float64(vm.RequestedCPUCores())
		// Would the move overload the destination?
		if dstSnap.CPUUtilPct+demand/dstCores*100 > 90 {
			return
		}
		if demand > bestDemand {
			bestDemand = demand
			best = vm
		}
	})
	return best
}

// RebalanceAll runs one pass over every building block of the region.
func (d *DRS) RebalanceAll(now sim.Time) int {
	total := 0
	for _, bb := range d.fleet.Region().BBs() {
		total += d.RebalanceBB(bb, now)
	}
	return total
}

// CrossBB is the external rebalancer that moves VMs between building
// blocks of the same kind within a data center. It needs a mover capable of
// updating placement allocations (nova.Scheduler.MoveBB).
type CrossBB struct {
	fleet *esx.Fleet
	move  func(vm *vmmodel.VM, to *topology.Node, now sim.Time) error
	// OnMigrate observes completed cross-BB moves.
	OnMigrate func(vm *vmmodel.VM, from, to *topology.Node, now sim.Time)
	// TriggerPct is the allocation-imbalance trigger between the
	// most and least memory-allocated BBs of the same kind.
	TriggerPct float64
	// MaxMovesPerPass bounds cross-BB migrations, which are costlier
	// than intra-BB ones.
	MaxMovesPerPass int

	moves int
}

// NewCrossBB builds the external rebalancer.
func NewCrossBB(fleet *esx.Fleet, move func(*vmmodel.VM, *topology.Node, sim.Time) error) *CrossBB {
	return &CrossBB{fleet: fleet, move: move, TriggerPct: 25, MaxMovesPerPass: 2}
}

// Moves reports total cross-BB migrations.
func (c *CrossBB) Moves() int { return c.moves }

// RestoreMoves overwrites the move counter from a snapshot.
func (c *CrossBB) RestoreMoves(moves int) { c.moves = moves }

// Rebalance runs one pass per data center and BB kind.
func (c *CrossBB) Rebalance(now sim.Time) int {
	total := 0
	for _, dc := range c.fleet.Region().Datacenters() {
		byKind := map[topology.BBKind][]*topology.BuildingBlock{}
		for _, bb := range dc.BBs {
			if bb.Reserved {
				continue // failover reserve stays empty
			}
			byKind[bb.Kind] = append(byKind[bb.Kind], bb)
		}
		// Kinds in fixed order: ranging over the map directly would order
		// same-tick migrations differently from run to run, breaking the
		// engine's determinism guarantee (and the byte-identical event
		// logs the snapshot round-trip and sweep tests pin).
		kinds := make([]topology.BBKind, 0, len(byKind))
		for kind := range byKind {
			kinds = append(kinds, kind)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, kind := range kinds {
			total += c.rebalanceGroup(byKind[kind], now)
		}
	}
	return total
}

// allocPct reports a BB's memory allocation percentage.
func (c *CrossBB) allocPct(bb *topology.BuildingBlock) float64 {
	a := c.fleet.BBAlloc(bb)
	if a.MemCapMB == 0 {
		return 0
	}
	return float64(a.MemAllocMB) / float64(a.MemCapMB) * 100
}

func (c *CrossBB) rebalanceGroup(bbs []*topology.BuildingBlock, now sim.Time) int {
	if len(bbs) < 2 {
		return 0
	}
	moved := 0
	for moved < c.MaxMovesPerPass {
		sort.Slice(bbs, func(i, j int) bool {
			pi, pj := c.allocPct(bbs[i]), c.allocPct(bbs[j])
			if pi != pj {
				return pi < pj
			}
			return bbs[i].ID < bbs[j].ID
		})
		coldBB, hotBB := bbs[0], bbs[len(bbs)-1]
		if c.allocPct(hotBB)-c.allocPct(coldBB) < c.TriggerPct {
			return moved
		}
		vm, node := c.pickMove(hotBB, coldBB)
		if vm == nil {
			return moved
		}
		from := vm.Node
		if err := c.move(vm, node, now); err != nil {
			return moved
		}
		moved++
		c.moves++
		if c.OnMigrate != nil {
			c.OnMigrate(vm, from, node, now)
		}
	}
	return moved
}

// pickMove selects the largest movable VM on the hot BB and a fitting node
// on the cold BB.
func (c *CrossBB) pickMove(hot, cold *topology.BuildingBlock) (*vmmodel.VM, *topology.Node) {
	var candidates []*vmmodel.VM
	for _, h := range c.fleet.HostsInBB(hot) {
		candidates = append(candidates, h.VMs()...)
	}
	// Prefer moving mid-sized VMs: large enough to matter, small enough
	// to avoid heavy-migration costs.
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Flavor.RAMGiB != candidates[j].Flavor.RAMGiB {
			return candidates[i].Flavor.RAMGiB > candidates[j].Flavor.RAMGiB
		}
		return candidates[i].ID < candidates[j].ID
	})
	targets := c.fleet.HostsInBB(cold)
	for _, vm := range candidates {
		if vm.Flavor.RAMGiB > 512 {
			continue
		}
		for _, h := range targets {
			if !h.Node.Maintenance && h.Fits(vm.Flavor) {
				return vm, h.Node
			}
		}
	}
	return nil, nil
}
