package nova

import (
	"errors"
	"fmt"

	"sapsim/internal/engprof"
	"sapsim/internal/esx"
	"sapsim/internal/placement"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// NodePolicy selects the node inside a chosen building block. In
// production this is vCenter/DRS territory (the second scheduling layer,
// Sec. 3.1); the simulator models the common initial-placement policies.
type NodePolicy int

const (
	// SpreadNodes picks the active node with the most free memory.
	SpreadNodes NodePolicy = iota
	// PackNodes picks the fullest active node that still fits (memory
	// bin-packing, used for HANA blocks).
	PackNodes
)

// Config assembles a scheduler.
type Config struct {
	Filters  []Filter
	Weighers []Weigher
	// MaxAttempts bounds the claim-retry loop (Nova's
	// scheduler_max_attempts); the greedy retry behavior is described in
	// Sec. 2.2.
	MaxAttempts int
	// GeneralNodePolicy and HANANodePolicy pick nodes within the chosen
	// BB per workload class.
	GeneralNodePolicy NodePolicy
	HANANodePolicy    NodePolicy
}

// DefaultConfig is the SAP production configuration: default filters,
// RAM/CPU weighers with HANA packing, spread nodes for general workloads,
// pack nodes for HANA.
func DefaultConfig() Config {
	return Config{
		Filters:           DefaultFilters(),
		Weighers:          DefaultWeighers(),
		MaxAttempts:       3,
		GeneralNodePolicy: SpreadNodes,
		HANANodePolicy:    PackNodes,
	}
}

// Scheduler is the Nova scheduler plus conductor glue: it turns a request
// spec into a concrete (building block, node) assignment, claiming
// resources in placement and admitting the VM on the hypervisor.
type Scheduler struct {
	cfg       Config
	fleet     *esx.Fleet
	placement *placement.Service

	// Incremental candidate inventory: one entry per building block, name-
	// sorted (the order placement.Candidates returns), mirroring the
	// placement service so the per-request scan touches no maps or locks.
	entries []*bbEntry
	byBB    map[topology.BBID]*bbEntry
	// asks records each consumer's claimed amounts for mirror rollback.
	asks map[string]askRec

	// groups tracks server-group membership per VM so deletions release
	// the policy hold.
	groups map[vmmodel.ID]*ServerGroup

	// Scratch buffers reused across Schedule calls.
	ask     placement.Request
	reasons map[string]int
	hosts   []*HostState
	rbuf    rankBuf

	// stats
	scheduled  int
	failed     int
	retries    int
	eliminated map[string]int
	contention map[topology.BBID]float64 // fed by telemetry for the contention weigher

	// prof, when set, receives filter/weigh/claim sub-phase attribution.
	// These are nested spans: their wall time is already inside the
	// arrive/resize event interval the engine attributes, so the profiler
	// reports them as detail, not additional total.
	prof *engprof.Collector
}

// SetProfiler attaches the engine self-profiler's collector; nil detaches.
func (s *Scheduler) SetProfiler(p *engprof.Collector) { s.prof = p }

// NewScheduler wires a scheduler to a fleet and placement service, creating
// one resource provider per building block.
func NewScheduler(fleet *esx.Fleet, pl *placement.Service, cfg Config) (*Scheduler, error) {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	s := &Scheduler{
		cfg:        cfg,
		fleet:      fleet,
		placement:  pl,
		byBB:       make(map[topology.BBID]*bbEntry),
		asks:       make(map[string]askRec),
		groups:     make(map[vmmodel.ID]*ServerGroup),
		ask:        make(placement.Request, 2),
		reasons:    make(map[string]int),
		eliminated: make(map[string]int),
		contention: make(map[topology.BBID]float64),
	}
	for _, bb := range fleet.Region().BBs() {
		alloc := fleet.BBAlloc(bb)
		inv := map[placement.ResourceClass]placement.Inventory{
			placement.VCPU:     {Total: int64(alloc.VCPUCap), AllocationRatio: 1},
			placement.MemoryMB: {Total: alloc.MemCapMB, AllocationRatio: 1},
		}
		if _, err := pl.CreateProvider(string(bb.ID), inv, TraitsOfBB(bb)...); err != nil {
			return nil, fmt.Errorf("nova: provider for %s: %w", bb.ID, err)
		}
		s.addEntry(newEntry(bb, alloc))
	}
	return s, nil
}

// SetContention feeds recent per-BB contention telemetry to the
// contention-aware weigher.
func (s *Scheduler) SetContention(bb topology.BBID, pct float64) {
	s.contention[bb] = pct
}

// Stats summarizes scheduler activity.
type Stats struct {
	Scheduled  int
	Failed     int
	Retries    int
	Eliminated map[string]int
}

// Stats returns a copy of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	el := make(map[string]int, len(s.eliminated))
	for k, v := range s.eliminated {
		el[k] = v
	}
	return Stats{Scheduled: s.scheduled, Failed: s.failed, Retries: s.retries, Eliminated: el}
}

// Result describes a successful placement.
type Result struct {
	BB       *topology.BuildingBlock
	Node     *topology.Node
	Attempts int
}

// Schedule places the VM: candidate scan → filters → weighers → claim →
// node selection → hypervisor admission. It retries down the ranked list,
// reproducing Nova's greedy retry behavior (Sec. 2.2). Candidates come from
// the scheduler's incremental inventory mirror — same set, same name order
// as the placement query it replaces — so the hot path allocates nothing on
// a first-attempt success.
func (s *Scheduler) Schedule(req *RequestSpec, now sim.Time) (*Result, error) {
	f := req.Flavor()
	askVCPU := int64(f.VCPUs)
	askMem := req.VM.RequestedMemoryMB()
	traits := vmFlavorTraits{requireGPU: f.RequireGPU, hana: f.Class == vmmodel.HANA}

	prof := s.prof
	var mark int64
	if prof != nil {
		mark = prof.Start()
	}
	clear(s.reasons)
	s.hosts = s.hosts[:0]
	for _, e := range s.entries {
		if !e.matches(&traits) ||
			e.vcpuCap-e.vcpuUsed < askVCPU || e.memCap-e.memUsed < askMem {
			continue
		}
		e.state.Alloc = s.fleet.BBAlloc(e.bb)
		e.state.AvgContentionPct = s.contention[e.bb.ID]
		if passed := s.applyFilters(req, &e.state, s.reasons); passed {
			s.hosts = append(s.hosts, &e.state)
		}
	}
	if prof != nil {
		prof.EndSpan(engprof.PhaseSchedFilter, mark, int64(len(s.entries)))
	}
	if len(s.hosts) == 0 {
		s.failed++
		return nil, &NoValidHostError{VM: req.VM.ID, Reasons: copyReasons(s.reasons)}
	}

	if prof != nil {
		mark = prof.Start()
	}
	ranked := s.rbuf.rank(req, s.hosts, s.cfg.Weighers)
	if prof != nil {
		prof.EndSpan(engprof.PhaseSchedWeigh, mark, int64(len(s.hosts)))
		mark = prof.Start()
	}
	attempts := 0
	for _, h := range ranked {
		if attempts >= s.cfg.MaxAttempts {
			break
		}
		attempts++
		node := s.selectNode(h.BB, f)
		if node == nil {
			// Aggregate capacity exists but no single node fits: the
			// fragmentation case. Retry the next host.
			s.retries++
			s.reasons["NodeFragmentation"]++
			continue
		}
		if err := s.claim(string(req.VM.ID), s.byBB[h.BB.ID], askVCPU, askMem); err != nil {
			s.retries++
			s.reasons["ClaimConflict"]++
			continue
		}
		if err := s.fleet.Place(req.VM, node, now); err != nil {
			// Roll back the claim and retry elsewhere. The release cannot
			// fail: its one error is an unknown consumer, and the claim
			// above just recorded this one.
			_ = s.release(string(req.VM.ID))
			s.retries++
			s.reasons["AdmissionFailed"]++
			continue
		}
		s.scheduled++
		if req.Group != nil {
			req.Group.record(req.VM.ID, h.BB.ID)
			s.groups[req.VM.ID] = req.Group
		}
		if prof != nil {
			prof.EndSpan(engprof.PhaseSchedClaim, mark, int64(attempts))
		}
		return &Result{BB: h.BB, Node: node, Attempts: attempts}, nil
	}
	if prof != nil {
		prof.EndSpan(engprof.PhaseSchedClaim, mark, int64(attempts))
	}
	s.failed++
	return nil, &NoValidHostError{VM: req.VM.ID, Reasons: copyReasons(s.reasons)}
}

func (s *Scheduler) applyFilters(req *RequestSpec, h *HostState, reasons map[string]int) bool {
	for _, f := range s.cfg.Filters {
		if !f.Pass(req, h) {
			reasons[f.Name()]++
			s.eliminated[f.Name()]++
			return false
		}
	}
	return true
}

// selectNode picks a node within the building block per the class policy,
// or nil when no node fits. A single argmin pass replaces sorting the whole
// fitting slice: the comparator is a strict total order (unique node IDs
// break ties), so the minimum is the element the sort put first.
func (s *Scheduler) selectNode(bb *topology.BuildingBlock, f *vmmodel.Flavor) *topology.Node {
	policy := s.cfg.GeneralNodePolicy
	if f.Class == vmmodel.HANA {
		policy = s.cfg.HANANodePolicy
	}
	var best *esx.Host
	var bestFree int64
	s.fleet.EachHostInBB(bb, func(h *esx.Host) {
		if !h.Fits(f) {
			return
		}
		free := h.FreeMemMB()
		if best == nil {
			best, bestFree = h, free
			return
		}
		switch {
		case free != bestFree:
			if policy == PackNodes {
				if free < bestFree {
					best, bestFree = h, free
				}
			} else if free > bestFree { // SpreadNodes
				best, bestFree = h, free
			}
		case h.Node.ID < best.Node.ID:
			best = h
		}
	})
	if best == nil {
		return nil
	}
	return best.Node
}

// Delete releases a VM: hypervisor eviction plus placement release plus
// server-group membership.
func (s *Scheduler) Delete(vm *vmmodel.VM, now sim.Time) error {
	if err := s.fleet.Remove(vm, now); err != nil {
		return err
	}
	if g, ok := s.groups[vm.ID]; ok {
		g.forget(vm.ID)
		delete(s.groups, vm.ID)
	}
	if err := s.release(string(vm.ID)); err != nil &&
		!errors.Is(err, placement.ErrUnknownConsumer) {
		return err
	}
	return nil
}

// Resize changes a VM's flavor, re-running placement with the new resource
// ask (a resize is one of the scheduler-triggering events of Sec. 2.2). The
// VM keeps running on its node when the node can absorb the delta;
// otherwise it is rescheduled like a fresh request. On failure the VM is
// restored to its original node and flavor.
func (s *Scheduler) Resize(vm *vmmodel.VM, newFlavor *vmmodel.Flavor, now sim.Time) (*Result, error) {
	if newFlavor == nil {
		return nil, errors.New("nova: nil flavor")
	}
	oldFlavor := vm.Flavor
	oldNode := vm.Node
	if oldNode == nil {
		return nil, fmt.Errorf("nova: resize of unplaced VM %s", vm.ID)
	}
	// Free the current footprint.
	if err := s.fleet.Evict(vm); err != nil {
		return nil, err
	}
	if err := s.release(string(vm.ID)); err != nil &&
		!errors.Is(err, placement.ErrUnknownConsumer) {
		return nil, err
	}
	vm.Flavor = newFlavor
	res, err := s.Schedule(&RequestSpec{VM: vm}, now)
	if err == nil {
		return res, nil
	}
	// Roll back: old flavor, old node, old claim.
	vm.Flavor = oldFlavor
	if cerr := s.claim(string(vm.ID), s.byBB[oldNode.BB.ID],
		int64(oldFlavor.VCPUs), vm.RequestedMemoryMB()); cerr != nil {
		return nil, fmt.Errorf("nova: resize rollback claim: %w (after %w)", cerr, err)
	}
	if perr := s.fleet.Place(vm, oldNode, now); perr != nil {
		return nil, fmt.Errorf("nova: resize rollback place: %w (after %w)", perr, err)
	}
	return nil, err
}

// Evacuate reschedules a VM off its current (failed or draining) host
// through the normal pipeline: evict, release the placement claim, and run a
// fresh Schedule. On failure the VM is left unplaced in the Migrating state
// and the scheduling error is returned — production evacuations end up in
// the ERROR state the same way when no valid host exists.
func (s *Scheduler) Evacuate(vm *vmmodel.VM, now sim.Time) (*Result, error) {
	if vm.Node == nil {
		return nil, fmt.Errorf("nova: evacuation of unplaced VM %s", vm.ID)
	}
	if err := s.fleet.Evict(vm); err != nil {
		return nil, err
	}
	if err := s.release(string(vm.ID)); err != nil &&
		!errors.Is(err, placement.ErrUnknownConsumer) {
		return nil, err
	}
	res, err := s.Schedule(&RequestSpec{VM: vm}, now)
	if err != nil {
		return nil, err
	}
	vm.Migrations++
	return res, nil
}

// RefreshInventory re-syncs a building block's placement inventory with the
// fleet's current active-node capacity. Callers invoke it when nodes fail,
// enter maintenance, or return to service, so the placement view tracks the
// shrunken (or restored) building block.
func (s *Scheduler) RefreshInventory(bb *topology.BuildingBlock) error {
	alloc := s.fleet.BBAlloc(bb)
	if err := s.placement.UpdateInventory(string(bb.ID), placement.VCPU,
		placement.Inventory{Total: int64(alloc.VCPUCap), AllocationRatio: 1}); err != nil {
		return err
	}
	if err := s.placement.UpdateInventory(string(bb.ID), placement.MemoryMB,
		placement.Inventory{Total: alloc.MemCapMB, AllocationRatio: 1}); err != nil {
		return err
	}
	if e, ok := s.byBB[bb.ID]; ok {
		e.vcpuCap = int64(alloc.VCPUCap)
		e.memCap = alloc.MemCapMB
	}
	return nil
}

// RefreshAllInventories re-reads capacity for every registered building
// block, in name order. Snapshot restore calls it after overlaying node
// service state so every provider inventory reflects the restored fleet
// before allocations are re-claimed.
func (s *Scheduler) RefreshAllInventories() error {
	for _, e := range s.entries {
		if err := s.RefreshInventory(e.bb); err != nil {
			return err
		}
	}
	return nil
}

// RegisterBB creates a placement resource provider for a building block
// added to the region after scheduler construction — a mid-run capacity
// expansion. For a block that already has a provider it degrades to
// RefreshInventory, so callers can use it idempotently for both brand-new
// and grown blocks.
func (s *Scheduler) RegisterBB(bb *topology.BuildingBlock) error {
	alloc := s.fleet.BBAlloc(bb)
	inv := map[placement.ResourceClass]placement.Inventory{
		placement.VCPU:     {Total: int64(alloc.VCPUCap), AllocationRatio: 1},
		placement.MemoryMB: {Total: alloc.MemCapMB, AllocationRatio: 1},
	}
	if _, err := s.placement.CreateProvider(string(bb.ID), inv, TraitsOfBB(bb)...); err != nil {
		if errors.Is(err, placement.ErrDuplicateProvider) {
			return s.RefreshInventory(bb)
		}
		return fmt.Errorf("nova: provider for %s: %w", bb.ID, err)
	}
	s.addEntry(newEntry(bb, alloc))
	return nil
}

// RestoreAllocation re-creates the placement claim and inventory-mirror
// hold for a VM resident in the fleet — snapshot restore re-admits each
// live VM onto its recorded node and then calls this to bring the placement
// view back in sync, exactly as the original Schedule's claim left it.
func (s *Scheduler) RestoreAllocation(vm *vmmodel.VM) error {
	if vm.Node == nil {
		return fmt.Errorf("nova: restore allocation of unplaced VM %s", vm.ID)
	}
	e, ok := s.byBB[vm.Node.BB.ID]
	if !ok {
		return fmt.Errorf("nova: restore allocation: unknown BB %s", vm.Node.BB.ID)
	}
	return s.claim(string(vm.ID), e, int64(vm.Flavor.VCPUs), vm.RequestedMemoryMB())
}

// RestoreStats overwrites the scheduler's counters from a snapshot.
func (s *Scheduler) RestoreStats(st Stats) {
	s.scheduled = st.Scheduled
	s.failed = st.Failed
	s.retries = st.Retries
	clear(s.eliminated)
	for k, v := range st.Eliminated {
		s.eliminated[k] = v
	}
}

// Contention returns a copy of the per-BB contention view fed through
// SetContention, for snapshotting.
func (s *Scheduler) Contention() map[topology.BBID]float64 {
	out := make(map[topology.BBID]float64, len(s.contention))
	for k, v := range s.contention {
		out[k] = v
	}
	return out
}

// MoveBB migrates a VM to a node in a different building block, updating
// the placement allocation (cross-BB rebalancing requires "manual
// intervention or external rebalancers", Sec. 3.1).
func (s *Scheduler) MoveBB(vm *vmmodel.VM, to *topology.Node, now sim.Time) error {
	if vm.Node != nil && vm.Node.BB != to.BB {
		if err := s.placement.Move(string(vm.ID), string(to.BB.ID)); err != nil {
			return err
		}
		if e, ok := s.byBB[to.BB.ID]; ok {
			s.moveMirror(string(vm.ID), e)
		}
	}
	return s.fleet.Migrate(vm, to, now)
}
