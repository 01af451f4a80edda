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

	// states holds one persistent HostState per building block, indexed by
	// its placement provider's creation index; a candidate's Alloc and
	// AvgContentionPct are refreshed per request.
	states []*HostState

	// groups tracks server-group membership per VM so deletions release
	// the policy hold.
	groups map[vmmodel.ID]*ServerGroup

	// Scratch buffers reused across Schedule calls.
	cands   []placement.Provider
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

// NewScheduler wires a scheduler to a fleet and a fresh placement service,
// registering one resource provider per building block. The scheduler is
// the service's sole writer.
func NewScheduler(fleet *esx.Fleet, pl *placement.Service, cfg Config) (*Scheduler, error) {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	s := &Scheduler{
		cfg:        cfg,
		fleet:      fleet,
		placement:  pl,
		groups:     make(map[vmmodel.ID]*ServerGroup),
		reasons:    make(map[string]int),
		eliminated: make(map[string]int),
		contention: make(map[topology.BBID]float64),
	}
	for _, bb := range fleet.Region().BBs() {
		if err := s.RegisterBB(bb); err != nil {
			return nil, err
		}
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
// reproducing Nova's greedy retry behavior (Sec. 2.2). Candidates are one
// placement query into a reused buffer, so the hot path allocates only the
// Result on a first-attempt success.
func (s *Scheduler) Schedule(req *RequestSpec, now sim.Time) (*Result, error) {
	f := req.Flavor()
	prof := s.prof
	var mark int64
	if prof != nil {
		mark = prof.Start()
	}
	clear(s.reasons)
	s.hosts = s.hosts[:0]
	s.cands = s.placement.Candidates(askOf(req.VM), s.cands[:0])
	for i := range s.cands {
		h := s.states[s.cands[i].Index]
		h.Alloc = s.fleet.BBAlloc(h.BB)
		h.AvgContentionPct = s.contention[h.BB.ID]
		if s.applyFilters(req, h, s.reasons) {
			s.hosts = append(s.hosts, h)
		}
	}
	if prof != nil {
		prof.EndSpan(engprof.PhaseSchedFilter, mark, int64(len(s.states)))
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
		if err := s.claim(req.VM, h.BB); err != nil {
			s.retries++
			s.reasons["ClaimConflict"]++
			continue
		}
		if err := s.fleet.Place(req.VM, node, now); err != nil {
			// Roll back the claim and retry elsewhere.
			_ = s.release(req.VM)
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

// copyReasons snapshots the scratch elimination counters for an error that
// outlives the scheduling call.
func copyReasons(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
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
	for _, h := range s.fleet.HostsInBB(bb) {
		if !h.Fits(f) {
			continue
		}
		free := h.FreeMemMB()
		if best == nil {
			best, bestFree = h, free
			continue
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
	}
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
	return s.release(vm)
}

// Resize changes a VM's flavor, re-running placement with the new resource
// ask (a resize is one of the scheduler-triggering events of Sec. 2.2). The
// VM keeps running on its node when the node can absorb the delta;
// otherwise it is rescheduled like a fresh request. On failure the VM is
// restored to its original node and flavor; when the old node no longer
// admits it either, the VM is left unplaced without a placement claim, as a
// failed evacuation leaves it.
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
	if err := s.release(vm); err != nil {
		return nil, err
	}
	vm.Flavor = newFlavor
	res, err := s.Schedule(&RequestSpec{VM: vm}, now)
	if err == nil {
		return res, nil
	}
	// Roll back: old flavor, old node, old claim.
	vm.Flavor = oldFlavor
	if cerr := s.claim(vm, oldNode.BB); cerr != nil {
		return nil, fmt.Errorf("nova: resize rollback claim: %w (after %w)", cerr, err)
	}
	if perr := s.fleet.Place(vm, oldNode, now); perr != nil {
		_ = s.release(vm)
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
	if err := s.release(vm); err != nil {
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
// shrunken (or restored) building block. A block with no provider yields an
// error wrapping placement.ErrUnknownProvider.
func (s *Scheduler) RefreshInventory(bb *topology.BuildingBlock) error {
	alloc := s.fleet.BBAlloc(bb)
	return s.placement.SetCapacity(string(bb.ID), int64(alloc.VCPUCap), alloc.MemCapMB)
}

// RegisterBB creates a placement resource provider for a building block
// added to the region after scheduler construction — a mid-run capacity
// expansion. For a block that already has a provider it degrades to
// RefreshInventory, so callers can use it idempotently for both brand-new
// and grown blocks.
func (s *Scheduler) RegisterBB(bb *topology.BuildingBlock) error {
	alloc := s.fleet.BBAlloc(bb)
	err := s.placement.CreateProvider(string(bb.ID), traitsOf(bb), int64(alloc.VCPUCap), alloc.MemCapMB)
	if errors.Is(err, placement.ErrDuplicateProvider) {
		return s.RefreshInventory(bb)
	}
	if err != nil {
		return fmt.Errorf("nova: provider for %s: %w", bb.ID, err)
	}
	// The scheduler is the service's sole writer, so the new provider's
	// creation index is len(s.states).
	s.states = append(s.states, &HostState{BB: bb})
	return nil
}

// claim allocates the VM's current flavor against the building block's
// placement provider.
func (s *Scheduler) claim(vm *vmmodel.VM, bb *topology.BuildingBlock) error {
	return s.placement.Claim(string(vm.ID), string(bb.ID), int64(vm.Flavor.VCPUs), vm.RequestedMemoryMB())
}

// release frees the VM's placement allocation; a VM that holds none is not
// an error.
func (s *Scheduler) release(vm *vmmodel.VM) error {
	if err := s.placement.Release(string(vm.ID)); !errors.Is(err, placement.ErrUnknownConsumer) {
		return err
	}
	return nil
}

// Contention returns a copy of the per-BB contention view fed through
// SetContention.
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
	}
	return s.fleet.Migrate(vm, to, now)
}
