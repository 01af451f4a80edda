// Package esx models VMware ESXi hypervisor resource accounting: the
// mapping from the demands of resident VMs to the host-level metrics the
// vROps exporter publishes (Appendix C, Table 4).
//
// The key quantities the paper analyzes are defined as in VMware:
//
//   - CPU contention (%): share of time a vCPU is ready to execute but
//     cannot be scheduled on a pCPU. We model a proportional-share
//     scheduler: when aggregate demand exceeds physical supply, the excess
//     translates into contention = (demand - supply) / demand.
//   - CPU ready time (ms): contention expressed as waiting time accumulated
//     over the sampling interval.
//
// Overcommitment (vCPU:pCPU ratio > 1, Sec. 7) is what makes contention
// possible: admission control limits *allocations*, not instantaneous
// demand.
package esx

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// Config sets fleet-wide hypervisor policy.
type Config struct {
	// OvercommitCPU is the admitted vCPU:pCPU ratio (the paper, Sec. 7:
	// "infrastructure providers often split physical cores into multiple
	// virtual cores"). 4.0 is a common production default.
	OvercommitCPU float64
	// OvercommitMem is the admitted vRAM:pRAM ratio. Memory of
	// enterprise workloads is rarely overcommitted; 1.0 disables it.
	OvercommitMem float64
	// ReservedMemMB is per-host hypervisor overhead.
	ReservedMemMB int64
	// BaseStorageGB is per-host OS/datastore overhead.
	BaseStorageGB int64
}

// DefaultConfig mirrors the production posture described in the paper.
func DefaultConfig() Config {
	return Config{
		OvercommitCPU: 4.0,
		OvercommitMem: 1.0,
		ReservedMemMB: 64 << 10, // 64 GiB
		BaseStorageGB: 200,
	}
}

// Host is one hypervisor with its resident VMs.
type Host struct {
	Node *topology.Node
	cfg  Config

	vms map[vmmodel.ID]*vmmodel.VM
	// sorted mirrors vms in ascending ID order, maintained incrementally on
	// admit/evict so snapshots iterate deterministically without re-sorting.
	sorted []*vmmodel.VM
	// ver counts resident-set mutations; it keys the snapshot cache.
	ver uint64

	allocVCPUs int // shared (overcommitted) vCPU allocation
	allocMemMB int64
	allocDisk  int64
	// pinnedCores are physical cores dedicated to CPU-pinned VMs
	// (Sec. 8 QoS); they are removed from the shared pool.
	pinnedCores int

	// Snapshot cache: within one sampling instant the host sampler, the VM
	// sampler's contention map, and DRS all ask for the same pure function
	// of (t, resident set) — compute it once. Only CPUReadyMillis depends
	// on the caller's interval; it is derived per call so the cache works
	// across subsystems sampling at different intervals.
	snapAt    sim.Time
	snapVer   uint64
	snapValid bool
	snap      Metrics
	// snapHits/snapMisses count cache outcomes: every miss is one full
	// resident-set walk, which is the engine profiler's work-unit proxy
	// for telemetry/DRS snapshot cost (see Fleet.SnapshotCacheStats).
	snapHits   uint64
	snapMisses uint64
	// usage holds each profiled resident's CPU and memory fraction in the
	// cached snapshot, aligned with sorted; snapFallbacks counts reads it missed.
	usage         [][2]float64
	snapFallbacks uint64
}

// Errors returned by placement operations.
var (
	ErrInsufficientCPU = errors.New("esx: vCPU allocation would exceed overcommit limit")
	ErrInsufficientMem = errors.New("esx: memory allocation would exceed capacity")
	ErrMaintenance     = errors.New("esx: host in maintenance")
	ErrAlreadyPlaced   = errors.New("esx: vm already on host")
	ErrNotPlaced       = errors.New("esx: vm not on host")
	ErrUnknownHost     = errors.New("esx: unknown host")
)

// SharedCores reports the physical cores available to the shared
// (overcommitted) pool after pinning reservations.
func (h *Host) SharedCores() int {
	return h.Node.Capacity.PCPUCores - h.pinnedCores
}

// PinnedCores reports the physical cores dedicated to pinned VMs.
func (h *Host) PinnedCores() int { return h.pinnedCores }

// VCPUCapacity is the admissible shared vCPU allocation
// (shared pCPUs × overcommit).
func (h *Host) VCPUCapacity() int {
	return int(float64(h.SharedCores()) * h.cfg.OvercommitCPU)
}

// MemCapacityMB is the admissible memory allocation.
func (h *Host) MemCapacityMB() int64 {
	usable := h.Node.Capacity.MemoryMB - h.cfg.ReservedMemMB
	if usable < 0 {
		usable = 0
	}
	return int64(float64(usable) * h.cfg.OvercommitMem)
}

// AllocatedVCPUs reports the vCPUs of resident VMs.
func (h *Host) AllocatedVCPUs() int { return h.allocVCPUs }

// AllocatedMemMB reports the memory allocation of resident VMs.
func (h *Host) AllocatedMemMB() int64 { return h.allocMemMB }

// FreeVCPUs reports remaining admissible vCPU allocation.
func (h *Host) FreeVCPUs() int { return h.VCPUCapacity() - h.allocVCPUs }

// FreeMemMB reports remaining admissible memory allocation.
func (h *Host) FreeMemMB() int64 { return h.MemCapacityMB() - h.allocMemMB }

// VMCount reports the number of resident VMs.
func (h *Host) VMCount() int { return len(h.vms) }

// VMs returns resident VMs sorted by ID (deterministic iteration). The
// result is a copy; callers may admit or evict while ranging over it.
func (h *Host) VMs() []*vmmodel.VM {
	out := make([]*vmmodel.VM, len(h.sorted))
	copy(out, h.sorted)
	return out
}

// Fits reports whether the flavor can be admitted under current allocations.
func (h *Host) Fits(f *vmmodel.Flavor) bool {
	if h.Node.Maintenance {
		return false
	}
	if f.PinCPU {
		// Pinned VMs take dedicated physical cores (1:1) and must not
		// squeeze the shared pool below its existing allocation.
		if h.pinnedCores+f.VCPUs > h.Node.Capacity.PCPUCores {
			return false
		}
		remainingShared := h.Node.Capacity.PCPUCores - h.pinnedCores - f.VCPUs
		if float64(h.allocVCPUs) > float64(remainingShared)*h.cfg.OvercommitCPU {
			return false
		}
	} else if h.allocVCPUs+f.VCPUs > h.VCPUCapacity() {
		return false
	}
	if h.allocMemMB+int64(f.RAMGiB)<<10 > h.MemCapacityMB() {
		return false
	}
	return true
}

// admit places the VM on the host, enforcing admission control.
func (h *Host) admit(vm *vmmodel.VM) error {
	if h.Node.Maintenance {
		return fmt.Errorf("%w: %s", ErrMaintenance, h.Node.ID)
	}
	if _, ok := h.vms[vm.ID]; ok {
		return fmt.Errorf("%w: %s on %s", ErrAlreadyPlaced, vm.ID, h.Node.ID)
	}
	f := vm.Flavor
	if f.PinCPU {
		if h.pinnedCores+f.VCPUs > h.Node.Capacity.PCPUCores {
			return fmt.Errorf("%w: %s on %s (pinned)", ErrInsufficientCPU, vm.ID, h.Node.ID)
		}
		remainingShared := h.Node.Capacity.PCPUCores - h.pinnedCores - f.VCPUs
		if float64(h.allocVCPUs) > float64(remainingShared)*h.cfg.OvercommitCPU {
			return fmt.Errorf("%w: %s on %s (pinning would strand shared allocations)", ErrInsufficientCPU, vm.ID, h.Node.ID)
		}
	} else if h.allocVCPUs+vm.RequestedCPUCores() > h.VCPUCapacity() {
		return fmt.Errorf("%w: %s on %s", ErrInsufficientCPU, vm.ID, h.Node.ID)
	}
	if h.allocMemMB+vm.RequestedMemoryMB() > h.MemCapacityMB() {
		return fmt.Errorf("%w: %s on %s", ErrInsufficientMem, vm.ID, h.Node.ID)
	}
	h.vms[vm.ID] = vm
	i := sort.Search(len(h.sorted), func(i int) bool { return h.sorted[i].ID >= vm.ID })
	h.sorted = append(h.sorted, nil)
	copy(h.sorted[i+1:], h.sorted[i:])
	h.sorted[i] = vm
	h.ver++
	if f.PinCPU {
		h.pinnedCores += f.VCPUs
	} else {
		h.allocVCPUs += vm.RequestedCPUCores()
	}
	h.allocMemMB += vm.RequestedMemoryMB()
	h.allocDisk += vm.RequestedDiskGB()
	return nil
}

// evict removes the VM from the host.
func (h *Host) evict(vm *vmmodel.VM) error {
	if _, ok := h.vms[vm.ID]; !ok {
		return fmt.Errorf("%w: %s on %s", ErrNotPlaced, vm.ID, h.Node.ID)
	}
	delete(h.vms, vm.ID)
	i := sort.Search(len(h.sorted), func(i int) bool { return h.sorted[i].ID >= vm.ID })
	h.sorted = append(h.sorted[:i], h.sorted[i+1:]...)
	h.ver++
	if vm.Flavor.PinCPU {
		h.pinnedCores -= vm.RequestedCPUCores()
	} else {
		h.allocVCPUs -= vm.RequestedCPUCores()
	}
	h.allocMemMB -= vm.RequestedMemoryMB()
	h.allocDisk -= vm.RequestedDiskGB()
	return nil
}

// Metrics is the host-level snapshot matching the vROps metric set.
type Metrics struct {
	// CPUUtilPct is delivered CPU as a percentage of physical cores
	// (vrops_hostsystem_cpu_core_utilization_percentage).
	CPUUtilPct float64
	// CPUContentionPct follows the VMware definition described above
	// (vrops_hostsystem_cpu_contention_percentage).
	CPUContentionPct float64
	// CPUReadyMillis is ready time accumulated over the sampling
	// interval (vrops_hostsystem_cpu_ready_milliseconds).
	CPUReadyMillis float64
	// MemUsagePct is consumed memory over physical memory
	// (vrops_hostsystem_memory_usage_percentage).
	MemUsagePct float64
	// TxKbps / RxKbps are aggregate NIC rates
	// (vrops_hostsystem_network_bytes_{tx,rx}_kbps).
	TxKbps float64
	RxKbps float64
	// StorageUsedGB is local datastore usage
	// (vrops_hostsystem_diskspace_usage_gigabytes).
	StorageUsedGB float64
	// VMCount is the number of resident VMs.
	VMCount int
}

// StoragePct reports storage usage relative to node capacity.
func (m Metrics) StoragePct(capGB int64) float64 {
	if capGB <= 0 {
		return 0
	}
	return m.StorageUsedGB / float64(capGB) * 100
}

// Snapshot computes host metrics at simulation time t. interval is the
// sampling period over which ready time accumulates. The result is a pure
// function of (t, interval, resident set), so repeated calls at one sampling
// instant — host sampler, then the VM sampler's contention map, then a DRS
// pass — hit a cache instead of re-walking the VMs; only the ready time is
// re-derived for the caller's interval.
func (h *Host) Snapshot(t sim.Time, interval sim.Time) Metrics {
	if !h.snapValid || h.snapAt != t || h.snapVer != h.ver {
		h.snap = h.snapshot(t)
		h.snapAt, h.snapVer, h.snapValid = t, h.ver, true
		h.snapMisses++
	} else {
		h.snapHits++
	}
	m := h.snap
	m.CPUReadyMillis = m.CPUContentionPct / 100 * float64(interval.Duration().Milliseconds())
	return m
}

func (h *Host) snapshot(t sim.Time) Metrics {
	var (
		sharedDemand float64 // shared-pool vCPU demand, core units
		pinnedUsed   float64 // delivered cores on dedicated (pinned) CPUs
		memMB        float64
		tx, rx       float64
		diskGB       float64
	)
	// Iterate in sorted order: float accumulation is not associative, and
	// deterministic snapshots make whole runs reproducible bit-for-bit.
	h.usage = slices.Grow(h.usage[:0], len(h.sorted))[:len(h.sorted)]
	for i, vm := range h.sorted {
		p := vm.Profile
		if p == nil {
			continue
		}
		u := p.UsageAt(t)
		h.usage[i] = [2]float64{u.CPU, u.Mem}
		demand := u.CPU * float64(vm.RequestedCPUCores())
		if vm.Flavor.PinCPU {
			// Pinned vCPUs map 1:1 to cores: demand beyond the
			// allocation is clipped, never contended.
			if max := float64(vm.RequestedCPUCores()); demand > max {
				demand = max
			}
			pinnedUsed += demand
		} else {
			sharedDemand += demand
		}
		memMB += u.Mem * float64(vm.RequestedMemoryMB())
		tx += u.TxKbps
		rx += u.RxKbps
		diskGB += u.Disk * float64(vm.RequestedDiskGB())
	}
	totalCores := float64(h.Node.Capacity.PCPUCores)
	sharedSupply := float64(h.SharedCores())
	m := Metrics{VMCount: len(h.vms), TxKbps: tx, RxKbps: rx}

	sharedDelivered := sharedDemand
	if sharedDemand > sharedSupply {
		sharedDelivered = sharedSupply
		m.CPUContentionPct = (sharedDemand - sharedSupply) / sharedDemand * 100
	}
	m.CPUUtilPct = (sharedDelivered + pinnedUsed) / totalCores * 100
	// CPUReadyMillis is interval-dependent; Snapshot derives it per call.

	physMem := float64(h.Node.Capacity.MemoryMB)
	usedMem := memMB + float64(h.cfg.ReservedMemMB)
	if usedMem > physMem {
		usedMem = physMem
	}
	m.MemUsagePct = usedMem / physMem * 100

	m.StorageUsedGB = diskGB + float64(h.cfg.BaseStorageGB)
	if max := float64(h.Node.Capacity.StorageGB); m.StorageUsedGB > max {
		m.StorageUsedGB = max
	}
	return m
}

// VMUsage is the per-VM snapshot matching the vROps VM metrics.
type VMUsage struct {
	// CPUUsageRatio is used over requested CPU
	// (vrops_virtualmachine_cpu_usage_ratio), after contention losses.
	CPUUsageRatio float64
	// MemUsageRatio is consumed over requested memory
	// (vrops_virtualmachine_memory_consumed_ratio).
	MemUsageRatio float64
	// ReadyMillis is this VM's share of scheduling delay.
	ReadyMillis float64
}

// demand returns vm's CPU and memory fractions at t, vm being resident at
// index i (< 0: not resident): cached when the snapshot covers (t, ver).
func (h *Host) demand(vm *vmmodel.VM, i int, t sim.Time) (cpu, mem float64) {
	if i >= 0 && h.snapValid && h.snapAt == t && h.snapVer == h.ver {
		return h.usage[i][0], h.usage[i][1]
	}
	h.snapFallbacks++
	return vm.Profile.CPUUsage(t), vm.Profile.MemUsage(t)
}

// EachVMDemand visits resident VMs that have a profile in ascending ID order
// with their CPU demand fraction at t, read from the snapshot cached for t
// when there is one. The resident set must not change during the walk.
func (h *Host) EachVMDemand(t sim.Time, fn func(vm *vmmodel.VM, cpu float64)) {
	for i, vm := range h.sorted {
		if vm.Profile != nil {
			cpu, _ := h.demand(vm, i, t)
			fn(vm, cpu)
		}
	}
}

// VMSnapshot computes one VM's delivered usage at time t given the host's
// contention level. Under proportional-share scheduling every runnable vCPU
// on a saturated host is throttled by the same factor. Demand comes from
// the host snapshot cached for t when there is one.
func (h *Host) VMSnapshot(vm *vmmodel.VM, t sim.Time, interval sim.Time, hostContentionPct float64) VMUsage {
	if vm.Profile == nil {
		return VMUsage{}
	}
	// A pointer scan: tens of residents, cheaper than binary search by ID.
	demand, mem := h.demand(vm, slices.Index(h.sorted, vm), t)
	if vm.Flavor.PinCPU {
		// Dedicated cores: full delivery up to the allocation, no
		// scheduling delay — the QoS guarantee of CPU pinning.
		if demand > 1 {
			demand = 1
		}
		return VMUsage{CPUUsageRatio: demand, MemUsageRatio: mem}
	}
	delivered := demand * (1 - hostContentionPct/100)
	if delivered > 1 {
		delivered = 1
	}
	return VMUsage{
		CPUUsageRatio: delivered,
		MemUsageRatio: mem,
		ReadyMillis:   hostContentionPct / 100 * float64(interval.Duration().Milliseconds()),
	}
}

// Fleet manages the hosts of a region.
type Fleet struct {
	cfg    Config
	hosts  map[topology.NodeID]*Host
	region *topology.Region

	// Host-set caches. Host membership changes only through AddHost (capacity
	// expansion), so the sorted fleet-wide slice and the per-BB slices are
	// built once and invalidated there.
	sortedHosts []*Host
	bbHosts     map[topology.BBID][]*Host
}

// NewFleet wraps every node of the region in a Host.
func NewFleet(region *topology.Region, cfg Config) *Fleet {
	f := &Fleet{cfg: cfg, hosts: make(map[topology.NodeID]*Host), region: region}
	for _, n := range region.Nodes() {
		f.hosts[n.ID] = &Host{Node: n, cfg: cfg, vms: make(map[vmmodel.ID]*vmmodel.VM)}
	}
	return f
}

// AddHost wraps a node added to the topology after fleet construction — a
// capacity expansion — in a Host and registers it. Adding a node that is
// already managed returns the existing host unchanged.
func (f *Fleet) AddHost(n *topology.Node) *Host {
	if h, ok := f.hosts[n.ID]; ok {
		return h
	}
	h := &Host{Node: n, cfg: f.cfg, vms: make(map[vmmodel.ID]*vmmodel.VM)}
	f.hosts[n.ID] = h
	f.sortedHosts = nil
	f.bbHosts = nil
	return h
}

// Config returns the fleet-wide hypervisor policy.
func (f *Fleet) Config() Config { return f.cfg }

// Region returns the underlying topology.
func (f *Fleet) Region() *topology.Region { return f.region }

// Host returns the host for a node ID.
func (f *Fleet) Host(id topology.NodeID) (*Host, error) {
	h, ok := f.hosts[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownHost, id)
	}
	return h, nil
}

// SnapshotCacheStats sums host snapshot-cache outcomes fleet-wide. A miss
// is one full resident-set walk; hits quantify the work the cache saves
// when the host sampler, the VM sampler's contention map, and DRS share a
// sampling instant. The totals feed the engine profiler's owner breakdown.
func (f *Fleet) SnapshotCacheStats() (hits, misses uint64) {
	for _, h := range f.sorted() {
		hits += h.snapHits
		misses += h.snapMisses
	}
	return hits, misses
}

// SnapshotFallbacks counts per-VM demand reads the snapshot cache did not
// cover (VMSnapshot, EachVMDemand), each of which re-evaluated the profile.
func (f *Fleet) SnapshotFallbacks() (n uint64) {
	for _, h := range f.sorted() {
		n += h.snapFallbacks
	}
	return n
}

// sorted returns the cached fleet-wide host slice, node-ID order.
func (f *Fleet) sorted() []*Host {
	if f.sortedHosts == nil {
		out := make([]*Host, 0, len(f.hosts))
		for _, h := range f.hosts {
			out = append(out, h)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Node.ID < out[j].Node.ID })
		f.sortedHosts = out
	}
	return f.sortedHosts
}

// inBB returns the cached host slice of one building block, node-index order.
func (f *Fleet) inBB(bb *topology.BuildingBlock) []*Host {
	if hs, ok := f.bbHosts[bb.ID]; ok {
		return hs
	}
	out := make([]*Host, 0, len(bb.Nodes))
	for _, n := range bb.Nodes {
		if h, ok := f.hosts[n.ID]; ok {
			out = append(out, h)
		}
	}
	if f.bbHosts == nil {
		f.bbHosts = make(map[topology.BBID][]*Host)
	}
	f.bbHosts[bb.ID] = out
	return out
}

// Hosts returns all hosts sorted by node ID. The result is a copy; callers
// may expand the fleet while ranging over it.
func (f *Fleet) Hosts() []*Host {
	s := f.sorted()
	out := make([]*Host, len(s))
	copy(out, s)
	return out
}

// EachHost visits every host in node-ID order without allocating. The host
// set must not change during the walk.
func (f *Fleet) EachHost(fn func(*Host)) {
	for _, h := range f.sorted() {
		fn(h)
	}
}

// HostsInBB returns the hosts of one building block, by node index. The
// result is a copy; callers may expand the fleet while ranging over it.
func (f *Fleet) HostsInBB(bb *topology.BuildingBlock) []*Host {
	s := f.inBB(bb)
	out := make([]*Host, len(s))
	copy(out, s)
	return out
}

// EachHostInBB visits one building block's hosts in node-index order without
// allocating. The host set must not change during the walk.
func (f *Fleet) EachHostInBB(bb *topology.BuildingBlock, fn func(*Host)) {
	for _, h := range f.inBB(bb) {
		fn(h)
	}
}

// Place admits the VM onto the node and updates the VM's placement.
func (f *Fleet) Place(vm *vmmodel.VM, node *topology.Node, at sim.Time) error {
	h, err := f.Host(node.ID)
	if err != nil {
		return err
	}
	if err := h.admit(vm); err != nil {
		return err
	}
	vm.Place(node, at)
	return nil
}

// Remove releases the VM's resources and marks it deleted.
func (f *Fleet) Remove(vm *vmmodel.VM, at sim.Time) error {
	if vm.Node == nil {
		return fmt.Errorf("%w: %s", ErrNotPlaced, vm.ID)
	}
	h, err := f.Host(vm.Node.ID)
	if err != nil {
		return err
	}
	if err := h.evict(vm); err != nil {
		return err
	}
	vm.Delete(at)
	return nil
}

// Evict removes the VM from its host without deleting it, leaving it in
// the Migrating state — the first half of a resize or cold migration.
func (f *Fleet) Evict(vm *vmmodel.VM) error {
	if vm.Node == nil {
		return fmt.Errorf("%w: %s", ErrNotPlaced, vm.ID)
	}
	h, err := f.Host(vm.Node.ID)
	if err != nil {
		return err
	}
	if err := h.evict(vm); err != nil {
		return err
	}
	vm.Node = nil
	vm.BB = nil
	vm.State = vmmodel.Migrating
	return nil
}

// Migrate moves the VM to another node atomically: the destination must
// admit it before the source releases it.
func (f *Fleet) Migrate(vm *vmmodel.VM, to *topology.Node, at sim.Time) error {
	if vm.Node == nil {
		return fmt.Errorf("%w: %s", ErrNotPlaced, vm.ID)
	}
	if vm.Node.ID == to.ID {
		return nil
	}
	src, err := f.Host(vm.Node.ID)
	if err != nil {
		return err
	}
	dst, err := f.Host(to.ID)
	if err != nil {
		return err
	}
	if err := dst.admit(vm); err != nil {
		return err
	}
	if err := src.evict(vm); err != nil {
		// Roll back the destination admission.
		return errors.Join(err, dst.evict(vm))
	}
	vm.MigrateTo(to, at)
	return nil
}

// BBAllocation summarizes a building block's allocation state, the view the
// Nova scheduler sees ("each vSphere cluster is represented as a single
// compute host", Sec. 3.1).
type BBAllocation struct {
	BB          *topology.BuildingBlock
	VCPUCap     int
	VCPUAlloc   int
	MemCapMB    int64
	MemAllocMB  int64
	ActiveNodes int
	VMCount     int
}

// BBAlloc aggregates allocation across the building block's active nodes.
// Maintenance flags are re-read on every call (tests and injections flip
// them directly on the node), so only the host slice is cached, not the sum.
func (f *Fleet) BBAlloc(bb *topology.BuildingBlock) BBAllocation {
	agg := BBAllocation{BB: bb}
	for _, h := range f.inBB(bb) {
		if h.Node.Maintenance {
			continue
		}
		agg.ActiveNodes++
		agg.VCPUCap += h.VCPUCapacity()
		agg.VCPUAlloc += h.AllocatedVCPUs()
		agg.MemCapMB += h.MemCapacityMB()
		agg.MemAllocMB += h.AllocatedMemMB()
		agg.VMCount += h.VMCount()
	}
	return agg
}
