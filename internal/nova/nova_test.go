package nova

import (
	"errors"
	"fmt"
	"testing"

	"sapsim/internal/esx"
	"sapsim/internal/placement"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

type constProfile struct{ cpu, mem float64 }

func (p constProfile) UsageAt(sim.Time) vmmodel.Usage {
	return vmmodel.Usage{CPU: p.cpu, Mem: p.mem, Disk: 0.2}
}

// testEnv builds a two-AZ region with general and HANA building blocks.
func testEnv(t *testing.T, cfg Config) (*esx.Fleet, *Scheduler) {
	t.Helper()
	return testEnvWith(t, cfg, nil)
}

// testEnvWith is testEnv with a hook that may add building blocks to the
// region before the scheduler registers them.
func testEnvWith(t *testing.T, cfg Config, extend func(*topology.Region)) (*esx.Fleet, *Scheduler) {
	t.Helper()
	r := topology.NewRegion("t")
	azA := r.AddAZ("az-a")
	dcA := azA.AddDC("dc-a")
	azB := r.AddAZ("az-b")
	dcB := azB.AddDC("dc-b")

	gen := topology.Capacity{PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200}
	hana := topology.Capacity{PCPUCores: 128, MemoryMB: 6 << 20, StorageGB: 32 << 10, NetworkGbps: 200}
	for i, dc := range []*topology.Datacenter{dcA, dcB} {
		if _, err := dc.AddBB(topology.BBID(fmt.Sprintf("gp-%d", i)), topology.GeneralPurpose, 4, gen); err != nil {
			t.Fatal(err)
		}
		if _, err := dc.AddBB(topology.BBID(fmt.Sprintf("hana-%d", i)), topology.HANA, 2, hana); err != nil {
			t.Fatal(err)
		}
	}
	if extend != nil {
		extend(r)
	}
	fleet := esx.NewFleet(r, esx.DefaultConfig())
	sched, err := NewScheduler(fleet, placement.NewService(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, sched
}

func mkVM(id, flavor string) *vmmodel.VM {
	return &vmmodel.VM{
		ID:      vmmodel.ID(id),
		Flavor:  vmmodel.CatalogByName()[flavor],
		Profile: constProfile{cpu: 0.3, mem: 0.6},
	}
}

func TestScheduleGeneralVM(t *testing.T) {
	_, sched := testEnv(t, DefaultConfig())
	vm := mkVM("vm-1", "MK")
	res, err := sched.Schedule(&RequestSpec{VM: vm}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BB.Kind != topology.GeneralPurpose {
		t.Errorf("general VM landed on %v BB", res.BB.Kind)
	}
	if vm.State != vmmodel.Active || vm.Node != res.Node {
		t.Error("VM not active on the chosen node")
	}
	if got := sched.Stats().Scheduled; got != 1 {
		t.Errorf("scheduled = %d, want 1", got)
	}
}

func TestScheduleHANASegregation(t *testing.T) {
	_, sched := testEnv(t, DefaultConfig())
	vm := mkVM("vm-h", "XLG")
	res, err := sched.Schedule(&RequestSpec{VM: vm}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BB.Kind != topology.HANA {
		t.Errorf("HANA VM landed on %v BB", res.BB.Kind)
	}
}

func TestScheduleAZFilter(t *testing.T) {
	_, sched := testEnv(t, DefaultConfig())
	vm := mkVM("vm-az", "MK")
	res, err := sched.Schedule(&RequestSpec{VM: vm, AZ: "az-b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.BB.DC.AZ.Name; got != "az-b" {
		t.Errorf("VM placed in AZ %s, want az-b", got)
	}
	// Impossible AZ → NoValidHost.
	vm2 := mkVM("vm-az2", "MK")
	_, err = sched.Schedule(&RequestSpec{VM: vm2, AZ: "az-z"}, 0)
	var nvh *NoValidHostError
	if !errors.As(err, &nvh) {
		t.Fatalf("impossible AZ error = %v, want NoValidHostError", err)
	}
	if nvh.Reasons["AvailabilityZoneFilter"] == 0 {
		t.Errorf("expected AZ filter eliminations: %v", nvh.Reasons)
	}
}

func TestScheduleSpreadBehaviour(t *testing.T) {
	_, sched := testEnv(t, DefaultConfig())
	// Default RAMWeigher spreads general VMs: consecutive placements
	// should alternate between the two general BBs.
	seen := map[topology.BBID]int{}
	for i := 0; i < 8; i++ {
		vm := mkVM(fmt.Sprintf("vm-%d", i), "MC")
		res, err := sched.Schedule(&RequestSpec{VM: vm}, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.BB.ID]++
	}
	if len(seen) != 2 {
		t.Errorf("spread placement used %d BBs, want 2: %v", len(seen), seen)
	}
	for bb, n := range seen {
		if n != 4 {
			t.Errorf("uneven spread: %s got %d", bb, n)
		}
	}
}

func TestScheduleHANAPacking(t *testing.T) {
	_, sched := testEnv(t, DefaultConfig())
	// SAPPolicy bin-packs HANA VMs: all should land on the same BB (and
	// the same node) until it fills.
	var bbs []topology.BBID
	var nodes []topology.NodeID
	for i := 0; i < 4; i++ {
		vm := mkVM(fmt.Sprintf("vm-h%d", i), "XLB") // 192 GiB each
		res, err := sched.Schedule(&RequestSpec{VM: vm}, 0)
		if err != nil {
			t.Fatal(err)
		}
		bbs = append(bbs, res.BB.ID)
		nodes = append(nodes, res.Node.ID)
	}
	for i := 1; i < len(bbs); i++ {
		if bbs[i] != bbs[0] {
			t.Errorf("HANA VMs not packed into one BB: %v", bbs)
			break
		}
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] != nodes[0] {
			t.Errorf("HANA VMs not packed onto one node: %v", nodes)
			break
		}
	}
}

func TestScheduleNoValidHostWhenFull(t *testing.T) {
	_, sched := testEnv(t, DefaultConfig())
	// Each HANA node admits 6 TiB − 64 GiB ≈ 6080 GiB; the BB aggregate
	// is ≈12160 GiB. XLO (6144 GiB) fits the BB aggregate that placement
	// checks, but no single node — the fragmentation case. The scheduler
	// must exhaust retries and fail.
	vm := mkVM("vm-big", "XLO")
	_, err := sched.Schedule(&RequestSpec{VM: vm}, 0)
	var nvh *NoValidHostError
	if !errors.As(err, &nvh) {
		t.Fatalf("oversized VM error = %v, want NoValidHostError", err)
	}
	if nvh.Reasons["NodeFragmentation"] == 0 {
		t.Errorf("want NodeFragmentation eliminations, got %v", nvh.Reasons)
	}
	if sched.Stats().Failed != 1 {
		t.Errorf("failed = %d, want 1", sched.Stats().Failed)
	}
}

func TestNodeFitFilterPreventsWastedRetries(t *testing.T) {
	cfg := DefaultConfig()
	fleetRef := struct{ f *esx.Fleet }{}
	cfg.Filters = append(DefaultFilters(), NodeFitFilter{
		FitsNode: func(bb *topology.BuildingBlock, f *vmmodel.Flavor) bool {
			for _, h := range fleetRef.f.HostsInBB(bb) {
				if h.Fits(f) {
					return true
				}
			}
			return false
		},
	})
	fleet, sched := testEnv(t, cfg)
	fleetRef.f = fleet
	vm := mkVM("vm-big", "XLO")
	_, err := sched.Schedule(&RequestSpec{VM: vm}, 0)
	var nvh *NoValidHostError
	if !errors.As(err, &nvh) {
		t.Fatalf("error = %v", err)
	}
	if nvh.Reasons["NodeFitFilter"] == 0 {
		t.Errorf("want NodeFitFilter eliminations, got %v", nvh.Reasons)
	}
	if nvh.Reasons["NodeFragmentation"] != 0 {
		t.Errorf("holistic filter should pre-empt fragmentation retries: %v", nvh.Reasons)
	}
}

func TestDeleteReleasesEverything(t *testing.T) {
	fleet, sched := testEnv(t, DefaultConfig())
	vm := mkVM("vm-1", "MC")
	res, err := sched.Schedule(&RequestSpec{VM: vm}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Delete(vm, sim.Hour); err != nil {
		t.Fatal(err)
	}
	h, _ := fleet.Host(res.Node.ID)
	if h.VMCount() != 0 {
		t.Error("delete left VM on host")
	}
	// Re-scheduling a VM with the same ID must work (allocation freed).
	vm2 := mkVM("vm-1", "MC")
	if _, err := sched.Schedule(&RequestSpec{VM: vm2}, sim.Hour); err != nil {
		t.Fatal(err)
	}
}

func TestMoveBBUpdatesPlacement(t *testing.T) {
	fleet, sched := testEnv(t, DefaultConfig())
	vm := mkVM("vm-1", "MC")
	res, err := sched.Schedule(&RequestSpec{VM: vm}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Find a node in the *other* general BB.
	var target *topology.Node
	for _, bb := range fleet.Region().BBs() {
		if bb.Kind == topology.GeneralPurpose && bb.ID != res.BB.ID {
			target = bb.Nodes[0]
			break
		}
	}
	if err := sched.MoveBB(vm, target, sim.Hour); err != nil {
		t.Fatal(err)
	}
	if vm.Node != target {
		t.Error("MoveBB did not move the VM")
	}
	if vm.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", vm.Migrations)
	}
}

func TestContentionWeigherSteersAway(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Weighers = []Weigher{ContentionWeigher{Mult: 10}, RAMWeigher{Mult: 0.1}}
	_, sched := testEnv(t, cfg)
	// Mark gp-0 heavily contended; general VMs should prefer gp-1.
	sched.SetContention("gp-0", 35)
	sched.SetContention("gp-1", 1)
	for i := 0; i < 4; i++ {
		vm := mkVM(fmt.Sprintf("vm-%d", i), "MK")
		res, err := sched.Schedule(&RequestSpec{VM: vm}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.BB.ID != "gp-1" {
			t.Errorf("VM %d placed on %s despite contention, want gp-1", i, res.BB.ID)
		}
	}
}

func TestComputeFilterSkipsMaintenanceBB(t *testing.T) {
	fleet, sched := testEnv(t, DefaultConfig())
	// Put every node of gp-0 into maintenance.
	bb, _ := fleet.Region().BB("gp-0")
	for _, n := range bb.Nodes {
		n.Maintenance = true
	}
	for i := 0; i < 4; i++ {
		vm := mkVM(fmt.Sprintf("vm-%d", i), "MK")
		res, err := sched.Schedule(&RequestSpec{VM: vm}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.BB.ID == "gp-0" {
			t.Error("VM placed on maintenance BB")
		}
	}
}

func TestFilterUnits(t *testing.T) {
	_, sched := testEnv(t, DefaultConfig())
	_ = sched
	bbState := func(free int64) *HostState {
		return &HostState{Alloc: esx.BBAllocation{VCPUCap: 100, MemCapMB: free, ActiveNodes: 1}}
	}
	req := &RequestSpec{VM: mkVM("x", "MK")} // 2 vCPU, 16 GiB
	if !(RamFilter{}).Pass(req, bbState(16<<10)) {
		t.Error("RamFilter rejected exact fit")
	}
	if (RamFilter{}).Pass(req, bbState(16<<10-1)) {
		t.Error("RamFilter accepted undersized host")
	}
	if !(CoreFilter{}).Pass(req, &HostState{Alloc: esx.BBAllocation{VCPUCap: 2}}) {
		t.Error("CoreFilter rejected exact fit")
	}
	if (CoreFilter{}).Pass(req, &HostState{Alloc: esx.BBAllocation{VCPUCap: 1}}) {
		t.Error("CoreFilter accepted undersized host")
	}
	if (ComputeFilter{}).Pass(req, &HostState{Alloc: esx.BBAllocation{ActiveNodes: 0}}) {
		t.Error("ComputeFilter accepted dead BB")
	}
	// NodeFitFilter with nil hook passes everything.
	if !(NodeFitFilter{}).Pass(req, bbState(1)) {
		t.Error("nil NodeFitFilter should pass")
	}
}

func TestRequestTraits(t *testing.T) {
	gpuFlavor := &vmmodel.Flavor{Name: "GA", VCPUs: 16, RAMGiB: 128, DiskGB: 100, RequireGPU: true}
	for _, c := range []struct {
		vm                  *vmmodel.VM
		required, forbidden placement.Traits
	}{
		{mkVM("a", "MK"), 0, placement.HANA | placement.GPU | placement.Reserved},
		{mkVM("b", "XLG"), placement.HANA, placement.Reserved},
		{&vmmodel.VM{ID: "g", Flavor: gpuFlavor}, placement.GPU, placement.Reserved},
	} {
		ask := askOf(c.vm)
		if ask.Required != c.required || ask.Forbidden != c.forbidden {
			t.Errorf("%s traits = %b / %b, want %b / %b",
				c.vm.Flavor.Name, ask.Required, ask.Forbidden, c.required, c.forbidden)
		}
		if ask.VCPU != int64(c.vm.Flavor.VCPUs) || ask.MemoryMB != c.vm.RequestedMemoryMB() {
			t.Errorf("%s ask = %d vCPU / %d MB", c.vm.Flavor.Name, ask.VCPU, ask.MemoryMB)
		}
	}
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	cap := topology.Capacity{PCPUCores: 8, MemoryMB: 1 << 20, StorageGB: 1 << 10, NetworkGbps: 100}
	gpu, _ := dc.AddBB("gpu", topology.GPU, 1, cap)
	gpu.Reserved = true
	if got := traitsOf(gpu); got != placement.GPU|placement.Reserved {
		t.Errorf("reserved GPU block traits = %b", got)
	}
}

// rank is the buffer-free form of rankBuf.rank.
func rank(req *RequestSpec, hosts []*HostState, weighers []Weigher) []*HostState {
	var b rankBuf
	return b.rank(req, hosts, weighers)
}

func TestRankDeterministicTieBreak(t *testing.T) {
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	cap := topology.Capacity{PCPUCores: 8, MemoryMB: 1 << 20, StorageGB: 1 << 10, NetworkGbps: 100}
	bb1, _ := dc.AddBB("b-1", topology.GeneralPurpose, 2, cap)
	bb2, _ := dc.AddBB("b-2", topology.GeneralPurpose, 2, cap)
	req := &RequestSpec{VM: mkVM("x", "MK")}
	hosts := []*HostState{
		{BB: bb2, Alloc: esx.BBAllocation{MemCapMB: 100, VCPUCap: 10}},
		{BB: bb1, Alloc: esx.BBAllocation{MemCapMB: 100, VCPUCap: 10}},
	}
	ranked := rank(req, hosts, DefaultWeighers())
	if ranked[0].BB.ID != "b-1" {
		t.Errorf("tie break should order by BB ID: got %s first", ranked[0].BB.ID)
	}
	if rank(req, nil, DefaultWeighers()) != nil {
		t.Error("empty rank should be nil")
	}
}

func TestWeigherNamesAndMultipliers(t *testing.T) {
	req := &RequestSpec{VM: mkVM("x", "MK")}
	hreq := &RequestSpec{VM: mkVM("h", "XLG")}
	w := RAMWeigher{SAPPolicy: true}
	if w.Multiplier(req) != 1 {
		t.Error("default RAM multiplier should be 1")
	}
	if w.Multiplier(hreq) != -1 {
		t.Error("SAP policy should invert for HANA")
	}
	if (CPUWeigher{}).Multiplier(req) != 1 || (ContentionWeigher{}).Multiplier(req) != 1 || (VMCountWeigher{}).Multiplier(req) != 1 {
		t.Error("default multipliers should be 1")
	}
	for _, name := range []string{
		RAMWeigher{}.Name(), CPUWeigher{}.Name(), ContentionWeigher{}.Name(), VMCountWeigher{}.Name(),
		ComputeFilter{}.Name(), AvailabilityZoneFilter{}.Name(), CoreFilter{}.Name(), RamFilter{}.Name(),
		AggregateInstanceExtraSpecsFilter{}.Name(), NodeFitFilter{}.Name(),
	} {
		if name == "" {
			t.Error("empty component name")
		}
	}
}

func TestSchedulerFillsToCapacityThenFails(t *testing.T) {
	_, sched := testEnv(t, DefaultConfig())
	// General capacity: 2 BBs × 4 nodes × 32 cores × 4 overcommit = 1024
	// vCPUs... memory binds first: 8 nodes × (512−64) GiB = 3584 GiB.
	// MC = 8 vCPU / 64 GiB → 56 VMs fit by memory.
	placed := 0
	for i := 0; i < 80; i++ {
		vm := mkVM(fmt.Sprintf("vm-%d", i), "MC")
		if _, err := sched.Schedule(&RequestSpec{VM: vm}, 0); err == nil {
			placed++
		}
	}
	if placed != 56 {
		t.Errorf("placed %d MC VMs, want 56 (memory-bound)", placed)
	}
	st := sched.Stats()
	if st.Failed != 80-56 {
		t.Errorf("failed = %d, want %d", st.Failed, 80-56)
	}
}

// TestSchedulerScheduleAllocs pins the steady-state allocation budget of a
// schedule+delete pair: the Result is the only allocation. Candidates,
// host states, rank scratch and the allocation record reuse their storage.
func TestSchedulerScheduleAllocs(t *testing.T) {
	_, sched := testEnv(t, DefaultConfig())
	flavor := vmmodel.CatalogByName()["MK"]
	// Warm up scratch buffers and map capacity.
	for i := 0; i < 50; i++ {
		vm := &vmmodel.VM{ID: vmmodel.ID(fmt.Sprintf("warm-%d", i)), Flavor: flavor}
		if _, err := sched.Schedule(&RequestSpec{VM: vm}, 0); err != nil {
			t.Fatal(err)
		}
	}
	vm := &vmmodel.VM{ID: "alloc-probe", Flavor: flavor}
	req := &RequestSpec{VM: vm}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := sched.Schedule(req, 0); err != nil {
			t.Fatal(err)
		}
		if err := sched.Delete(vm, 0); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("schedule+delete pair allocates %.1f objects, want <= 1", avg)
	}
}
