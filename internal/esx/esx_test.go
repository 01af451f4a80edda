package esx

import (
	"errors"
	"math"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// constProfile is a fixed-demand usage profile for deterministic tests.
type constProfile struct {
	cpu, mem, tx, rx, disk float64
}

func (p constProfile) UsageAt(sim.Time) vmmodel.Usage {
	return vmmodel.Usage{CPU: p.cpu, Mem: p.mem, TxKbps: p.tx, RxKbps: p.rx, Disk: p.disk}
}

func testRegion(t *testing.T) *topology.Region {
	t.Helper()
	r := topology.NewRegion("t")
	dc := r.AddAZ("az").AddDC("dc")
	cap := topology.Capacity{PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 4 << 10, NetworkGbps: 200}
	if _, err := dc.AddBB("bb-0", topology.GeneralPurpose, 3, cap); err != nil {
		t.Fatal(err)
	}
	return r
}

func newVM(id string, flavor string, p vmmodel.UsageProfile) *vmmodel.VM {
	f := vmmodel.CatalogByName()[flavor]
	return &vmmodel.VM{ID: vmmodel.ID(id), Flavor: f, Profile: p}
}

// usageOf is resident vm's usage in h's EachVMUsage walk at t.
func usageOf(t *testing.T, h *Host, vm *vmmodel.VM, at, interval sim.Time) VMUsage {
	t.Helper()
	var u VMUsage
	found := false
	h.EachVMUsage(at, interval, func(v *vmmodel.VM, vu VMUsage) {
		if v == vm {
			u, found = vu, true
		}
	})
	if !found {
		t.Fatalf("%s is not resident on %s", vm.ID, h.Node.ID)
	}
	return u
}

func TestPlaceAndRemove(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	vm := newVM("v1", "MK", constProfile{cpu: 0.5, mem: 0.8})

	if err := f.Place(vm, n, sim.Hour); err != nil {
		t.Fatal(err)
	}
	h, _ := f.Host(n.ID)
	if h.VMCount() != 1 || h.AllocatedVCPUs() != 2 {
		t.Errorf("after place: count=%d vcpus=%d", h.VMCount(), h.AllocatedVCPUs())
	}
	if vm.Node != n || vm.State != vmmodel.Active {
		t.Error("VM placement state wrong")
	}

	if err := f.Remove(vm, 2*sim.Hour); err != nil {
		t.Fatal(err)
	}
	if h.VMCount() != 0 || h.AllocatedVCPUs() != 0 || h.AllocatedMemMB() != 0 {
		t.Error("remove did not release resources")
	}
	if vm.State != vmmodel.Deleted {
		t.Error("VM not deleted")
	}
}

func TestAdmissionControlCPU(t *testing.T) {
	r := testRegion(t)
	cfg := DefaultConfig()
	cfg.OvercommitCPU = 1.0 // 32 vCPUs max
	f := NewFleet(r, cfg)
	n := r.Nodes()[0]

	// MJ has 16 vCPUs: two fit exactly, a third must be rejected.
	for i := 0; i < 2; i++ {
		vm := newVM(string(rune('a'+i)), "MJ", constProfile{})
		if err := f.Place(vm, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	vm := newVM("c", "MJ", constProfile{})
	if err := f.Place(vm, n, 0); !errors.Is(err, ErrInsufficientCPU) {
		t.Errorf("overcommit violation error = %v, want ErrInsufficientCPU", err)
	}
}

func TestAdmissionControlMemory(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	// Node: 512 GiB - 64 reserved = 448 GiB usable. XLH needs 256 GiB.
	if err := f.Place(newVM("a", "XLH", constProfile{}), n, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Place(newVM("b", "XLH", constProfile{}), n, 0); !errors.Is(err, ErrInsufficientMem) {
		t.Errorf("memory violation error = %v, want ErrInsufficientMem", err)
	}
}

func TestMaintenanceRejected(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	n.Maintenance = true
	if err := f.Place(newVM("a", "MK", constProfile{}), n, 0); !errors.Is(err, ErrMaintenance) {
		t.Errorf("maintenance error = %v", err)
	}
	h, _ := f.Host(n.ID)
	if h.Fits(vmmodel.CatalogByName()["MK"]) {
		t.Error("Fits should be false for maintenance host")
	}
}

func TestDoublePlaceRejected(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	vm := newVM("a", "MK", constProfile{})
	if err := f.Place(vm, n, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Place(vm, n, 0); !errors.Is(err, ErrAlreadyPlaced) {
		t.Errorf("double place error = %v", err)
	}
}

func TestMigrate(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	nodes := r.Nodes()
	vm := newVM("a", "MN", constProfile{cpu: 0.3})
	if err := f.Place(vm, nodes[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Migrate(vm, nodes[1], sim.Hour); err != nil {
		t.Fatal(err)
	}
	h0, _ := f.Host(nodes[0].ID)
	h1, _ := f.Host(nodes[1].ID)
	if h0.VMCount() != 0 || h1.VMCount() != 1 {
		t.Error("migration did not move allocation")
	}
	if vm.Migrations != 1 || vm.Node != nodes[1] {
		t.Error("VM migration state wrong")
	}
	// Self-migration is a no-op.
	if err := f.Migrate(vm, nodes[1], sim.Hour); err != nil {
		t.Fatal(err)
	}
	if vm.Migrations != 1 {
		t.Error("self-migration should not count")
	}
}

func TestMigrateUnplacedFails(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	vm := newVM("a", "MK", constProfile{})
	if err := f.Migrate(vm, r.Nodes()[0], 0); !errors.Is(err, ErrNotPlaced) {
		t.Errorf("unplaced migrate error = %v", err)
	}
	if err := f.Remove(vm, 0); !errors.Is(err, ErrNotPlaced) {
		t.Errorf("unplaced remove error = %v", err)
	}
}

func TestMigrateDestinationFullRollsBack(t *testing.T) {
	r := testRegion(t)
	cfg := DefaultConfig()
	cfg.OvercommitCPU = 1.0
	f := NewFleet(r, cfg)
	nodes := r.Nodes()
	// Fill destination.
	for i := 0; i < 2; i++ {
		if err := f.Place(newVM(string(rune('x'+i)), "MJ", constProfile{}), nodes[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	vm := newVM("a", "MJ", constProfile{})
	if err := f.Place(vm, nodes[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Migrate(vm, nodes[1], 0); err == nil {
		t.Fatal("migration to full host succeeded")
	}
	if vm.Node != nodes[0] {
		t.Error("failed migration moved the VM")
	}
	h0, _ := f.Host(nodes[0].ID)
	if h0.VMCount() != 1 {
		t.Error("failed migration lost the source allocation")
	}
}

func TestSnapshotNoContention(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0] // 32 pCPU
	// MJ: 16 vCPU at 50% demand = 8 cores; 64 GiB at 80% mem.
	vm := newVM("a", "MJ", constProfile{cpu: 0.5, mem: 0.8, tx: 1000, rx: 2000, disk: 0.5})
	if err := f.Place(vm, n, 0); err != nil {
		t.Fatal(err)
	}
	h, _ := f.Host(n.ID)
	m := h.Snapshot(0, 5*sim.Minute)
	if math.Abs(m.CPUUtilPct-25) > 1e-9 { // 8/32
		t.Errorf("CPUUtilPct = %v, want 25", m.CPUUtilPct)
	}
	if m.CPUContentionPct != 0 || m.CPUReadyMillis != 0 {
		t.Errorf("unexpected contention: %+v", m)
	}
	// Memory: 0.8*64 GiB + 64 GiB reserved = 115.2 GiB of 512.
	wantMem := (0.8*64*1024 + 64*1024) / (512 * 1024) * 100
	if math.Abs(m.MemUsagePct-wantMem) > 1e-9 {
		t.Errorf("MemUsagePct = %v, want %v", m.MemUsagePct, wantMem)
	}
	if m.TxKbps != 1000 || m.RxKbps != 2000 {
		t.Errorf("network = %v/%v", m.TxKbps, m.RxKbps)
	}
	// Storage: 0.5*200 GiB + 200 base = 300 GiB.
	if math.Abs(m.StorageUsedGB-300) > 1e-9 {
		t.Errorf("StorageUsedGB = %v, want 300", m.StorageUsedGB)
	}
	if got := m.StoragePct(n.Capacity.StorageGB); math.Abs(got-300.0/4096*100) > 1e-9 {
		t.Errorf("StoragePct = %v", got)
	}
	if m.VMCount != 1 {
		t.Errorf("VMCount = %d", m.VMCount)
	}
}

func TestSnapshotContention(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0] // 32 pCPU, 128 vCPU admissible
	// 4 × MJ (16 vCPU) at full demand = 64 cores demanded on 32 cores.
	for i := 0; i < 4; i++ {
		vm := newVM(string(rune('a'+i)), "MJ", constProfile{cpu: 1.0, mem: 0.1})
		if err := f.Place(vm, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := f.Host(n.ID)
	m := h.Snapshot(0, 5*sim.Minute)
	if m.CPUUtilPct != 100 {
		t.Errorf("CPUUtilPct = %v, want 100 (saturated)", m.CPUUtilPct)
	}
	if math.Abs(m.CPUContentionPct-50) > 1e-9 { // (64-32)/64
		t.Errorf("CPUContentionPct = %v, want 50", m.CPUContentionPct)
	}
	wantReady := 0.5 * 5 * 60 * 1000 // 150,000 ms over a 5-minute window
	if math.Abs(m.CPUReadyMillis-wantReady) > 1e-9 {
		t.Errorf("CPUReadyMillis = %v, want %v", m.CPUReadyMillis, wantReady)
	}
}

// TestVMSnapshotThrottling saturates the shared pool as TestSnapshotContention
// does: 4 × MJ (16 vCPU) demanding 14.4 + 16 + 16 + 17.6 = 64 cores on 32
// gives 50% contention, which throttles every shared VM by half and charges
// it the host's ready time. A resident without a profile has zero usage.
func TestVMSnapshotThrottling(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	vm := newVM("a", "MJ", constProfile{cpu: 0.9, mem: 0.7})
	bare := newVM("e", "MJ", nil)
	for _, v := range []*vmmodel.VM{vm, newVM("b", "MJ", constProfile{cpu: 1.0}),
		newVM("c", "MJ", constProfile{cpu: 1.0}), newVM("d", "MJ", constProfile{cpu: 1.1}), bare} {
		if err := f.Place(v, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := f.Host(n.ID)
	m := h.Snapshot(0, 5*sim.Minute)
	if math.Abs(m.CPUContentionPct-50) > 1e-9 {
		t.Fatalf("CPUContentionPct = %v, want 50", m.CPUContentionPct)
	}
	u := usageOf(t, h, vm, 0, 5*sim.Minute)
	if math.Abs(u.CPUUsageRatio-0.45) > 1e-9 {
		t.Errorf("throttled usage = %v, want 0.45", u.CPUUsageRatio)
	}
	if u.MemUsageRatio != 0.7 {
		t.Errorf("mem ratio = %v", u.MemUsageRatio)
	}
	if u.ReadyMillis != m.CPUReadyMillis || math.Abs(u.ReadyMillis-150000) > 1e-6 {
		t.Errorf("ready = %v, want the host's %v ≈ 150000", u.ReadyMillis, m.CPUReadyMillis)
	}
	if got := usageOf(t, h, bare, 0, 5*sim.Minute); got != (VMUsage{}) {
		t.Errorf("bare VM usage = %+v, want zero", got)
	}
}

func TestBBAlloc(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	bb, _ := r.BB("bb-0")
	if err := f.Place(newVM("a", "MJ", constProfile{}), bb.Nodes[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Place(newVM("b", "MK", constProfile{}), bb.Nodes[1], 0); err != nil {
		t.Fatal(err)
	}
	agg := f.BBAlloc(bb)
	if agg.VCPUAlloc != 18 || agg.VMCount != 2 || agg.ActiveNodes != 3 {
		t.Errorf("BBAlloc = %+v", agg)
	}
	if agg.VCPUCap != 3*32*4 {
		t.Errorf("VCPUCap = %d, want %d", agg.VCPUCap, 3*32*4)
	}
	bb.Nodes[2].Maintenance = true
	agg = f.BBAlloc(bb)
	if agg.ActiveNodes != 2 {
		t.Errorf("maintenance node counted: %+v", agg)
	}
}

func TestHostsDeterministicOrder(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	hosts := f.Hosts()
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1].Node.ID >= hosts[i].Node.ID {
			t.Fatal("hosts not sorted")
		}
	}
	if _, err := f.Host("nope"); !errors.Is(err, ErrUnknownHost) {
		t.Errorf("unknown host error = %v", err)
	}
}

func TestVMsSorted(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	for _, id := range []string{"c", "a", "b"} {
		if err := f.Place(newVM(id, "SA", constProfile{}), n, 0); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := f.Host(n.ID)
	vms := h.VMs()
	if vms[0].ID != "a" || vms[1].ID != "b" || vms[2].ID != "c" {
		t.Errorf("VMs not sorted: %v", vms)
	}
}

// Invariant: allocation counters equal the sum over resident VMs after any
// sequence of place/migrate/remove operations.
func TestAllocationInvariant(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	nodes := r.Nodes()
	var vms []*vmmodel.VM
	flavors := []string{"SA", "MK", "MN", "MJ", "MC"}
	for i := 0; i < 30; i++ {
		vm := newVM(string(rune('A'+i)), flavors[i%len(flavors)], constProfile{cpu: 0.2})
		if err := f.Place(vm, nodes[i%len(nodes)], 0); err == nil {
			vms = append(vms, vm)
		}
	}
	for i, vm := range vms {
		switch i % 3 {
		case 0:
			_ = f.Migrate(vm, nodes[(i+1)%len(nodes)], sim.Hour)
		case 1:
			_ = f.Remove(vm, sim.Hour)
		}
	}
	for _, h := range f.Hosts() {
		wantCPU, wantMem := 0, int64(0)
		for _, vm := range h.VMs() {
			wantCPU += vm.RequestedCPUCores()
			wantMem += vm.RequestedMemoryMB()
		}
		if h.AllocatedVCPUs() != wantCPU || h.AllocatedMemMB() != wantMem {
			t.Errorf("host %s counters drifted: cpu %d!=%d mem %d!=%d",
				h.Node.ID, h.AllocatedVCPUs(), wantCPU, h.AllocatedMemMB(), wantMem)
		}
	}
}
