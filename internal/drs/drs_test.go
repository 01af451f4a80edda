package drs

import (
	"fmt"
	"testing"

	"sapsim/internal/esx"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

type constProfile struct{ cpu, mem float64 }

func (p constProfile) UsageAt(sim.Time) vmmodel.Usage {
	return vmmodel.Usage{CPU: p.cpu, Mem: p.mem, Disk: 0.1}
}

func testFleet(t *testing.T, nodes int) (*esx.Fleet, *topology.BuildingBlock) {
	t.Helper()
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	cap := topology.Capacity{PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200}
	bb, err := dc.AddBB("bb-0", topology.GeneralPurpose, nodes, cap)
	if err != nil {
		t.Fatal(err)
	}
	return esx.NewFleet(r, esx.DefaultConfig()), bb
}

func place(t *testing.T, f *esx.Fleet, node *topology.Node, id, flavor string, cpu, mem float64) *vmmodel.VM {
	t.Helper()
	vm := &vmmodel.VM{ID: vmmodel.ID(id), Flavor: vmmodel.CatalogByName()[flavor], Profile: constProfile{cpu: cpu, mem: mem}}
	if err := f.Place(vm, node, 0); err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestRebalanceMovesFromHotToCold(t *testing.T) {
	fleet, bb := testFleet(t, 2)
	hot, cold := bb.Nodes[0], bb.Nodes[1]
	// Hot node: 3 × MJ (16 vCPU) at 90% demand = 43.2 cores on 32 → saturated.
	for i := 0; i < 3; i++ {
		place(t, fleet, hot, fmt.Sprintf("h%d", i), "MJ", 0.9, 0.3)
	}
	// Cold node: one tiny VM.
	place(t, fleet, cold, "c0", "SA", 0.1, 0.3)

	d := New(fleet, DefaultConfig())
	moved := d.RebalanceBB(bb, sim.Hour)
	if moved == 0 {
		t.Fatal("DRS did not migrate despite heavy imbalance")
	}
	hHot, _ := fleet.Host(hot.ID)
	hCold, _ := fleet.Host(cold.ID)
	if hCold.VMCount() < 2 {
		t.Errorf("cold node still has %d VMs", hCold.VMCount())
	}
	// Imbalance should have shrunk.
	sHot := hHot.Snapshot(sim.Hour, sim.Minute)
	sCold := hCold.Snapshot(sim.Hour, sim.Minute)
	if sHot.CPUUtilPct-sCold.CPUUtilPct > 60 {
		t.Errorf("imbalance persists: hot %.1f cold %.1f", sHot.CPUUtilPct, sCold.CPUUtilPct)
	}
	if d.Migrations() != moved {
		t.Errorf("migration counter mismatch: %d vs %d", d.Migrations(), moved)
	}
}

func TestRebalanceRespectsThreshold(t *testing.T) {
	fleet, bb := testFleet(t, 2)
	// Mild imbalance below the 20-point trigger: 30% vs 20%.
	place(t, fleet, bb.Nodes[0], "a", "MJ", 0.6, 0.3) // 9.6/32 = 30%
	place(t, fleet, bb.Nodes[1], "b", "MJ", 0.4, 0.3) // 6.4/32 = 20%
	d := New(fleet, DefaultConfig())
	if moved := d.RebalanceBB(bb, 0); moved != 0 {
		t.Errorf("DRS migrated %d below threshold", moved)
	}
}

func TestRebalanceSkipsHeavyVMs(t *testing.T) {
	fleet, bb := testFleet(t, 2)
	// The only VM on the hot node is memory-heavy (XLB = 192 GiB) but the
	// cutoff is set lower, so DRS must leave it alone.
	place(t, fleet, bb.Nodes[0], "big", "MJ", 1.2, 0.9)
	place(t, fleet, bb.Nodes[1], "small", "SA", 0.05, 0.1)
	cfg := DefaultConfig()
	cfg.MaxVMMemGiB = 32 // below MJ's 64 GiB
	d := New(fleet, cfg)
	if moved := d.RebalanceBB(bb, 0); moved != 0 {
		t.Errorf("DRS migrated a VM above the memory cutoff (%d moves)", moved)
	}
}

func TestRebalanceMigrationBudget(t *testing.T) {
	fleet, bb := testFleet(t, 2)
	for i := 0; i < 6; i++ {
		place(t, fleet, bb.Nodes[0], fmt.Sprintf("h%d", i), "MJ", 0.9, 0.2)
	}
	cfg := DefaultConfig()
	cfg.MaxMigrationsPerPass = 1
	d := New(fleet, cfg)
	if moved := d.RebalanceBB(bb, 0); moved > 1 {
		t.Errorf("DRS exceeded its per-pass budget: %d", moved)
	}
}

func TestRebalanceAvoidsOverloadingTarget(t *testing.T) {
	fleet, bb := testFleet(t, 2)
	// Both nodes heavily loaded; moving anything would overload target.
	for i := 0; i < 3; i++ {
		place(t, fleet, bb.Nodes[0], fmt.Sprintf("a%d", i), "MJ", 1.0, 0.2)
	}
	for i := 0; i < 2; i++ {
		place(t, fleet, bb.Nodes[1], fmt.Sprintf("b%d", i), "MJ", 0.85, 0.2)
	}
	d := New(fleet, DefaultConfig())
	moved := d.RebalanceBB(bb, 0)
	if moved != 0 {
		t.Errorf("DRS moved %d VMs onto an already-busy target", moved)
	}
}

func TestRebalanceAllCoversRegion(t *testing.T) {
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	cap := topology.Capacity{PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200}
	bb1, _ := dc.AddBB("bb-1", topology.GeneralPurpose, 2, cap)
	bb2, _ := dc.AddBB("bb-2", topology.GeneralPurpose, 2, cap)
	fleet := esx.NewFleet(r, esx.DefaultConfig())
	for i := 0; i < 3; i++ {
		place(t, fleet, bb1.Nodes[0], fmt.Sprintf("x%d", i), "MJ", 0.9, 0.2)
		place(t, fleet, bb2.Nodes[0], fmt.Sprintf("y%d", i), "MJ", 0.9, 0.2)
	}
	d := New(fleet, DefaultConfig())
	total := d.RebalanceAll(0)
	if total < 2 {
		t.Errorf("RebalanceAll moved %d, want ≥2 (one per BB)", total)
	}
	if d.Passes() != len(r.BBs()) {
		t.Errorf("passes = %d, want %d", d.Passes(), len(r.BBs()))
	}
}

func TestDRSNeverCrossesBBBoundary(t *testing.T) {
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	cap := topology.Capacity{PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200}
	bb1, _ := dc.AddBB("bb-1", topology.GeneralPurpose, 2, cap)
	bb2, _ := dc.AddBB("bb-2", topology.GeneralPurpose, 2, cap)
	fleet := esx.NewFleet(r, esx.DefaultConfig())
	var vms []*vmmodel.VM
	for i := 0; i < 4; i++ {
		vms = append(vms, place(t, fleet, bb1.Nodes[0], fmt.Sprintf("v%d", i), "MJ", 0.95, 0.2))
	}
	_ = bb2
	d := New(fleet, DefaultConfig())
	d.RebalanceAll(0)
	for _, vm := range vms {
		if vm.BB != bb1 {
			t.Errorf("DRS moved %s across BB boundary to %s", vm.ID, vm.BB.ID)
		}
	}
}

func TestCrossBBRebalance(t *testing.T) {
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	cap := topology.Capacity{PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200}
	bb1, _ := dc.AddBB("bb-1", topology.GeneralPurpose, 2, cap)
	bb2, _ := dc.AddBB("bb-2", topology.GeneralPurpose, 2, cap)
	fleet := esx.NewFleet(r, esx.DefaultConfig())
	// bb-1 is memory-loaded (4 × MC = 256 GiB of ~896 admissible), bb-2 empty.
	for i := 0; i < 6; i++ {
		place(t, fleet, bb1.Nodes[i%2], fmt.Sprintf("v%d", i), "MC", 0.3, 0.8)
	}
	_ = bb2
	moved := 0
	c := NewCrossBB(fleet, func(vm *vmmodel.VM, to *topology.Node, now sim.Time) error {
		moved++
		return fleet.Migrate(vm, to, now)
	})
	c.TriggerPct = 10
	n := c.Rebalance(0)
	if n == 0 {
		t.Fatal("cross-BB rebalancer did not move anything")
	}
	if n != moved || c.Moves() != n {
		t.Errorf("move accounting mismatch: %d %d %d", n, moved, c.Moves())
	}
	if fleet.BBAlloc(bb2).VMCount == 0 {
		t.Error("bb-2 still empty after rebalance")
	}
}

func TestCrossBBNoTriggerBelowThreshold(t *testing.T) {
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	cap := topology.Capacity{PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200}
	bb1, _ := dc.AddBB("bb-1", topology.GeneralPurpose, 2, cap)
	bb2, _ := dc.AddBB("bb-2", topology.GeneralPurpose, 2, cap)
	fleet := esx.NewFleet(r, esx.DefaultConfig())
	place(t, fleet, bb1.Nodes[0], "a", "MK", 0.3, 0.5)
	place(t, fleet, bb2.Nodes[0], "b", "MK", 0.3, 0.5)
	c := NewCrossBB(fleet, func(vm *vmmodel.VM, to *topology.Node, now sim.Time) error {
		return fleet.Migrate(vm, to, now)
	})
	if n := c.Rebalance(0); n != 0 {
		t.Errorf("balanced BBs triggered %d moves", n)
	}
}

func TestCrossBBSingleBBGroupIsNoop(t *testing.T) {
	fleet, bb := testFleet(t, 2)
	place(t, fleet, bb.Nodes[0], "a", "MC", 0.5, 0.9)
	c := NewCrossBB(fleet, func(vm *vmmodel.VM, to *topology.Node, now sim.Time) error {
		return fleet.Migrate(vm, to, now)
	})
	if n := c.Rebalance(0); n != 0 {
		t.Errorf("single-BB group moved %d", n)
	}
}
