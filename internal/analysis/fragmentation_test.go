package analysis

import (
	"fmt"
	"testing"

	"sapsim/internal/esx"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

type flatProfile struct{ cpu, mem float64 }

func (p flatProfile) CPUUsage(sim.Time) float64  { return p.cpu }
func (p flatProfile) MemUsage(sim.Time) float64  { return p.mem }
func (p flatProfile) NetTxKbps(sim.Time) float64 { return 0 }
func (p flatProfile) NetRxKbps(sim.Time) float64 { return 0 }
func (p flatProfile) DiskUsage(sim.Time) float64 { return 0.1 }
func (p flatProfile) UsageAt(t sim.Time) vmmodel.Usage {
	return vmmodel.Usage{CPU: p.CPUUsage(t), Mem: p.MemUsage(t),
		TxKbps: p.NetTxKbps(t), RxKbps: p.NetRxKbps(t), Disk: p.DiskUsage(t)}
}

func fragFleet(t *testing.T) (*esx.Fleet, *topology.BuildingBlock) {
	t.Helper()
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	cap := topology.Capacity{PCPUCores: 32, MemoryMB: 256 << 10, StorageGB: 4 << 10, NetworkGbps: 100}
	bb, err := dc.AddBB("bb", topology.GeneralPurpose, 4, cap)
	if err != nil {
		t.Fatal(err)
	}
	return esx.NewFleet(r, esx.DefaultConfig()), bb
}

func place(t *testing.T, fleet *esx.Fleet, node *topology.Node, id, flavor string) {
	t.Helper()
	vm := &vmmodel.VM{ID: vmmodel.ID(id), Flavor: vmmodel.CatalogByName()[flavor], Profile: flatProfile{cpu: 0.2, mem: 0.5}}
	if err := fleet.Place(vm, node, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceableEmptyFleet(t *testing.T) {
	fleet, _ := fragFleet(t)
	// 4 nodes × 256 GiB − 64 GiB reserved = 192 GiB usable each.
	// LB (8 vCPU, 128 GiB): memory-bound → 1 per node.
	lb := vmmodel.CatalogByName()["LB"]
	if got := PlaceableVMs(fleet, lb); got != 4 {
		t.Errorf("placeable LB = %d, want 4", got)
	}
	// Aggregate view: 768 GiB pooled / 128 = 6 — fragmentation hides 2.
	if got := AggregatePlaceableVMs(fleet, lb); got != 6 {
		t.Errorf("aggregate LB = %d, want 6", got)
	}
	rep := FragmentationReport{Flavor: lb, Placeable: 4, AggregateImplied: 6}
	if f := rep.StrandedFraction(); f < 0.3 || f > 0.34 {
		t.Errorf("stranded = %v, want 1/3", f)
	}
}

func TestPlaceableRespectsLoad(t *testing.T) {
	fleet, bb := fragFleet(t)
	lb := vmmodel.CatalogByName()["LB"]
	before := PlaceableVMs(fleet, lb)
	place(t, fleet, bb.Nodes[0], "x", "LB")
	after := PlaceableVMs(fleet, lb)
	if after != before-1 {
		t.Errorf("placeable after one placement = %d, want %d", after, before-1)
	}
	// Maintenance removes a node's contribution entirely.
	bb.Nodes[1].Maintenance = true
	if got := PlaceableVMs(fleet, lb); got != after-1 {
		t.Errorf("placeable with maintenance = %d, want %d", got, after-1)
	}
}

func TestStrandedFractionEdge(t *testing.T) {
	rep := FragmentationReport{Placeable: 0, AggregateImplied: 0}
	if rep.StrandedFraction() != 0 {
		t.Error("zero-capacity stranded fraction should be 0")
	}
}

func TestFragmentationByFlavorOrdering(t *testing.T) {
	fleet, bb := fragFleet(t)
	// Scatter mid-size VMs across all nodes so big flavors are the most
	// fragmented.
	for i, n := range bb.Nodes {
		place(t, fleet, n, fmt.Sprintf("mc-%d", i), "MC")
	}
	flavors := []*vmmodel.Flavor{
		vmmodel.CatalogByName()["SA"],
		vmmodel.CatalogByName()["LB"],
	}
	reports := FragmentationByFlavor(fleet, flavors)
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	// LB (large) must be at least as stranded as SA (tiny).
	if reports[0].Flavor.Name == "SA" && reports[0].StrandedFraction() > reports[1].StrandedFraction() {
		t.Errorf("tiny flavor more stranded than large: %+v", reports)
	}
	for _, r := range reports {
		if r.Placeable > r.AggregateImplied {
			t.Errorf("%s: placeable %d exceeds aggregate %d", r.Flavor.Name, r.Placeable, r.AggregateImplied)
		}
	}
}

func TestBBImbalances(t *testing.T) {
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	cap := topology.Capacity{PCPUCores: 32, MemoryMB: 256 << 10, StorageGB: 4 << 10, NetworkGbps: 100}
	bb1, _ := dc.AddBB("b1", topology.GeneralPurpose, 2, cap)
	bb2, _ := dc.AddBB("b2", topology.GeneralPurpose, 2, cap)
	bb3, _ := dc.AddBB("b3", topology.GeneralPurpose, 2, cap)
	bb3.Reserved = true
	fleet := esx.NewFleet(r, esx.DefaultConfig())
	// Load bb1 heavily, bb2 not at all.
	place(t, fleet, bb1.Nodes[0], "a", "LB")
	place(t, fleet, bb1.Nodes[1], "b", "LB")
	_ = bb2

	imbs := BBImbalances(fleet)
	if len(imbs) != 1 {
		t.Fatalf("groups = %d, want 1 (reserved excluded)", len(imbs))
	}
	imb := imbs[0]
	if imb.BBsCount != 2 {
		t.Errorf("BBs counted = %d, want 2", imb.BBsCount)
	}
	if imb.MinPct != 0 || imb.MaxPct <= 0 {
		t.Errorf("imbalance = %+v", imb)
	}
	if imb.Spread != imb.MaxPct-imb.MinPct {
		t.Errorf("spread inconsistent: %+v", imb)
	}
}
