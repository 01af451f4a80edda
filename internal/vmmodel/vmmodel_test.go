package vmmodel

import (
	"testing"
	"testing/quick"

	"sapsim/internal/sim"
	"sapsim/internal/topology"
)

func TestVCPUClassBoundaries(t *testing.T) {
	cases := []struct {
		vcpus int
		want  SizeClass
	}{
		{1, Small}, {4, Small}, {5, Medium}, {16, Medium},
		{17, Large}, {64, Large}, {65, ExtraLarge}, {128, ExtraLarge},
	}
	for _, c := range cases {
		if got := VCPUClass(c.vcpus); got != c.want {
			t.Errorf("VCPUClass(%d) = %v, want %v", c.vcpus, got, c.want)
		}
	}
}

func TestRAMClassBoundaries(t *testing.T) {
	cases := []struct {
		ram  int
		want SizeClass
	}{
		{1, Small}, {2, Small}, {3, Medium}, {64, Medium},
		{65, Large}, {128, Large}, {129, ExtraLarge}, {12288, ExtraLarge},
	}
	for _, c := range cases {
		if got := RAMClass(c.ram); got != c.want {
			t.Errorf("RAMClass(%d) = %v, want %v", c.ram, got, c.want)
		}
	}
}

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) != 41 {
		t.Errorf("catalog has %d flavors, want 41 (Fig. 15)", len(cat))
	}
	seen := map[string]bool{}
	for _, f := range cat {
		if seen[f.Name] {
			t.Errorf("duplicate flavor %s", f.Name)
		}
		seen[f.Name] = true
		if f.VCPUs <= 0 || f.RAMGiB <= 0 || f.DiskGB <= 0 {
			t.Errorf("flavor %s has non-positive resources: %+v", f.Name, f)
		}
		if f.PaperCount < 30 {
			t.Errorf("flavor %s has count %d; Fig. 15 only includes flavors with ≥30 instances", f.Name, f.PaperCount)
		}
		if f.MeanLifetimeHours < 13 || f.MeanLifetimeHours > 3.3*365*24 {
			t.Errorf("flavor %s lifetime %vh outside Fig. 15 range 13h..3.2y", f.Name, f.MeanLifetimeHours)
		}
	}
}

func TestCatalogTotalNearPaper(t *testing.T) {
	total := TotalPaperVMs()
	// Figure 15 covers 45,415 of the ~48,000 VMs (flavors ≥30 instances).
	if total < 45000 || total > 46000 {
		t.Errorf("catalog total = %d, want ≈45,400", total)
	}
}

// Table 1 fidelity: classify catalog counts by vCPU class and compare the
// shares against the paper's 28,446 / 14,340 / 1,831 / 738 (relative
// tolerance accounts for the <30-instance flavors excluded from Fig. 15).
func TestTable1VCPUDistribution(t *testing.T) {
	counts := ClassCounts(func(f *Flavor) SizeClass { return f.VCPUClass() })
	paper := map[SizeClass]int{Small: 28446, Medium: 14340, Large: 1831, ExtraLarge: 738}
	for _, class := range SizeClasses {
		got, want := counts[class], paper[class]
		if relDiff(got, want) > 0.25 {
			t.Errorf("Table 1 %v: catalog %d vs paper %d (rel diff %.2f)",
				class, got, want, relDiff(got, want))
		}
	}
	if !(counts[Small] > counts[Medium] && counts[Medium] > counts[Large] && counts[Large] > counts[ExtraLarge]) {
		t.Errorf("Table 1 ordering violated: %v", counts)
	}
}

// Table 2 fidelity: 991 / 41,395 / 787 / 2,184.
func TestTable2RAMDistribution(t *testing.T) {
	counts := ClassCounts(func(f *Flavor) SizeClass { return f.RAMClass() })
	paper := map[SizeClass]int{Small: 991, Medium: 41395, Large: 787, ExtraLarge: 2184}
	for _, class := range SizeClasses {
		got, want := counts[class], paper[class]
		if relDiff(got, want) > 0.45 {
			t.Errorf("Table 2 %v: catalog %d vs paper %d (rel diff %.2f)",
				class, got, want, relDiff(got, want))
		}
	}
	// Structural facts the paper stresses: medium RAM dominates, and the
	// XL RAM population exceeds the Large RAM one (HANA skew).
	if counts[Medium] < 10*counts[ExtraLarge] {
		t.Errorf("medium RAM should dominate: %v", counts)
	}
	if counts[ExtraLarge] <= counts[Large] {
		t.Errorf("XL RAM population should exceed Large (HANA skew): %v", counts)
	}
}

func TestHANAFlavorsAreXLRAM(t *testing.T) {
	for _, f := range Catalog() {
		if f.Class == HANA && f.RAMClass() != ExtraLarge {
			t.Errorf("HANA flavor %s has RAM class %v, want Extra Large", f.Name, f.RAMClass())
		}
		if f.Class == General && f.RAMGiB > 128 {
			t.Errorf("general flavor %s has %d GiB RAM; >128 GiB should be HANA", f.Name, f.RAMGiB)
		}
	}
}

func TestMaxMemoryMatchesPaper(t *testing.T) {
	max := 0
	for _, f := range Catalog() {
		if f.RAMGiB > max {
			max = f.RAMGiB
		}
	}
	if max != 12288 {
		t.Errorf("max flavor memory = %d GiB, want 12288 (12 TB, Table 3)", max)
	}
}

func TestCatalogByName(t *testing.T) {
	m := CatalogByName()
	f, ok := m["MN"]
	if !ok {
		t.Fatal("MN missing from catalog map")
	}
	if f.PaperCount != 11705 {
		t.Errorf("MN count = %d, want 11705", f.PaperCount)
	}
}

func TestVMLifecycle(t *testing.T) {
	cat := CatalogByName()
	vm := &VM{ID: "vm-1", Flavor: cat["MK"], Project: "p1", CreatedAt: sim.Hour}
	if vm.State != Requested {
		t.Errorf("initial state = %v, want requested", vm.State)
	}
	node := testNode(t)
	vm.Place(node, 2*sim.Hour)
	if vm.State != Active || vm.Node != node || vm.BB != node.BB {
		t.Errorf("after Place: state=%v node=%v", vm.State, vm.Node)
	}
	if vm.PlacedAt != 2*sim.Hour {
		t.Errorf("PlacedAt = %v", vm.PlacedAt)
	}
	if got := vm.Lifetime(10 * sim.Hour); got != 9*sim.Hour {
		t.Errorf("live lifetime = %v, want 9h", got)
	}
	vm.Delete(20 * sim.Hour)
	if vm.State != Deleted || vm.Node != nil {
		t.Errorf("after Delete: state=%v node=%v", vm.State, vm.Node)
	}
	if got := vm.Lifetime(100 * sim.Hour); got != 19*sim.Hour {
		t.Errorf("deleted lifetime = %v, want 19h", got)
	}
}

func TestVMMigration(t *testing.T) {
	cat := CatalogByName()
	vm := &VM{ID: "vm-2", Flavor: cat["XLO"]}
	n1 := testNode(t)
	vm.Place(n1, 0)
	n2 := n1.BB.Nodes[1]
	vm.MigrateTo(n2, sim.Hour)
	if vm.Node != n2 {
		t.Error("migration did not move the VM")
	}
	if vm.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", vm.Migrations)
	}
}

func TestRequestedResources(t *testing.T) {
	cat := CatalogByName()
	vm := &VM{Flavor: cat["XLL"]}
	if got := vm.RequestedCPUCores(); got != 96 {
		t.Errorf("cores = %d, want 96", got)
	}
	if got := vm.RequestedMemoryMB(); got != 12288<<10 {
		t.Errorf("memory = %d MiB, want %d", got, 12288<<10)
	}
	if got := vm.RequestedDiskGB(); got != 24576 {
		t.Errorf("disk = %d, want 24576 (HANA sizing: ~3x RAM, capped)", got)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{Requested: "requested", Active: "active", Migrating: "migrating", Deleted: "deleted", State(9): "State(9)"}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, w)
		}
	}
	if HANA.String() != "hana" || General.String() != "general" {
		t.Error("WorkloadClass strings wrong")
	}
	if WorkloadClass(7).String() != "WorkloadClass(7)" {
		t.Error("unknown WorkloadClass string wrong")
	}
	for _, c := range SizeClasses {
		if c.String() == "" {
			t.Errorf("empty size class string for %d", int(c))
		}
	}
	if SizeClass(9).String() != "SizeClass(9)" {
		t.Error("unknown SizeClass string wrong")
	}
}

// Property: classification functions are monotone in their argument.
func TestPropertyClassesMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		return VCPUClass(x) <= VCPUClass(y) && RAMClass(x) <= RAMClass(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testNode(t *testing.T) *topology.Node {
	t.Helper()
	r := topology.NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	cap := topology.Capacity{PCPUCores: 128, MemoryMB: 16 << 20, StorageGB: 32 << 10, NetworkGbps: 200}
	bb, err := dc.AddBB("bb", topology.HANA, 2, cap)
	if err != nil {
		t.Fatal(err)
	}
	return bb.Nodes[0]
}

func relDiff(got, want int) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := float64(got-want) / float64(want)
	if d < 0 {
		d = -d
	}
	return d
}
