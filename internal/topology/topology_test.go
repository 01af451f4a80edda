package topology

import (
	"errors"
	"testing"
	"testing/quick"
)

func testCapacity() Capacity {
	return Capacity{PCPUCores: 64, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200}
}

func buildSmallRegion(t *testing.T) *Region {
	t.Helper()
	r := NewRegion("test")
	az := r.AddAZ("az-a")
	dc := az.AddDC("dc-a")
	if _, err := dc.AddBB("bb-0", GeneralPurpose, 4, testCapacity()); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.AddBB("bb-1", HANA, 2, testCapacity()); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCapacityValid(t *testing.T) {
	if !testCapacity().Valid() {
		t.Error("test capacity should be valid")
	}
	invalid := []Capacity{
		{},
		{PCPUCores: -1, MemoryMB: 1, StorageGB: 1, NetworkGbps: 1},
		{PCPUCores: 1, MemoryMB: 0, StorageGB: 1, NetworkGbps: 1},
		{PCPUCores: 1, MemoryMB: 1, StorageGB: 0, NetworkGbps: 1},
		{PCPUCores: 1, MemoryMB: 1, StorageGB: 1, NetworkGbps: 0},
	}
	for i, c := range invalid {
		if c.Valid() {
			t.Errorf("case %d: %+v reported valid", i, c)
		}
	}
}

func TestHierarchyConstruction(t *testing.T) {
	r := buildSmallRegion(t)
	if got := r.NodeCount(); got != 6 {
		t.Errorf("NodeCount = %d, want 6", got)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	bb, err := r.BB("bb-0")
	if err != nil {
		t.Fatal(err)
	}
	if bb.Kind != GeneralPurpose {
		t.Errorf("bb-0 kind = %v, want general-purpose", bb.Kind)
	}
	if len(bb.Nodes) != 4 {
		t.Errorf("bb-0 has %d nodes, want 4", len(bb.Nodes))
	}
	n, err := r.Node("bb-0-n002")
	if err != nil {
		t.Fatal(err)
	}
	if n.BB != bb {
		t.Error("node parent pointer mismatch")
	}
	if n.Index != 2 {
		t.Errorf("node index = %d, want 2", n.Index)
	}
	if n.Datacenter().Name != "dc-a" {
		t.Errorf("node DC = %q, want dc-a", n.Datacenter().Name)
	}
}

func TestDuplicateBBRejected(t *testing.T) {
	r := buildSmallRegion(t)
	dc := r.AZs[0].DCs[0]
	if _, err := dc.AddBB("bb-0", GeneralPurpose, 2, testCapacity()); !errors.Is(err, ErrDuplicateBB) {
		t.Errorf("duplicate BB error = %v, want ErrDuplicateBB", err)
	}
}

func TestBadBBInputs(t *testing.T) {
	r := NewRegion("t")
	dc := r.AddAZ("a").AddDC("d")
	if _, err := dc.AddBB("x", GeneralPurpose, 0, testCapacity()); !errors.Is(err, ErrBadNodeCount) {
		t.Errorf("zero nodes error = %v, want ErrBadNodeCount", err)
	}
	if _, err := dc.AddBB("y", GeneralPurpose, 2, Capacity{}); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("zero capacity error = %v, want ErrBadCapacity", err)
	}
	orphan := &Datacenter{Name: "orphan"}
	if _, err := orphan.AddBB("z", GeneralPurpose, 2, testCapacity()); !errors.Is(err, ErrNoRegionParent) {
		t.Errorf("orphan DC error = %v, want ErrNoRegionParent", err)
	}
}

func TestLookupErrors(t *testing.T) {
	r := buildSmallRegion(t)
	if _, err := r.Node("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node error = %v", err)
	}
	if _, err := r.BB("nope"); !errors.Is(err, ErrUnknownBB) {
		t.Errorf("unknown BB error = %v", err)
	}
}

func TestRegionIterationDeterministic(t *testing.T) {
	r := buildSmallRegion(t)
	a := r.Nodes()
	b := r.Nodes()
	if len(a) != len(b) {
		t.Fatal("node list length varies")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("node iteration order is not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].ID >= a[i].ID {
			t.Fatal("nodes not sorted by ID")
		}
	}
	bbs := r.BBs()
	for i := 1; i < len(bbs); i++ {
		if bbs[i-1].ID >= bbs[i].ID {
			t.Fatal("BBs not sorted by ID")
		}
	}
}

func TestTable5Totals(t *testing.T) {
	hv, vms := Totals()
	// Paper Sec. 3: "more than 6,000 hypervisors" and "more than 200,000
	// active VMs" platform-wide; Table 5 sums to the published rows.
	if hv < 6000 {
		t.Errorf("total hypervisors = %d, want >6000", hv)
	}
	if vms < 160000 {
		t.Errorf("total VMs = %d, want a six-figure count", vms)
	}
}

func TestStudyRegionMatchesPaper(t *testing.T) {
	recs := RegionRecords(StudyRegionID)
	if len(recs) != 2 {
		t.Fatalf("region 9 has %d DCs, want 2", len(recs))
	}
	hv := recs[0].Hypervisors + recs[1].Hypervisors
	vms := recs[0].VMs + recs[1].VMs
	// The paper studies ~1,800 hypervisors and ~48,000 VMs.
	if hv < 1700 || hv > 1900 {
		t.Errorf("study region hypervisors = %d, want ≈1800", hv)
	}
	if vms < 45000 || vms > 50000 {
		t.Errorf("study region VMs = %d, want ≈48000", vms)
	}
}

func TestBuildScaledRegion(t *testing.T) {
	spec := DefaultBuildSpec(0.05)
	r, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.Datacenters()) != 2 {
		t.Errorf("DCs = %d, want 2", len(r.Datacenters()))
	}
	// 5% of 1823 ≈ 91 nodes.
	if n := r.NodeCount(); n < 60 || n > 130 {
		t.Errorf("scaled node count = %d, want ≈91", n)
	}
	// Both kinds of BB must exist and no BB may exceed the size bounds.
	kinds := map[BBKind]int{}
	for _, bb := range r.BBs() {
		kinds[bb.Kind]++
		if len(bb.Nodes) < 2 || len(bb.Nodes) > 128 {
			t.Errorf("BB %s has %d nodes, outside the paper's 2..128", bb.ID, len(bb.Nodes))
		}
	}
	if kinds[GeneralPurpose] == 0 || kinds[HANA] == 0 {
		t.Errorf("BB kind distribution = %v, want both general-purpose and hana", kinds)
	}
	if kinds[GPU] != 2 {
		t.Errorf("GPU BBs = %d, want one per DC", kinds[GPU])
	}
	// Reserved failover blocks exist and are general purpose.
	reserved := 0
	for _, bb := range r.BBs() {
		if bb.Reserved {
			reserved++
			if bb.Kind != GeneralPurpose {
				t.Errorf("reserved BB %s has kind %v", bb.ID, bb.Kind)
			}
		}
	}
	if reserved == 0 {
		t.Error("no reserved failover blocks")
	}
}

func TestBuildRejectsBadInputs(t *testing.T) {
	if _, err := Build(BuildSpec{RegionID: StudyRegionID, Scale: 0}); err == nil {
		t.Error("zero scale accepted")
	}
	spec := DefaultBuildSpec(0.1)
	spec.RegionID = 999
	if _, err := Build(spec); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestBBKindString(t *testing.T) {
	cases := map[BBKind]string{GeneralPurpose: "general-purpose", HANA: "hana", GPU: "gpu", BBKind(42): "BBKind(42)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
}

// Property: Build never produces single-node BBs and always validates, for
// any reasonable scale.
func TestPropertyBuildWellFormed(t *testing.T) {
	f := func(raw uint8) bool {
		scale := 0.02 + float64(raw)/255.0*0.2 // 0.02 .. 0.22
		r, err := Build(DefaultBuildSpec(scale))
		if err != nil {
			return false
		}
		if r.Validate() != nil {
			return false
		}
		for _, bb := range r.BBs() {
			if len(bb.Nodes) < 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
