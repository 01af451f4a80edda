package esx

import (
	"errors"
	"math"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// pinnedFlavor returns a CPU-pinned test flavor (the Sec. 8 QoS class).
func pinnedFlavor(vcpus, ramGiB int) *vmmodel.Flavor {
	return &vmmodel.Flavor{
		Name: "PINNED", VCPUs: vcpus, RAMGiB: ramGiB, DiskGB: 100, PinCPU: true,
	}
}

func TestPinnedAdmissionOneToOne(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig()) // 32 pCPU, overcommit 4
	n := r.Nodes()[0]

	// Pinned VMs are exempt from overcommit: only 32 pinned vCPUs fit.
	vm1 := &vmmodel.VM{ID: "p1", Flavor: pinnedFlavor(20, 32), Profile: constProfile{cpu: 1.0, mem: 0.5}}
	if err := f.Place(vm1, n, 0); err != nil {
		t.Fatal(err)
	}
	vm2 := &vmmodel.VM{ID: "p2", Flavor: pinnedFlavor(20, 32), Profile: constProfile{cpu: 1.0, mem: 0.5}}
	if err := f.Place(vm2, n, 0); !errors.Is(err, ErrInsufficientCPU) {
		t.Errorf("over-pinning error = %v, want ErrInsufficientCPU", err)
	}
	h, _ := f.Host(n.ID)
	if h.PinnedCores() != 20 || h.SharedCores() != 12 {
		t.Errorf("pinned/shared = %d/%d, want 20/12", h.PinnedCores(), h.SharedCores())
	}
	// Shared capacity shrank accordingly: 12 × 4 = 48 vCPUs.
	if got := h.VCPUCapacity(); got != 48 {
		t.Errorf("shared capacity = %d, want 48", got)
	}
}

func TestPinnedCannotStrandSharedAllocations(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	// Fill the shared pool to 120 vCPUs (capacity 128 at 32 cores × 4).
	for i := 0; i < 15; i++ {
		vm := newVM(string(rune('a'+i)), "MH", constProfile{cpu: 0.1, mem: 0.1}) // 4 vCPU, 8 GiB; 15×4 = 60 vCPU
		if err := f.Place(vm, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := f.Host(n.ID)
	if h.AllocatedVCPUs() != 60 {
		t.Fatalf("setup: shared alloc = %d", h.AllocatedVCPUs())
	}
	// Pinning 20 cores would leave 12 shared cores = 48 admissible
	// vCPUs < 60 already allocated: must be rejected.
	vm := &vmmodel.VM{ID: "pin", Flavor: pinnedFlavor(20, 16), Profile: constProfile{}}
	if err := f.Place(vm, n, 0); !errors.Is(err, ErrInsufficientCPU) {
		t.Errorf("stranding pin error = %v, want ErrInsufficientCPU", err)
	}
	// A smaller pin that keeps the shared pool solvent is fine.
	vm2 := &vmmodel.VM{ID: "pin2", Flavor: pinnedFlavor(8, 16), Profile: constProfile{}}
	if err := f.Place(vm2, n, 0); err != nil {
		t.Errorf("viable pin rejected: %v", err)
	}
}

func TestPinnedVMsNeverContended(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0] // 32 cores

	// One pinned VM at full demand on 8 dedicated cores.
	pinned := &vmmodel.VM{ID: "pin", Flavor: pinnedFlavor(8, 16), Profile: constProfile{cpu: 1.0, mem: 0.5}}
	if err := f.Place(pinned, n, 0); err != nil {
		t.Fatal(err)
	}
	// Shared pool (24 cores) saturated by 3 × MJ (16 vCPU) at 100%.
	for i := 0; i < 3; i++ {
		vm := newVM(string(rune('a'+i)), "MJ", constProfile{cpu: 1.0, mem: 0.1})
		if err := f.Place(vm, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := f.Host(n.ID)
	m := h.Snapshot(0, 5*sim.Minute)
	// Shared demand 48 on 24 cores → 50% contention.
	if math.Abs(m.CPUContentionPct-50) > 1e-9 {
		t.Errorf("shared contention = %v, want 50", m.CPUContentionPct)
	}
	// Utilization: (24 shared delivered + 8 pinned) / 32 = 100%.
	if math.Abs(m.CPUUtilPct-100) > 1e-9 {
		t.Errorf("util = %v, want 100", m.CPUUtilPct)
	}
	// The pinned VM sees full delivery and zero ready time despite host
	// contention — the QoS guarantee.
	u := usageOf(t, h, pinned, 0, 5*sim.Minute)
	if u.CPUUsageRatio != 1.0 || u.ReadyMillis != 0 {
		t.Errorf("pinned VM usage = %+v, want full delivery, zero ready", u)
	}
	// A shared VM is throttled.
	shared := h.VMs()[0]
	if shared.Flavor.PinCPU {
		shared = h.VMs()[1]
	}
	us := usageOf(t, h, shared, 0, 5*sim.Minute)
	if us.CPUUsageRatio >= 1.0 || us.ReadyMillis == 0 {
		t.Errorf("shared VM usage = %+v, want throttled", us)
	}
}

func TestPinnedEvictRestoresSharedPool(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	vm := &vmmodel.VM{ID: "pin", Flavor: pinnedFlavor(16, 32), Profile: constProfile{}}
	if err := f.Place(vm, n, 0); err != nil {
		t.Fatal(err)
	}
	h, _ := f.Host(n.ID)
	if h.SharedCores() != 16 {
		t.Fatalf("shared cores = %d", h.SharedCores())
	}
	if err := f.Remove(vm, sim.Hour); err != nil {
		t.Fatal(err)
	}
	if h.SharedCores() != 32 || h.PinnedCores() != 0 {
		t.Errorf("pool not restored: shared=%d pinned=%d", h.SharedCores(), h.PinnedCores())
	}
}

func TestPinnedFits(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	h, _ := f.Host(r.Nodes()[0].ID)
	if !h.Fits(pinnedFlavor(32, 16)) {
		t.Error("exact pinned fit rejected")
	}
	if h.Fits(pinnedFlavor(33, 16)) {
		t.Error("oversized pin accepted")
	}
}

// TestPinningShieldsLatencySensitiveVM is the Sec. 8 QoS outlook: a
// latency-sensitive VM shares one 32-core host with four bursty noisy
// neighbors for a day. With dedicated cores it gets its demand delivered
// and never waits; on the shared pool it is throttled under contention.
func TestPinningShieldsLatencySensitiveVM(t *testing.T) {
	run := func(pinned bool) (delivered, readyS float64) {
		r := topology.NewRegion("pin")
		bb, err := r.AddAZ("a").AddDC("d").AddBB("bb", topology.GeneralPurpose, 1, topology.Capacity{
			PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		fleet := NewFleet(r, DefaultConfig())
		node := bb.Nodes[0]
		critical := &vmmodel.VM{
			ID:      "critical",
			Flavor:  &vmmodel.Flavor{Name: "CRIT", VCPUs: 8, RAMGiB: 32, DiskGB: 100, PinCPU: pinned},
			Profile: &workload.Profile{Seed: 1, MeanCPU: 0.9},
		}
		if err := fleet.Place(critical, node, 0); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			noisy := &vmmodel.VM{
				ID:      vmmodel.ID(rune('a' + j)),
				Flavor:  vmmodel.CatalogByName()["MJ"],
				Profile: &workload.Profile{Seed: uint64(j + 2), MeanCPU: 0.9, BurstProb: 0.3, BurstMag: 1.6},
			}
			if err := fleet.Place(noisy, node, 0); err != nil {
				t.Fatal(err)
			}
		}
		h, err := fleet.Host(node.ID)
		if err != nil {
			t.Fatal(err)
		}
		const step = 5 * sim.Minute
		for ts := sim.Time(0); ts < sim.Day; ts += step {
			u := usageOf(t, h, critical, ts, step)
			delivered += u.CPUUsageRatio
			readyS += u.ReadyMillis / 1000
		}
		n := float64(sim.Day / step)
		return delivered / n, readyS / n
	}
	pinDelivered, pinReady := run(true)
	sharedDelivered, sharedReady := run(false)
	t.Logf("mean delivered ratio %.3f pinned, %.3f shared; mean ready %.3f s pinned, %.3f s shared",
		pinDelivered, sharedDelivered, pinReady, sharedReady)
	if pinReady != 0 || sharedReady == 0 {
		t.Errorf("ready time %v s pinned, %v s shared; want 0 pinned only", pinReady, sharedReady)
	}
	if pinDelivered <= sharedDelivered {
		t.Errorf("delivered ratio %.3f pinned <= %.3f shared", pinDelivered, sharedDelivered)
	}
}
