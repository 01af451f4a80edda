package esx

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// referenceMetrics is h's snapshot at t with residents vms, given in
// ascending ID order, summed from each profile's UsageAt without the
// resident table.
func referenceMetrics(h *Host, vms []*vmmodel.VM, t, interval sim.Time) Metrics {
	var shared, pinned, memMB, tx, rx, diskGB float64
	for _, vm := range vms {
		if vm.Profile == nil {
			continue
		}
		u := vm.Profile.UsageAt(t)
		cores := float64(vm.RequestedCPUCores())
		demand := float64(u.CPU * cores)
		if vm.Flavor.PinCPU {
			pinned += math.Min(demand, cores)
		} else {
			shared += demand
		}
		memMB += float64(u.Mem * float64(vm.RequestedMemoryMB()))
		tx += u.TxKbps
		rx += u.RxKbps
		diskGB += float64(u.Disk * float64(vm.RequestedDiskGB()))
	}
	m := Metrics{VMCount: len(vms), TxKbps: tx, RxKbps: rx}
	supply, delivered := float64(h.SharedCores()), shared
	if shared > supply {
		delivered = supply
		m.CPUContentionPct = (shared - supply) / shared * 100
	}
	m.CPUUtilPct = (delivered + pinned) / float64(h.Node.Capacity.PCPUCores) * 100
	m.CPUReadyMillis = m.CPUContentionPct / 100 * float64(interval.Duration().Milliseconds())
	phys := float64(h.Node.Capacity.MemoryMB)
	m.MemUsagePct = math.Min(memMB+float64(h.cfg.ReservedMemMB), phys) / phys * 100
	m.StorageUsedGB = math.Min(diskGB+float64(h.cfg.BaseStorageGB), float64(h.Node.Capacity.StorageGB))
	return m
}

// metricsBits is m with every float as its bit pattern.
func metricsBits(m Metrics) [8]uint64 {
	return [8]uint64{math.Float64bits(m.CPUUtilPct), math.Float64bits(m.CPUContentionPct),
		math.Float64bits(m.CPUReadyMillis), math.Float64bits(m.MemUsagePct), math.Float64bits(m.TxKbps),
		math.Float64bits(m.RxKbps), math.Float64bits(m.StorageUsedGB), uint64(m.VMCount)}
}

// TestResidentTableMatchesReference puts generated, replayed, constant and
// profile-less residents, one of them CPU-pinned, on one host, and drives
// place, remove, migrate out and in, and a resize whose new flavor does not
// fit and is rolled back. After every step the table must list the expected
// residents in ID order, refuse a second admission and an eviction of a VM it
// does not hold, and snapshot bit-equal to a reference summed in ID order from
// each profile's UsageAt, on a cache miss and on the hit that follows.
func TestResidentTableMatchesReference(t *testing.T) {
	r := testRegion(t)
	cfg := DefaultConfig()
	f := NewFleet(r, cfg)
	n, other := r.Nodes()[0], r.Nodes()[1]
	h, _ := f.Host(n.ID)

	gen := workload.NewGenerator(workload.DefaultSpec(40, 7)).Generate()
	st := telemetry.NewStore()
	series := func(name string, vals ...float64) *telemetry.Series {
		for i, v := range vals {
			if err := st.Append(name, telemetry.Labels{}, sim.Time(i)*sim.Hour, v); err != nil {
				t.Fatal(err)
			}
		}
		return st.Select(name)[0]
	}
	replay := func(i int) vmmodel.UsageProfile {
		p := fmt.Sprintf("r%d-", i)
		return &workload.ReplayProfile{CPU: series(p+"cpu", 0.2, 0.9, 0.4), Mem: series(p+"mem", 0.5, 0.7),
			Tx: series(p+"tx", 100, 300), Disk: series(p+"disk", 0.3), FallbackCPU: 0.1, FallbackMem: 0.4}
	}
	// Placed out of ID order, so admit inserts at the front, middle and back.
	vms := []*vmmodel.VM{
		newVM("vm-05", "MN", gen[0].VM.Profile),
		newVM("vm-01", "MJ", constProfile{cpu: 2.0, mem: 0.5, tx: 10, rx: 5, disk: 0.3}),
		newVM("vm-09", "MK", replay(0)),
		newVM("vm-03", "MN", gen[1].VM.Profile),
		{ID: "vm-07", Flavor: pinnedFlavor(4, 16), Profile: gen[2].VM.Profile},
		newVM("vm-02", "SA", nil),
		newVM("vm-08", "MK", replay(1)),
		newVM("vm-04", "MN", gen[3].VM.Profile),
		newVM("vm-06", "MJ", constProfile{cpu: 1.5, mem: 0.8, tx: 20, rx: 1, disk: 0.9}),
		newVM("vm-10", "MN", gen[4].VM.Profile),
	}
	absent := newVM("vm-055", "MK", constProfile{})
	resident := map[*vmmodel.VM]bool{}
	at := 2*sim.Day + 23*sim.Hour // the grid crosses into the first weekend

	check := func(step string) {
		t.Helper()
		var want []*vmmodel.VM
		for vm := range resident {
			want = append(want, vm)
		}
		slices.SortFunc(want, func(a, b *vmmodel.VM) int { return strings.Compare(string(a.ID), string(b.ID)) })
		if got := h.VMs(); !slices.Equal(got, want) {
			t.Fatalf("%s: VMs() = %v, want %v", step, got, want)
		}
		if h.VMCount() != len(want) {
			t.Fatalf("%s: VMCount = %d, want %d", step, h.VMCount(), len(want))
		}
		if len(want) > 0 {
			if err := h.admit(want[len(want)/2]); !errors.Is(err, ErrAlreadyPlaced) {
				t.Fatalf("%s: second admission of %s: %v, want ErrAlreadyPlaced", step, want[len(want)/2].ID, err)
			}
		}
		if err := h.evict(absent); !errors.Is(err, ErrNotPlaced) {
			t.Fatalf("%s: eviction of an absent VM: %v, want ErrNotPlaced", step, err)
		}
		at += 5 * sim.Minute
		ref := referenceMetrics(h, want, at, 5*sim.Minute)
		for _, pass := range []string{"miss", "hit"} {
			if got := h.Snapshot(at, 5*sim.Minute); metricsBits(got) != metricsBits(ref) {
				t.Fatalf("%s: snapshot (%s) at %v = %+v, reference %+v", step, pass, at, got, ref)
			}
		}
	}

	check("empty")
	for _, vm := range vms {
		if err := f.Place(vm, n, at); err != nil {
			t.Fatalf("place %s: %v", vm.ID, err)
		}
		resident[vm] = true
		check("place " + string(vm.ID))
	}
	if m := h.Snapshot(at, 5*sim.Minute); m.CPUContentionPct == 0 || h.PinnedCores() == 0 {
		t.Fatalf("fixture exercises neither contention nor pinning: %+v", m)
	}

	if err := f.Remove(vms[3], at); err != nil {
		t.Fatal(err)
	}
	delete(resident, vms[3])
	check("remove vm-03")

	if err := f.Migrate(vms[2], other, at); err != nil {
		t.Fatal(err)
	}
	delete(resident, vms[2])
	check("migrate vm-09 out")
	in := newVM("vm-035", "MK", gen[5].VM.Profile)
	if err := f.Place(in, other, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Migrate(in, n, at); err != nil {
		t.Fatal(err)
	}
	resident[in] = true
	check("migrate vm-035 in")

	// A resize as the scheduler runs it: evict, try the new flavor, and on
	// failure restore the old flavor on the old node.
	vm, old := vms[7], vms[7].Flavor
	if err := f.Evict(vm); err != nil {
		t.Fatal(err)
	}
	delete(resident, vm)
	check("resize evict vm-04")
	vm.Flavor = vmmodel.CatalogByName()["XLC"]
	if err := f.Place(vm, n, at); !errors.Is(err, ErrInsufficientMem) {
		t.Fatalf("resize to XLC: %v, want ErrInsufficientMem", err)
	}
	check("resize refused vm-04")
	vm.Flavor = old
	if err := f.Place(vm, n, at); err != nil {
		t.Fatal(err)
	}
	resident[vm] = true
	check("resize rolled back vm-04")
}
