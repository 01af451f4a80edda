package esx

import (
	"fmt"
	"math"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// TestSnapshotAllocs pins the sampling hot path: Snapshot must not allocate
// — it walks the host's resident table and returns a value — whether the
// residents' profiles are generated ones, evaluated at the walk's Clock, or
// any other vmmodel.UsageProfile.
func TestSnapshotAllocs(t *testing.T) {
	gen := workload.NewGenerator(workload.DefaultSpec(40, 42)).Generate()
	for _, row := range []struct {
		name    string
		profile func(i int) vmmodel.UsageProfile
	}{
		{"constant", func(int) vmmodel.UsageProfile {
			return constProfile{cpu: 0.4, mem: 0.6, tx: 10, rx: 5, disk: 0.3}
		}},
		{"generated", func(i int) vmmodel.UsageProfile { return gen[i].VM.Profile }},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := testRegion(t)
			f := NewFleet(r, DefaultConfig())
			n := r.Nodes()[0]
			for i := 0; i < 20; i++ {
				vm := newVM(fmt.Sprintf("vm-%02d", i), "MK", row.profile(i))
				if err := f.Place(vm, n, 0); err != nil {
					t.Fatal(err)
				}
			}
			h, err := f.Host(n.ID)
			if err != nil {
				t.Fatal(err)
			}
			now := sim.Time(0)
			avg := testing.AllocsPerRun(200, func() {
				now += sim.Minute
				m := h.Snapshot(now, sim.Minute)
				if m.VMCount != 20 {
					t.Fatalf("snapshot saw %d VMs, want 20", m.VMCount)
				}
			})
			if avg > 0 {
				t.Errorf("Snapshot allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// TestSnapshotCacheInvalidation asserts the (time, version) cache returns
// fresh metrics after a resident-set change at the same instant, and that
// ready time tracks the caller's interval even on cache hits.
func TestSnapshotCacheInvalidation(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	h, _ := f.Host(n.ID)

	// Saturate the shared pool so contention (and ready time) is non-zero:
	// aggregate demand at 2x the requested cores far exceeds the 32
	// physical cores.
	for i := 0; i < 8; i++ {
		vm := newVM(fmt.Sprintf("hot-%d", i), "MN", constProfile{cpu: 2.0})
		if err := f.Place(vm, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	at := sim.Hour
	m1 := h.Snapshot(at, sim.Minute)
	if m1.CPUContentionPct <= 0 {
		t.Fatalf("fixture not contended: %+v", m1)
	}
	// Same instant, different interval: ready time must scale 5x.
	m5 := h.Snapshot(at, 5*sim.Minute)
	if want := m1.CPUReadyMillis * 5; m5.CPUReadyMillis != want {
		t.Errorf("ready over 5m = %v, want %v", m5.CPUReadyMillis, want)
	}
	// Same instant, resident set changes: the cache must not serve stale
	// demand.
	victim := h.VMs()[0]
	if err := f.Remove(victim, at); err != nil {
		t.Fatal(err)
	}
	m2 := h.Snapshot(at, sim.Minute)
	if m2.VMCount != 7 || m2.CPUContentionPct >= m1.CPUContentionPct {
		t.Errorf("stale snapshot after evict: before %+v after %+v", m1, m2)
	}
}

// TestVMDemandReadsSnapshotCache checks that VMSnapshot, EachVMSnapshot and
// EachVMDemand read the resident's demand from the snapshot cached for (t,
// resident set) — bit-identical to re-evaluating the profile — and that only
// reads the cache does not cover fall back and are counted.
func TestVMDemandReadsSnapshotCache(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	h, _ := f.Host(n.ID)
	for i := 0; i < 6; i++ {
		vm := newVM(fmt.Sprintf("vm-%d", i), "MK", &workload.Profile{Seed: uint64(i), MeanCPU: 0.2 * float64(i+1),
			MeanMem: 0.6, DiurnalAmp: 0.3, NoiseAmp: 0.2, BurstProb: 0.3, BurstMag: 2})
		if err := f.Place(vm, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	fallbacks := func(want uint64) {
		t.Helper()
		if got := f.SnapshotFallbacks(); got != want {
			t.Fatalf("fallbacks = %d, want %d", got, want)
		}
	}
	at := 3*sim.Hour + 5*sim.Minute
	var fresh []VMUsage
	for _, vm := range h.VMs() {
		fresh = append(fresh, h.VMSnapshot(vm, at, 5*sim.Minute, 20))
	}
	fallbacks(6)
	h.Snapshot(at, 5*sim.Minute)
	for i, vm := range h.VMs() {
		u := h.VMSnapshot(vm, at, 5*sim.Minute, 20)
		if math.Float64bits(u.CPUUsageRatio) != math.Float64bits(fresh[i].CPUUsageRatio) ||
			math.Float64bits(u.MemUsageRatio) != math.Float64bits(fresh[i].MemUsageRatio) || u != fresh[i] {
			t.Fatalf("%s: cached %+v, re-evaluated %+v", vm.ID, u, fresh[i])
		}
	}
	var walked int
	h.EachVMSnapshot(at, 5*sim.Minute, 20, func(vm *vmmodel.VM, u VMUsage) {
		if vm != h.VMs()[walked] || u != fresh[walked] {
			t.Fatalf("EachVMSnapshot visit %d: %s %+v, want %s %+v", walked, vm.ID, u, h.VMs()[walked].ID, fresh[walked])
		}
		walked++
	})
	if walked != len(fresh) {
		t.Fatalf("EachVMSnapshot visited %d of %d residents", walked, len(fresh))
	}
	h.EachVMDemand(at, func(vm *vmmodel.VM, cpu float64) {
		if want := vm.Profile.CPUUsage(at); math.Float64bits(cpu) != math.Float64bits(want) {
			t.Fatalf("%s: EachVMDemand cpu = %v, CPUUsage = %v", vm.ID, cpu, want)
		}
	})
	fallbacks(6)

	// Another instant, a VM resident elsewhere, and a resident-set change at
	// the cached instant all miss the cache.
	vm0 := h.VMs()[0]
	h.VMSnapshot(vm0, at+5*sim.Minute, 5*sim.Minute, 0)
	fallbacks(7)
	h.VMSnapshot(newVM("elsewhere", "MK", vm0.Profile), at, 5*sim.Minute, 0)
	fallbacks(8)
	if err := f.Remove(h.VMs()[5], at); err != nil {
		t.Fatal(err)
	}
	h.VMSnapshot(vm0, at, 5*sim.Minute, 0)
	fallbacks(9)
}
