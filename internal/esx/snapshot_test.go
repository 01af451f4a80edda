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

// TestVMDemandReadsSnapshotCache checks that the per-VM walks read each
// resident's demand from the host snapshot: a walk at an instant the host was
// not snapshotted at costs exactly one miss and yields bits equal to a fresh
// profile copy's UsageAt, a usage walk at a covered instant counts one hit as
// Snapshot does, a demand walk there counts nothing, and a resident-set change
// costs one more miss.
func TestVMDemandReadsSnapshotCache(t *testing.T) {
	r := testRegion(t)
	f := NewFleet(r, DefaultConfig())
	n := r.Nodes()[0]
	h, _ := f.Host(n.ID)
	var fresh []workload.Profile
	for i := 0; i < 6; i++ {
		p := &workload.Profile{Seed: uint64(i), MeanCPU: 0.2 * float64(i+1),
			MeanMem: 0.6, DiurnalAmp: 0.3, NoiseAmp: 0.2, BurstProb: 0.3, BurstMag: 2}
		fresh = append(fresh, *p)
		if err := f.Place(newVM(fmt.Sprintf("vm-%d", i), "MK", p), n, 0); err != nil {
			t.Fatal(err)
		}
	}
	// want is resident i's usage at t, evaluated on a copy of its profile
	// that has never been evaluated.
	want := func(i int, at sim.Time) vmmodel.Usage {
		p := fresh[i]
		return p.UsageAt(at)
	}
	stats := func(step string, wantHits, wantMisses uint64) {
		t.Helper()
		if hits, misses := f.SnapshotCacheStats(); hits != wantHits || misses != wantMisses {
			t.Fatalf("%s: %d hits, %d misses, want %d, %d", step, hits, misses, wantHits, wantMisses)
		}
	}
	bits := func(u VMUsage) [3]uint64 {
		return [3]uint64{math.Float64bits(u.CPUUsageRatio), math.Float64bits(u.MemUsageRatio), math.Float64bits(u.ReadyMillis)}
	}
	usageWalk := func(at sim.Time) []VMUsage {
		t.Helper()
		var got []VMUsage
		h.EachVMUsage(at, 5*sim.Minute, func(vm *vmmodel.VM, u VMUsage) {
			if vm != h.VMs()[len(got)] {
				t.Fatalf("EachVMUsage visit %d: %s, want %s", len(got), vm.ID, h.VMs()[len(got)].ID)
			}
			got = append(got, u)
		})
		return got
	}
	// check compares a usage walk's values with the fresh copies, throttled
	// by the contention of the snapshot at at (one more hit).
	check := func(at sim.Time, got []VMUsage) {
		t.Helper()
		if len(got) != h.VMCount() {
			t.Fatalf("EachVMUsage visited %d of %d residents", len(got), h.VMCount())
		}
		m := h.Snapshot(at, 5*sim.Minute)
		for i, u := range got {
			w := want(i, at)
			exp := VMUsage{CPUUsageRatio: min(w.CPU*(1-m.CPUContentionPct/100), 1), MemUsageRatio: w.Mem,
				ReadyMillis: m.CPUReadyMillis}
			if bits(u) != bits(exp) {
				t.Fatalf("%s at %v: %+v, want %+v", h.VMs()[i].ID, at, u, exp)
			}
		}
	}

	at := 3*sim.Hour + 5*sim.Minute
	walked := 0
	h.EachVMDemand(at, func(vm *vmmodel.VM, cpu float64) {
		if w := want(walked, at).CPU; vm != h.VMs()[walked] || math.Float64bits(cpu) != math.Float64bits(w) {
			t.Fatalf("EachVMDemand visit %d: %s cpu %v, want %s %v", walked, vm.ID, cpu, h.VMs()[walked].ID, w)
		}
		walked++
	})
	if walked != len(fresh) {
		t.Fatalf("EachVMDemand visited %d of %d residents", walked, len(fresh))
	}
	stats("demand walk at a new instant", 0, 1)
	got := usageWalk(at)
	stats("usage walk at a covered instant", 1, 1)
	check(at, got)
	h.EachVMDemand(at, func(*vmmodel.VM, float64) {})
	stats("demand walk at a covered instant", 2, 1)

	at2 := at + 5*sim.Minute
	got = usageWalk(at2)
	stats("usage walk at a new instant", 2, 2)
	check(at2, got)
	if err := f.Remove(h.VMs()[5], at2); err != nil {
		t.Fatal(err)
	}
	got = usageWalk(at2)
	stats("usage walk after a resident-set change", 3, 3)
	check(at2, got)
}
