package nova

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sapsim/internal/placement"
	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// Property: across random schedule/delete/resize sequences interleaved with
// maintenance flips and inventory refreshes, the scheduler never violates
// admission limits, never double-books placement, keeps hypervisor and
// placement accounting in agreement, and placement's candidate query admits
// exactly the providers whose traits and free capacity fit each flavor.
func TestPropertySchedulerInvariants(t *testing.T) {
	gpuFlavor := &vmmodel.Flavor{Name: "GA", VCPUs: 16, RAMGiB: 128, DiskGB: 100, RequireGPU: true}
	flavors := append(vmmodel.Catalog(), gpuFlavor)
	// A GPU block and a reserved general-purpose block widen the trait
	// shapes beyond testEnv's general and HANA blocks.
	extend := func(r *topology.Region) {
		dc := r.AZs[0].DCs[0]
		gen := topology.Capacity{PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200}
		if _, err := dc.AddBB("gpu-0", topology.GPU, 2, gen); err != nil {
			t.Fatal(err)
		}
		reserved, err := dc.AddBB("gp-r", topology.GeneralPurpose, 2, gen)
		if err != nil {
			t.Fatal(err)
		}
		reserved.Reserved = true
	}
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 77))
		fleet, sched := testEnvWith(t, DefaultConfig(), extend)
		pl := schedPlacement(sched)
		var live []*vmmodel.VM
		now := sim.Time(0)

		for step := 0; step < 300; step++ {
			now += sim.Minute
			switch op := rng.IntN(12); {
			case op < 6: // schedule
				f := flavors[rng.IntN(len(flavors))]
				vm := &vmmodel.VM{
					ID:      vmmodel.ID(fmt.Sprintf("t%d-vm%d", trial, step)),
					Flavor:  f,
					Profile: constProfile{cpu: 0.2, mem: 0.5},
				}
				if _, err := sched.Schedule(&RequestSpec{VM: vm}, now); err == nil {
					live = append(live, vm)
				}
			case op < 8 && len(live) > 0: // delete
				i := rng.IntN(len(live))
				if err := sched.Delete(live[i], now); err != nil {
					t.Fatalf("trial %d step %d: delete: %v", trial, step, err)
				}
				live = append(live[:i], live[i+1:]...)
			case op < 10 && len(live) > 0: // resize
				i := rng.IntN(len(live))
				target := flavors[rng.IntN(len(flavors))]
				if target.Class != live[i].Flavor.Class {
					continue
				}
				_, _ = sched.Resize(live[i], target, now)
				if live[i].Node == nil {
					// A failed resize whose rollback also failed (the old
					// node went into maintenance mid-flight) strands the VM
					// unplaced — documented Resize behavior.
					live = append(live[:i], live[i+1:]...)
				}
			case op >= 10: // flip a node's maintenance and refresh the BB inventory
				bbs := fleet.Region().BBs()
				bb := bbs[rng.IntN(len(bbs))]
				n := bb.Nodes[rng.IntN(len(bb.Nodes))]
				n.Maintenance = !n.Maintenance
				if err := sched.RefreshInventory(bb); err != nil {
					t.Fatalf("trial %d step %d: refresh: %v", trial, step, err)
				}
			}
		}

		// Invariant 1: per-host allocation counters match residents and
		// respect capacity.
		for _, h := range fleet.Hosts() {
			cpu, mem := 0, int64(0)
			for _, vm := range h.VMs() {
				if !vm.Flavor.PinCPU {
					cpu += vm.RequestedCPUCores()
				}
				mem += vm.RequestedMemoryMB()
			}
			if h.AllocatedVCPUs() != cpu || h.AllocatedMemMB() != mem {
				t.Fatalf("trial %d: host %s counters drifted", trial, h.Node.ID)
			}
			if h.AllocatedVCPUs() > h.VCPUCapacity() {
				t.Fatalf("trial %d: host %s vCPU over capacity", trial, h.Node.ID)
			}
			if h.AllocatedMemMB() > h.MemCapacityMB() {
				t.Fatalf("trial %d: host %s memory over capacity", trial, h.Node.ID)
			}
		}

		// Invariant 2: every live VM has a placement allocation on the
		// BB that hosts it, and no allocations leak.
		type usage struct{ vcpu, mem int64 }
		used := map[string]usage{}
		for _, vm := range live {
			if vm.Node == nil {
				t.Fatalf("trial %d: live VM %s unplaced", trial, vm.ID)
			}
			alloc, ok := pl.AllocationOf(string(vm.ID))
			if !ok {
				t.Fatalf("trial %d: live VM %s has no placement allocation", trial, vm.ID)
			}
			if alloc.Provider != string(vm.Node.BB.ID) {
				t.Fatalf("trial %d: VM %s placement points at %s, hosted on %s",
					trial, vm.ID, alloc.Provider, vm.Node.BB.ID)
			}
			u := used[alloc.Provider]
			used[alloc.Provider] = usage{u.vcpu + int64(vm.Flavor.VCPUs), u.mem + vm.RequestedMemoryMB()}
		}
		if pl.AllocationCount() != len(live) {
			t.Fatalf("trial %d: placement has %d allocations, %d live VMs",
				trial, pl.AllocationCount(), len(live))
		}

		// Invariants 3 and 4: each provider's capacity is its block's
		// fleet capacity, and its usage is the sum of its live VMs' flavors.
		providers := pl.Providers()
		if len(providers) != len(fleet.Region().BBs()) {
			t.Fatalf("trial %d: %d providers for %d blocks", trial, len(providers), len(fleet.Region().BBs()))
		}
		free := map[string]usage{}
		for _, p := range providers {
			bb, err := fleet.Region().BB(topology.BBID(p.Name))
			if err != nil {
				t.Fatal(err)
			}
			alloc := fleet.BBAlloc(bb)
			if p.VCPUCap != int64(alloc.VCPUCap) || p.MemCapMB != alloc.MemCapMB {
				t.Errorf("trial %d: %s capacity %d vCPU / %d MB, fleet %d / %d",
					trial, p.Name, p.VCPUCap, p.MemCapMB, alloc.VCPUCap, alloc.MemCapMB)
			}
			if u := used[p.Name]; p.VCPUUsed != u.vcpu || p.MemUsedMB != u.mem {
				t.Errorf("trial %d: %s usage %d vCPU / %d MB, live allocations %d / %d",
					trial, p.Name, p.VCPUUsed, p.MemUsedMB, u.vcpu, u.mem)
			}
			free[p.Name] = usage{p.VCPUCap - p.VCPUUsed, p.MemCapMB - p.MemUsedMB}
		}

		// Invariant 5: for every flavor, Candidates returns exactly the
		// providers whose block kind and free capacity admit it, in name
		// order.
		for _, f := range flavors {
			vm := &vmmodel.VM{ID: "probe", Flavor: f}
			var want []string
			for _, p := range providers {
				bb, _ := fleet.Region().BB(topology.BBID(p.Name))
				kind := topology.GeneralPurpose
				if f.RequireGPU {
					kind = topology.GPU
				} else if f.Class == vmmodel.HANA {
					kind = topology.HANA
				}
				if bb.Kind == kind && !bb.Reserved &&
					free[p.Name].vcpu >= int64(f.VCPUs) && free[p.Name].mem >= vm.RequestedMemoryMB() {
					want = append(want, p.Name)
				}
			}
			var got []string
			for _, p := range pl.Candidates(askOf(vm), nil) {
				got = append(got, p.Name)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d flavor %s: candidates %v, want %v", trial, f.Name, got, want)
			}
		}
	}
}

// schedPlacement exposes the scheduler's placement service for invariant
// checks.
func schedPlacement(s *Scheduler) *placement.Service { return s.placement }

// Property: scheduling is deterministic — the same request sequence on the
// same environment yields identical placements.
func TestPropertySchedulerDeterministic(t *testing.T) {
	run := func() []string {
		_, sched := testEnv(t, DefaultConfig())
		var out []string
		for i := 0; i < 60; i++ {
			flavor := vmmodel.Catalog()[i%len(vmmodel.Catalog())]
			vm := &vmmodel.VM{
				ID:      vmmodel.ID(fmt.Sprintf("vm-%03d", i)),
				Flavor:  flavor,
				Profile: constProfile{cpu: 0.3, mem: 0.6},
			}
			res, err := sched.Schedule(&RequestSpec{VM: vm}, sim.Time(i)*sim.Minute)
			if err != nil {
				out = append(out, "FAIL")
				continue
			}
			out = append(out, string(res.Node.ID))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}
