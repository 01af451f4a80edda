package nova

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// TestInventoryMirrorConsistency hammers the scheduler with random
// schedule/delete/resize traffic, maintenance-driven inventory refreshes and
// mid-run block registrations, then asserts the scheduler's per-block
// host-state table mirrors the placement service: each provider's creation
// index resolves to the block of the same name, its traits and capacity are
// the block's, and every candidate placement returns resolves to a host
// state of the block placement named, in the same order.
func TestInventoryMirrorConsistency(t *testing.T) {
	catalog := vmmodel.Catalog()
	gen := topology.Capacity{PCPUCores: 32, MemoryMB: 512 << 10, StorageGB: 8 << 10, NetworkGbps: 200}
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 1234))
		fleet, sched := testEnv(t, DefaultConfig())
		var live []*vmmodel.VM
		now := sim.Time(0)
		added := 0

		for step := 0; step < 250; step++ {
			now += sim.Minute
			switch op := rng.IntN(13); {
			case op < 6: // schedule
				f := catalog[rng.IntN(len(catalog))]
				vm := &vmmodel.VM{
					ID:      vmmodel.ID(fmt.Sprintf("m%d-vm%d", trial, step)),
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
				target := catalog[rng.IntN(len(catalog))]
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
			case op == 12 && added < 3: // register a block added mid-run
				// The "a-" prefix sorts ahead of the initial blocks, so
				// placement's name order and creation order diverge.
				dc := fleet.Region().AZs[rng.IntN(2)].DCs[0]
				bb, err := dc.AddBB(topology.BBID(fmt.Sprintf("a-late-%d", added)), topology.GeneralPurpose, 2, gen)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range bb.Nodes {
					fleet.AddHost(n)
				}
				if err := sched.RegisterBB(bb); err != nil {
					t.Fatalf("trial %d step %d: register: %v", trial, step, err)
				}
				added++
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

		pl := schedPlacement(sched)
		providers := pl.Providers()
		if len(sched.states) != len(providers) || len(providers) != len(fleet.Region().BBs()) {
			t.Fatalf("trial %d: %d host states, %d providers, %d blocks",
				trial, len(sched.states), len(providers), len(fleet.Region().BBs()))
		}
		for _, p := range providers {
			h := sched.states[p.Index]
			if string(h.BB.ID) != p.Name {
				t.Fatalf("trial %d: provider %s (index %d) resolves to host state of %s",
					trial, p.Name, p.Index, h.BB.ID)
			}
			if got, want := p.Traits, traitsOf(h.BB); got != want {
				t.Errorf("trial %d: %s traits %v, block advertises %v", trial, p.Name, got, want)
			}
			alloc := fleet.BBAlloc(h.BB)
			if p.VCPUCap != int64(alloc.VCPUCap) || p.MemCapMB != alloc.MemCapMB {
				t.Errorf("trial %d: %s capacity %d vCPU / %d MB, fleet %d / %d",
					trial, p.Name, p.VCPUCap, p.MemCapMB, alloc.VCPUCap, alloc.MemCapMB)
			}
		}

		// The scheduler's candidate lookup must reproduce the placement
		// query: same blocks, same name order, for every request shape.
		for _, f := range catalog {
			vm := &vmmodel.VM{ID: "probe", Flavor: f}
			var want, got []string
			for _, p := range pl.Candidates(askOf(vm), nil) {
				want = append(want, p.Name)
				got = append(got, string(sched.states[p.Index].BB.ID))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d flavor %s: host states %v, placement %v", trial, f.Name, got, want)
			}
			if !slices.IsSorted(want) {
				t.Fatalf("trial %d flavor %s: candidates %v not in name order", trial, f.Name, want)
			}
		}
	}
}
