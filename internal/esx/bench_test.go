package esx

import (
	"fmt"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
	"sapsim/internal/workload"
)

// BenchmarkHostSnapshot measures the metric-collection hot path: one
// snapshot per host per sampling interval over a 30-day window dominates
// simulation cost. It steps on the sampler's 5-minute grid.
func BenchmarkHostSnapshot(b *testing.B) {
	r := topology.NewRegion("bench")
	dc := r.AddAZ("a").AddDC("d")
	bb, err := dc.AddBB("bb", topology.GeneralPurpose, 1, topology.Capacity{
		PCPUCores: 96, MemoryMB: 1 << 20, StorageGB: 8 << 10, NetworkGbps: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	fleet := NewFleet(r, DefaultConfig())
	// A realistically loaded host: ~30 VMs with full workload profiles.
	for i := 0; i < 30; i++ {
		vm := &vmmodel.VM{
			ID:     vmmodel.ID(fmt.Sprintf("vm-%d", i)),
			Flavor: vmmodel.CatalogByName()["MK"],
			Profile: &workload.Profile{
				Seed: uint64(i), MeanCPU: 0.3, MeanMem: 0.7,
				DiurnalAmp: 0.2, NoiseAmp: 0.1, BurstProb: 0.01, BurstMag: 2,
				TxKbps: 2000, RxKbps: 3000, DiskFrac: 0.4,
			},
		}
		if err := fleet.Place(vm, bb.Nodes[0], 0); err != nil {
			b.Fatal(err)
		}
	}
	h, err := fleet.Host(bb.Nodes[0].ID)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Snapshot(sim.Time(i)*5*sim.Minute, 5*sim.Minute)
	}
}
