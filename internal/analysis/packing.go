package analysis

import "sapsim/internal/esx"

// PackingStats summarizes fleet-wide allocation efficiency at a point in
// time: how much of the admissible capacity the admitted VMs occupy. It is
// the headline packing-efficiency artifact the sweep runner compares across
// scenarios and scheduler configurations.
type PackingStats struct {
	// ActiveHosts counts hosts not in maintenance.
	ActiveHosts int
	// VMs counts resident VMs across active hosts.
	VMs int
	// MemAllocPct is allocated memory over admissible memory capacity,
	// across active hosts.
	MemAllocPct float64
	// VCPUAllocPct is allocated vCPUs over the admissible (overcommitted)
	// vCPU capacity, across active hosts.
	VCPUAllocPct float64
}

// Packing computes fleet-wide packing efficiency over active hosts.
func Packing(fleet *esx.Fleet) PackingStats {
	var s PackingStats
	var memCap, memAlloc, cpuCap, cpuAlloc int64
	for _, h := range fleet.Hosts() {
		if h.Node.Maintenance {
			continue
		}
		s.ActiveHosts++
		s.VMs += h.VMCount()
		memCap += h.MemCapacityMB()
		memAlloc += h.AllocatedMemMB()
		cpuCap += int64(h.VCPUCapacity())
		cpuAlloc += int64(h.AllocatedVCPUs())
	}
	if memCap > 0 {
		s.MemAllocPct = float64(memAlloc) / float64(memCap) * 100
	}
	if cpuCap > 0 {
		s.VCPUAllocPct = float64(cpuAlloc) / float64(cpuCap) * 100
	}
	return s
}
