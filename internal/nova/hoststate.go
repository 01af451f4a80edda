// Package nova models the OpenStack Nova scheduler: the filter and weigher
// pipeline that performs *initial placement* of VMs onto compute hosts
// (Figs. 2 and 3). As in the SAP deployment, a "compute host" is an entire
// vSphere cluster (building block); node selection inside the cluster is a
// second, independent layer (Sec. 3.1) — the architecture whose
// fragmentation effects the paper quantifies.
package nova

import (
	"fmt"

	"sapsim/internal/esx"
	"sapsim/internal/placement"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// HostState is what filters and weighers see of one compute host (building
// block) that placement returned as a candidate: the fleet's current
// allocation summary of the block and its recent telemetry. The scheduler
// keeps one per block and refreshes both fields per request.
type HostState struct {
	BB    *topology.BuildingBlock
	Alloc esx.BBAllocation
	// AvgContentionPct is the building block's recent mean CPU
	// contention; vanilla Nova ignores it, the contention-aware weigher
	// (Sec. 7 guidance) consumes it.
	AvgContentionPct float64
}

// FreeVCPUs reports unallocated vCPU capacity.
func (h *HostState) FreeVCPUs() int { return h.Alloc.VCPUCap - h.Alloc.VCPUAlloc }

// FreeMemMB reports unallocated memory capacity.
func (h *HostState) FreeMemMB() int64 { return h.Alloc.MemCapMB - h.Alloc.MemAllocMB }

// RequestSpec carries one placement request through the pipeline.
type RequestSpec struct {
	VM *vmmodel.VM
	// AZ restricts placement to one availability zone ("" = any).
	AZ string
	// Group applies a server-group policy (affinity/anti-affinity);
	// membership is maintained by the scheduler.
	Group *ServerGroup
}

// Flavor is shorthand for the requested flavor.
func (r *RequestSpec) Flavor() *vmmodel.Flavor { return r.VM.Flavor }

// askOf derives the placement ask of a VM: its flavor's vCPUs and memory,
// and traits that send HANA flavors to HANA building blocks, GPU flavors to
// GPU blocks, and general-purpose flavors to neither (Sec. 3.1:
// special-purpose BBs "do not accommodate other VMs"). Reserved failover
// capacity is excluded for every request.
func askOf(vm *vmmodel.VM) placement.Ask {
	f := vm.Flavor
	ask := placement.Ask{VCPU: int64(f.VCPUs), MemoryMB: vm.RequestedMemoryMB(), Forbidden: placement.Reserved}
	switch {
	case f.RequireGPU:
		ask.Required = placement.GPU
	case f.Class == vmmodel.HANA:
		ask.Required = placement.HANA
	default:
		ask.Forbidden |= placement.HANA | placement.GPU
	}
	return ask
}

// traitsOf maps a building block to the placement traits it advertises.
func traitsOf(bb *topology.BuildingBlock) placement.Traits {
	var t placement.Traits
	switch bb.Kind {
	case topology.HANA:
		t = placement.HANA
	case topology.GPU:
		t = placement.GPU
	}
	if bb.Reserved {
		t |= placement.Reserved
	}
	return t
}

// NoValidHostError is Nova's terminal scheduling failure: every host was
// filtered out or every claim attempt failed.
type NoValidHostError struct {
	VM      vmmodel.ID
	Reasons map[string]int // filter name → hosts eliminated
}

// Error implements error.
func (e *NoValidHostError) Error() string {
	return fmt.Sprintf("nova: no valid host for %s (eliminations: %v)", e.VM, e.Reasons)
}
