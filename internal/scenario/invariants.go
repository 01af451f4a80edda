package scenario

import (
	"errors"
	"fmt"

	"sapsim/internal/core"
	"sapsim/internal/events"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// CheckInvariants audits a finished run for the structural guarantees the
// scheduler stack must uphold under any scenario:
//
//  1. Admission control: no host's vCPU or memory allocation exceeds its
//     overcommit ceiling, and pinned cores never exceed physical cores.
//  2. Conservation: every VM that entered the system is in exactly one
//     terminal bucket — running on exactly one host, deleted, never placed
//     (NoValidHost), or lost to a failed evacuation — and the never-placed
//     and lost counts match the run's failure counters.
//  3. No double placement: a VM is resident on at most one host, and its
//     own placement pointer agrees with the host that holds it.
//
// It returns every violation joined into one error, or nil.
func CheckInvariants(res *core.Result) error {
	var errs []error

	// 1. Admission ceilings.
	for _, h := range res.Fleet.Hosts() {
		if h.AllocatedVCPUs() > h.VCPUCapacity() {
			errs = append(errs, fmt.Errorf("host %s: vCPU allocation %d exceeds overcommit ceiling %d",
				h.Node.ID, h.AllocatedVCPUs(), h.VCPUCapacity()))
		}
		if h.AllocatedMemMB() > h.MemCapacityMB() {
			errs = append(errs, fmt.Errorf("host %s: memory allocation %d MB exceeds capacity %d MB",
				h.Node.ID, h.AllocatedMemMB(), h.MemCapacityMB()))
		}
		if h.PinnedCores() > h.Node.Capacity.PCPUCores {
			errs = append(errs, fmt.Errorf("host %s: %d pinned cores exceed %d physical cores",
				h.Node.ID, h.PinnedCores(), h.Node.Capacity.PCPUCores))
		}
	}

	// 3. Residency: each VM on at most one host, pointers consistent.
	resident := make(map[vmmodel.ID]topology.NodeID)
	for _, h := range res.Fleet.Hosts() {
		for _, vm := range h.VMs() {
			if prev, ok := resident[vm.ID]; ok {
				errs = append(errs, fmt.Errorf("vm %s: double-placed on %s and %s", vm.ID, prev, h.Node.ID))
				continue
			}
			resident[vm.ID] = h.Node.ID
			if vm.Node == nil || vm.Node.ID != h.Node.ID {
				errs = append(errs, fmt.Errorf("vm %s: resident on %s but placement pointer says %v",
					vm.ID, h.Node.ID, vm.Node))
			}
			if vm.State != vmmodel.Active {
				errs = append(errs, fmt.Errorf("vm %s: resident on %s in state %s", vm.ID, h.Node.ID, vm.State))
			}
		}
	}

	// 2. Conservation: created = running + deleted + never-placed + lost.
	var running, deleted, neverPlaced, lost int
	for _, vm := range res.VMs {
		onHost := false
		if _, ok := resident[vm.ID]; ok {
			onHost = true
		}
		switch {
		case onHost:
			running++
		case vm.State == vmmodel.Deleted:
			deleted++
		case vm.State == vmmodel.Requested && vm.Node == nil:
			neverPlaced++ // NoValidHost at creation
		case vm.State == vmmodel.Migrating && vm.Node == nil:
			lost++ // evacuation found no valid host
		default:
			errs = append(errs, fmt.Errorf("vm %s: unaccounted state %s (node %v)", vm.ID, vm.State, vm.Node))
		}
	}
	if total := running + deleted + neverPlaced + lost; total != len(res.VMs) {
		errs = append(errs, fmt.Errorf("conservation: %d created != %d running + %d deleted + %d never-placed + %d lost",
			len(res.VMs), running, deleted, neverPlaced, lost))
	}
	if neverPlaced != res.PlacementFailures {
		errs = append(errs, fmt.Errorf("conservation: %d never-placed VMs but %d recorded placement failures",
			neverPlaced, res.PlacementFailures))
	}
	if evacLost := res.Events.CountByType()[events.EvacuateFailed]; lost != evacLost {
		errs = append(errs, fmt.Errorf("conservation: %d lost VMs but %d recorded failed evacuations",
			lost, evacLost))
	}

	return errors.Join(errs...)
}
