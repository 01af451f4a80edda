package vmmodel

import (
	"fmt"

	"sapsim/internal/sim"
	"sapsim/internal/topology"
)

// ID uniquely identifies a VM within a region.
type ID string

// State is a VM lifecycle state. Transitions follow the scheduling-relevant
// events the dataset records: creation, migration, resize, deletion (Sec. 4).
type State int

const (
	// Requested: creation submitted via the Nova API, not yet placed.
	Requested State = iota
	// Active: running on a node.
	Active
	// Migrating: being moved between nodes (by DRS or a rebalancer).
	Migrating
	// Deleted: terminated; resources released.
	Deleted
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Requested:
		return "requested"
	case Active:
		return "active"
	case Migrating:
		return "migrating"
	case Deleted:
		return "deleted"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// UsageProfile yields instantaneous resource demand for a VM at a given
// simulation time. Implementations live in internal/workload; keeping the
// interface here avoids a dependency cycle.
type UsageProfile interface {
	// CPUUsage returns the fraction (0..1+) of the VM's *requested* vCPU
	// capacity demanded at time t. Values above 1 model bursts beyond
	// the allocation that manifest as contention on an overcommitted
	// host.
	CPUUsage(t sim.Time) float64
	// MemUsage returns the fraction (0..1) of requested memory in use.
	MemUsage(t sim.Time) float64
	// UsageAt returns demand on every resource at once, CPU and Mem
	// bit-identical to the methods above, so terms they share (diurnal
	// cycle, noise) are evaluated once. The host snapshot is its caller;
	// per-VM reads fall back to CPUUsage/MemUsage only off its cache.
	UsageAt(t sim.Time) Usage
}

// Usage is one VM's demand on every resource at one instant: CPU, Mem and
// Disk as fractions of the request, NIC traffic in Kbit/s.
type Usage struct{ CPU, Mem, TxKbps, RxKbps, Disk float64 }

// VM is a virtual machine instance.
type VM struct {
	ID      ID
	Flavor  *Flavor
	Project string // tenant; hashed in the released dataset
	State   State

	// Placement.
	Node *topology.Node // nil until placed
	BB   *topology.BuildingBlock

	// Lifecycle timestamps (simulation time).
	CreatedAt sim.Time
	PlacedAt  sim.Time
	DeletedAt sim.Time // meaningful once State == Deleted

	// Profile drives telemetry generation.
	Profile UsageProfile

	// Migrations counts completed live migrations, a planned future
	// metric in the paper's outlook (Sec. 8).
	Migrations int
}

// Lifetime reports the VM's lifetime: DeletedAt-CreatedAt for deleted VMs,
// or now-CreatedAt for live ones (the paper's retrospective lifetime
// collection measures age at observation for still-running VMs).
func (v *VM) Lifetime(now sim.Time) sim.Time {
	if v.State == Deleted {
		return v.DeletedAt - v.CreatedAt
	}
	return now - v.CreatedAt
}

// RequestedCPUCores reports the vCPU allocation.
func (v *VM) RequestedCPUCores() int { return v.Flavor.VCPUs }

// RequestedMemoryMB reports the memory allocation in MiB.
func (v *VM) RequestedMemoryMB() int64 { return int64(v.Flavor.RAMGiB) << 10 }

// RequestedDiskGB reports the disk allocation in GiB.
func (v *VM) RequestedDiskGB() int64 { return int64(v.Flavor.DiskGB) }

// Place records a placement decision onto a node.
func (v *VM) Place(n *topology.Node, at sim.Time) {
	v.Node = n
	v.BB = n.BB
	v.State = Active
	v.PlacedAt = at
}

// MigrateTo moves the VM to another node, incrementing the migration count.
func (v *VM) MigrateTo(n *topology.Node, at sim.Time) {
	v.Node = n
	v.BB = n.BB
	v.Migrations++
	v.State = Active
}

// Delete marks the VM terminated at the given time.
func (v *VM) Delete(at sim.Time) {
	v.State = Deleted
	v.DeletedAt = at
	v.Node = nil
	v.BB = nil
}
