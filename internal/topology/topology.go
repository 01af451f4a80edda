// Package topology models the hierarchical cloud infrastructure of the SAP
// Cloud Infrastructure dataset paper (Fig. 1): Region → Availability Zone →
// Data Center → Building Block → Node.
//
// A building block (BB) corresponds to a vSphere cluster and is what the
// OpenStack Nova scheduler sees as a single "compute host"; nodes are the
// individual ESXi hypervisors inside it. Nodes within a BB are homogeneous;
// BBs within an AZ may differ (Sec. 3.2).
package topology

import (
	"errors"
	"fmt"
	"sort"
)

// Capacity describes the physical resources of a single compute node.
type Capacity struct {
	PCPUCores   int     // physical CPU cores
	MemoryMB    int64   // physical memory in MiB
	StorageGB   int64   // local datastore capacity in GiB
	NetworkGbps float64 // NIC line rate (the paper's DC uses 200 Gbps)
}

// Valid reports whether every capacity dimension is positive.
func (c Capacity) Valid() bool {
	return c.PCPUCores > 0 && c.MemoryMB > 0 && c.StorageGB > 0 && c.NetworkGbps > 0
}

// BBKind classifies building blocks. Most BBs host general-purpose and SAP
// application-server workloads; a reserved subset hosts flavors with special
// requirements (Sec. 3.1: GPU workloads and VMs with ≥3 TB memory).
type BBKind int

const (
	// GeneralPurpose building blocks accept ordinary flavors and are
	// load-balanced by default.
	GeneralPurpose BBKind = iota
	// HANA building blocks host memory-intensive SAP HANA VMs and are
	// explicitly bin-packed to maximize memory utilization (Sec. 3.2).
	HANA
	// GPU building blocks are reserved for GPU flavors.
	GPU
)

// String implements fmt.Stringer.
func (k BBKind) String() string {
	switch k {
	case GeneralPurpose:
		return "general-purpose"
	case HANA:
		return "hana"
	case GPU:
		return "gpu"
	default:
		return fmt.Sprintf("BBKind(%d)", int(k))
	}
}

// NodeID uniquely identifies a node within a region.
type NodeID string

// BBID uniquely identifies a building block within a region.
type BBID string

// Node is a single physical hypervisor (ESXi host).
type Node struct {
	ID       NodeID
	Capacity Capacity
	BB       *BuildingBlock // parent, set by AddNodes
	Index    int            // position within the building block
	// Maintenance marks a node that is temporarily out of service;
	// schedulers must skip it and heatmaps show missing data (white
	// cells in the paper's figures).
	Maintenance bool
}

// Datacenter returns the node's enclosing data center.
func (n *Node) Datacenter() *Datacenter { return n.BB.DC }

// BuildingBlock is a vSphere cluster of 2–128 homogeneous nodes; it is the
// unit Nova places onto ("compute host" in OpenStack terms).
type BuildingBlock struct {
	ID    BBID
	Kind  BBKind
	DC    *Datacenter // parent
	Nodes []*Node
	// Reserved marks capacity withheld from placement for emergency
	// failover, redundancy, and scalability demands (Sec. 5.1): the
	// near-idle columns of the paper's heatmaps. Reserved blocks are
	// monitored but receive no scheduled VMs.
	Reserved bool
}

// Datacenter hosts multiple building blocks and provides supporting
// infrastructure. Within this study a single DC is the placement and
// scheduling domain (Sec. 3.1, "cross-datacenter migrations are out of
// scope").
type Datacenter struct {
	Name string
	AZ   *AvailabilityZone
	BBs  []*BuildingBlock
}

// AvailabilityZone logically groups independent, geographically co-located
// data centers for high availability.
type AvailabilityZone struct {
	Name   string
	Region *Region
	DCs    []*Datacenter
}

// Region is the top of the hierarchy; it contains one or more AZs.
type Region struct {
	Name string
	AZs  []*AvailabilityZone

	nodesByID map[NodeID]*Node
	bbsByID   map[BBID]*BuildingBlock
}

// NewRegion returns an empty region.
func NewRegion(name string) *Region {
	return &Region{
		Name:      name,
		nodesByID: make(map[NodeID]*Node),
		bbsByID:   make(map[BBID]*BuildingBlock),
	}
}

// AddAZ creates and attaches a new availability zone.
func (r *Region) AddAZ(name string) *AvailabilityZone {
	az := &AvailabilityZone{Name: name, Region: r}
	r.AZs = append(r.AZs, az)
	return az
}

// AddDC creates and attaches a new data center to the AZ.
func (az *AvailabilityZone) AddDC(name string) *Datacenter {
	dc := &Datacenter{Name: name, AZ: az}
	az.DCs = append(az.DCs, dc)
	return dc
}

// Errors returned by topology construction.
var (
	ErrDuplicateBB    = errors.New("topology: duplicate building block id")
	ErrDuplicateNode  = errors.New("topology: duplicate node id")
	ErrBadCapacity    = errors.New("topology: invalid node capacity")
	ErrBadNodeCount   = errors.New("topology: building block must have at least one node")
	ErrUnknownBB      = errors.New("topology: unknown building block")
	ErrUnknownNode    = errors.New("topology: unknown node")
	ErrNoRegionParent = errors.New("topology: datacenter is not attached to a region")
)

// AddBB creates a building block with count homogeneous nodes of the given
// capacity. Node IDs are derived as "<bbID>-n<index>".
func (dc *Datacenter) AddBB(id BBID, kind BBKind, count int, cap Capacity) (*BuildingBlock, error) {
	if dc.AZ == nil || dc.AZ.Region == nil {
		return nil, ErrNoRegionParent
	}
	if count < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadNodeCount, count)
	}
	if !cap.Valid() {
		return nil, fmt.Errorf("%w: %+v", ErrBadCapacity, cap)
	}
	r := dc.AZ.Region
	if _, exists := r.bbsByID[id]; exists {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateBB, id)
	}
	bb := &BuildingBlock{ID: id, Kind: kind, DC: dc}
	for i := 0; i < count; i++ {
		nid := NodeID(fmt.Sprintf("%s-n%03d", id, i))
		if _, exists := r.nodesByID[nid]; exists {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateNode, nid)
		}
		n := &Node{ID: nid, Capacity: cap, BB: bb, Index: i}
		bb.Nodes = append(bb.Nodes, n)
		r.nodesByID[nid] = n
	}
	dc.BBs = append(dc.BBs, bb)
	r.bbsByID[id] = bb
	return bb, nil
}

// Node looks up a node by ID.
func (r *Region) Node(id NodeID) (*Node, error) {
	n, ok := r.nodesByID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	return n, nil
}

// BB looks up a building block by ID.
func (r *Region) BB(id BBID) (*BuildingBlock, error) {
	bb, ok := r.bbsByID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBB, id)
	}
	return bb, nil
}

// BBs returns every building block in the region sorted by ID.
func (r *Region) BBs() []*BuildingBlock {
	out := make([]*BuildingBlock, 0, len(r.bbsByID))
	for _, bb := range r.bbsByID {
		out = append(out, bb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Nodes returns every node in the region sorted by ID.
func (r *Region) Nodes() []*Node {
	out := make([]*Node, 0, len(r.nodesByID))
	for _, n := range r.nodesByID {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NodeCount reports the total hypervisor count across the region.
func (r *Region) NodeCount() int { return len(r.nodesByID) }

// Datacenters returns every DC in the region in AZ order.
func (r *Region) Datacenters() []*Datacenter {
	var out []*Datacenter
	for _, az := range r.AZs {
		out = append(out, az.DCs...)
	}
	return out
}

// Validate performs structural sanity checks: parent pointers consistent,
// node capacities valid, BB node homogeneity.
func (r *Region) Validate() error {
	for _, az := range r.AZs {
		if az.Region != r {
			return fmt.Errorf("topology: AZ %s has wrong region pointer", az.Name)
		}
		for _, dc := range az.DCs {
			if dc.AZ != az {
				return fmt.Errorf("topology: DC %s has wrong AZ pointer", dc.Name)
			}
			for _, bb := range dc.BBs {
				if bb.DC != dc {
					return fmt.Errorf("topology: BB %s has wrong DC pointer", bb.ID)
				}
				if len(bb.Nodes) == 0 {
					return fmt.Errorf("%w: %s", ErrBadNodeCount, bb.ID)
				}
				first := bb.Nodes[0].Capacity
				for _, n := range bb.Nodes {
					if n.BB != bb {
						return fmt.Errorf("topology: node %s has wrong BB pointer", n.ID)
					}
					if !n.Capacity.Valid() {
						return fmt.Errorf("%w: node %s", ErrBadCapacity, n.ID)
					}
					if n.Capacity != first {
						return fmt.Errorf("topology: BB %s is not homogeneous (node %s)", bb.ID, n.ID)
					}
				}
			}
		}
	}
	return nil
}
