package topology

import "fmt"

// DCRecord is one row of the paper's Appendix D, Table 5: the distribution
// of hypervisors and virtual machines across SAP's data centers.
type DCRecord struct {
	RegionID    int
	Datacenter  string
	Hypervisors int
	VMs         int
}

// Table5 reproduces the paper's Table 5 verbatim. The studied regional
// deployment (~1,800 hypervisors, ~48,000 VMs) corresponds to region 9.
var Table5 = []DCRecord{
	{1, "A", 167, 4985},
	{1, "B", 65, 375},
	{2, "A", 244, 7913},
	{2, "B", 112, 1284},
	{3, "A", 202, 4475},
	{3, "B", 89, 1353},
	{4, "A", 191, 3977},
	{5, "A", 42, 395},
	{6, "A", 150, 5016},
	{7, "A", 63, 1096},
	{8, "A", 227, 5595},
	{8, "B", 270, 4206},
	{8, "D", 966, 34392},
	{9, "A", 751, 19464},
	{9, "B", 1072, 27652},
	{10, "A", 65, 1186},
	{10, "B", 152, 5713},
	{11, "A", 60, 2877},
	{12, "A", 62, 1996},
	{12, "B", 43, 362},
	{13, "A", 274, 7432},
	{13, "B", 99, 1149},
	{13, "D", 239, 3881},
	{14, "A", 330, 3809},
	{14, "B", 307, 5125},
	{15, "A", 209, 5442},
	{16, "A", 40, 504},
	{16, "B", 28, 156},
	{16, "D", 22, 78},
}

// StudyRegionID is the region whose telemetry the paper analyzes in depth.
const StudyRegionID = 9

// Totals aggregates Table 5.
func Totals() (hypervisors, vms int) {
	for _, rec := range Table5 {
		hypervisors += rec.Hypervisors
		vms += rec.VMs
	}
	return hypervisors, vms
}

// RegionRecords returns the Table 5 rows of one region.
func RegionRecords(regionID int) []DCRecord {
	var out []DCRecord
	for _, rec := range Table5 {
		if rec.RegionID == regionID {
			out = append(out, rec)
		}
	}
	return out
}

// BuildSpec controls synthetic region construction. Scale lets tests and
// examples build a down-scaled replica of the studied region: Scale=1
// matches Table 5 node counts, Scale=0.1 builds a 10% replica.
type BuildSpec struct {
	RegionID int
	Scale    float64
	// HANAFraction is the fraction of nodes placed in memory-optimized
	// HANA building blocks (bin-packed per Sec. 3.2). The remainder is
	// general-purpose except for one small GPU BB per DC.
	HANAFraction float64
	// HANAXLFraction is the fraction of HANA nodes placed in big-node
	// building blocks for flavors with ≥3 TB memory (Sec. 3.1: special
	// purpose BBs where "the number of placeable VMs is maximized").
	HANAXLFraction float64
	// ReserveFraction is the fraction of general-purpose building blocks
	// withheld as failover/expansion reserve (Sec. 5.1 (ii)). Reserved
	// blocks appear in telemetry as near-100%-free columns.
	ReserveFraction float64
	// GPUBBNodes adds one GPU building block of this many nodes per DC
	// (Sec. 3.1: special-purpose BBs for GPU flavors). The released
	// dataset contains no GPU workloads (Table 3), so these blocks idle
	// unless an experiment schedules GPU flavors explicitly. Zero
	// disables them.
	GPUBBNodes int
	GPUNode    Capacity
	// GeneralBBNodes / HANABBNodes bound the building-block sizes; the
	// paper reports BBs of 2–128 active nodes.
	GeneralBBNodes int
	HANABBNodes    int
	// Node shapes.
	GeneralNode Capacity
	HANANode    Capacity
	HANAXLNode  Capacity
}

// DefaultBuildSpec mirrors the studied regional deployment at the given
// scale. Node shapes are modeled on typical enterprise hosts: dual-socket
// general nodes and large-memory HANA nodes (the paper reports VMs of up to
// 12 TB memory; HANA hosts must exceed 3 TB, Sec. 3.1).
func DefaultBuildSpec(scale float64) BuildSpec {
	return BuildSpec{
		RegionID:        StudyRegionID,
		Scale:           scale,
		HANAFraction:    0.30,
		HANAXLFraction:  0.35,
		ReserveFraction: 0.18,
		GPUBBNodes:      2,
		GPUNode: Capacity{
			PCPUCores:   64,
			MemoryMB:    1 << 20,
			StorageGB:   8 << 10,
			NetworkGbps: 200,
		},
		GeneralBBNodes: 14,
		HANABBNodes:    8,
		GeneralNode: Capacity{
			PCPUCores:   96,
			MemoryMB:    1 << 20, // 1 TiB
			StorageGB:   8 << 10, // 8 TiB local datastore
			NetworkGbps: 200,
		},
		HANANode: Capacity{
			PCPUCores:   128,
			MemoryMB:    6 << 20,  // 6 TiB
			StorageGB:   16 << 10, // 16 TiB local datastore
			NetworkGbps: 200,
		},
		// Big-node tier hosting the ≥3 TB flavors, including the 12 TiB
		// XLL instances (Table 3: memory allocations up to 12 TB per VM).
		HANAXLNode: Capacity{
			PCPUCores:   224,
			MemoryMB:    16 << 20, // 16 TiB
			StorageGB:   48 << 10,
			NetworkGbps: 200,
		},
	}
}

// Build constructs a region following the spec. Each Table 5 DC of the
// region becomes one DC in its own AZ (the paper: up to two DCs per region,
// one AZ each; region 9 has DCs A and B).
func Build(spec BuildSpec) (*Region, error) {
	if spec.Scale <= 0 {
		return nil, fmt.Errorf("topology: non-positive scale %v", spec.Scale)
	}
	records := RegionRecords(spec.RegionID)
	if len(records) == 0 {
		return nil, fmt.Errorf("topology: no Table 5 records for region %d", spec.RegionID)
	}
	r := NewRegion(fmt.Sprintf("region-%d", spec.RegionID))
	for i, rec := range records {
		az := r.AddAZ(fmt.Sprintf("az-%c", 'a'+i))
		dc := az.AddDC(fmt.Sprintf("dc-%s", rec.Datacenter))
		nodes := int(float64(float64(rec.Hypervisors)*spec.Scale) + 0.5) // rounded: never fused
		if nodes < 4 {
			nodes = 4
		}
		hanaNodes := int(float64(nodes) * spec.HANAFraction)
		generalNodes := nodes - hanaNodes
		hanaXLNodes := int(float64(hanaNodes) * spec.HANAXLFraction)
		hanaNodes -= hanaXLNodes
		// The XL tier must exist so every flavor is placeable; keep at
		// least one two-node BB when HANA capacity exists at all.
		if hanaXLNodes < 2 && hanaNodes+hanaXLNodes >= 2 {
			take := 2 - hanaXLNodes
			hanaXLNodes = 2
			hanaNodes = max(0, hanaNodes-take)
		}
		// Never leave a single-node HANA BB behind; fold it into the XL
		// tier instead.
		if hanaNodes == 1 {
			hanaXLNodes++
			hanaNodes = 0
		}

		if err := addBBs(dc, fmt.Sprintf("%s-gp", dc.Name), GeneralPurpose,
			generalNodes, spec.GeneralBBNodes, spec.GeneralNode); err != nil {
			return nil, err
		}
		// Withhold trailing general-purpose BBs as reserve capacity.
		if spec.ReserveFraction > 0 {
			gps := make([]*BuildingBlock, 0, len(dc.BBs))
			for _, bb := range dc.BBs {
				if bb.Kind == GeneralPurpose {
					gps = append(gps, bb)
				}
			}
			reserve := int(float64(float64(len(gps))*spec.ReserveFraction) + 0.5) // rounded: never fused
			if reserve < 1 && len(gps) >= 2 {
				reserve = 1 // even small DCs keep failover headroom
			}
			if reserve >= len(gps) {
				reserve = len(gps) - 1 // always keep schedulable capacity
			}
			for i := 0; i < reserve; i++ {
				gps[len(gps)-1-i].Reserved = true
			}
		}
		if hanaNodes > 0 {
			if err := addBBs(dc, fmt.Sprintf("%s-hana", dc.Name), HANA,
				hanaNodes, spec.HANABBNodes, spec.HANANode); err != nil {
				return nil, err
			}
		}
		if hanaXLNodes > 0 {
			if err := addBBs(dc, fmt.Sprintf("%s-hanaxl", dc.Name), HANA,
				hanaXLNodes, spec.HANABBNodes, spec.HANAXLNode); err != nil {
				return nil, err
			}
		}
		if spec.GPUBBNodes >= 2 && spec.GPUNode.Valid() {
			if _, err := dc.AddBB(BBID(fmt.Sprintf("%s-gpu-00", dc.Name)), GPU,
				spec.GPUBBNodes, spec.GPUNode); err != nil {
				return nil, err
			}
		}
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// addBBs splits total nodes into building blocks of at most maxPerBB nodes,
// keeping every BB at ≥2 nodes where possible (the paper's minimum).
func addBBs(dc *Datacenter, prefix string, kind BBKind, total, maxPerBB int, cap Capacity) error {
	if total <= 0 {
		return nil
	}
	if maxPerBB < 2 {
		maxPerBB = 2
	}
	idx := 0
	for total > 0 {
		n := maxPerBB
		if total < n {
			n = total
		}
		// Avoid a trailing single-node BB: steal one from the previous
		// allocation by shrinking this one.
		if total-n == 1 && n > 2 {
			n--
		}
		id := BBID(fmt.Sprintf("%s-%02d", prefix, idx))
		if _, err := dc.AddBB(id, kind, n, cap); err != nil {
			return err
		}
		total -= n
		idx++
	}
	return nil
}
