// Package vmmodel defines virtual machines, flavors, and the size
// classifications used throughout the paper's evaluation (Tables 1 and 2,
// Figure 15).
//
// A flavor is a predefined template of vCPUs, memory, and storage (Sec. 2.1);
// VMs are instantiated according to flavors, ensuring standardized
// configurations across the infrastructure.
package vmmodel

import (
	"fmt"
	"math/rand/v2"
)

// WorkloadClass distinguishes the two workload families the paper analyzes.
type WorkloadClass int

const (
	// General covers development environments, CI/CD, Kubernetes
	// infrastructure, and SAP application servers (small/medium/large
	// categories, Sec. 5.5).
	General WorkloadClass = iota
	// HANA covers memory-intensive SAP HANA in-memory databases
	// (predominantly the extra-large RAM category, Sec. 5.5). HANA VMs
	// are explicitly bin-packed onto dedicated building blocks.
	HANA
)

// String implements fmt.Stringer.
func (w WorkloadClass) String() string {
	switch w {
	case General:
		return "general"
	case HANA:
		return "hana"
	default:
		return fmt.Sprintf("WorkloadClass(%d)", int(w))
	}
}

// Flavor is a VM template. Fields mirror the OpenStack flavor attributes
// relevant to scheduling.
type Flavor struct {
	Name       string
	VCPUs      int
	RAMGiB     int
	DiskGB     int
	Class      WorkloadClass
	RequireGPU bool
	// PinCPU requests dedicated physical cores (the CPU-pinning QoS
	// class of the paper's outlook, Sec. 8: reserving cores reduces
	// latency for performance-sensitive VMs). Pinned vCPUs are exempt
	// from overcommit and never experience contention.
	PinCPU bool
	// PaperCount is the number of instances of this flavor observed in
	// the paper's Figure 15 (0 for flavors not in the figure).
	PaperCount int
	// MeanLifetimeHours calibrates the lifetime generator to Figure 15's
	// per-flavor average lifetimes (13 h … 3.2 y, median ≈ 1 week).
	MeanLifetimeHours float64
}

// SizeClass is the paper's four-way size categorization.
type SizeClass int

const (
	Small SizeClass = iota
	Medium
	Large
	ExtraLarge
)

// String implements fmt.Stringer.
func (s SizeClass) String() string {
	switch s {
	case Small:
		return "Small"
	case Medium:
		return "Medium"
	case Large:
		return "Large"
	case ExtraLarge:
		return "Extra Large"
	default:
		return fmt.Sprintf("SizeClass(%d)", int(s))
	}
}

// SizeClasses lists all classes in ascending order.
var SizeClasses = []SizeClass{Small, Medium, Large, ExtraLarge}

// VCPUClass classifies by vCPU count per the paper's Table 1:
// Small ≤4, Medium 4<v≤16, Large 16<v≤64, Extra Large >64.
func VCPUClass(vcpus int) SizeClass {
	switch {
	case vcpus <= 4:
		return Small
	case vcpus <= 16:
		return Medium
	case vcpus <= 64:
		return Large
	default:
		return ExtraLarge
	}
}

// RAMClass classifies by memory per the paper's Table 2:
// Small ≤2 GiB, Medium 2<r≤64, Large 64<r≤128, Extra Large >128.
func RAMClass(ramGiB int) SizeClass {
	switch {
	case ramGiB <= 2:
		return Small
	case ramGiB <= 64:
		return Medium
	case ramGiB <= 128:
		return Large
	default:
		return ExtraLarge
	}
}

// VCPUClass reports the flavor's Table 1 class.
func (f *Flavor) VCPUClass() SizeClass { return VCPUClass(f.VCPUs) }

// RAMClass reports the flavor's Table 2 class.
func (f *Flavor) RAMClass() SizeClass { return RAMClass(f.RAMGiB) }

// ResizeTarget picks a different catalog flavor of the same workload class
// — users resize within their application family, HANA appliances within
// HANA sizes. It returns nil when the class has no alternative.
func ResizeTarget(current *Flavor, rng *rand.Rand) *Flavor {
	var candidates []*Flavor
	for _, f := range Catalog() {
		if f.Class == current.Class && f.Name != current.Name {
			candidates = append(candidates, f)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[rng.IntN(len(candidates))]
}

// Catalog returns the flavor catalog reconstructed from Figure 15. vCPU and
// RAM values are chosen so that, weighted by the published per-flavor VM
// counts, the Table 1 and Table 2 class totals are reproduced:
//
//	Table 1 (vCPU): Small 28,446 · Medium 14,340 · Large 1,831 · XL 738
//	Table 2 (RAM):  Small 991 · Medium 41,395 · Large 787 · XL 2,184
//
// Mean lifetimes span 13 hours to 3.2 years with a median around one week
// (Fig. 15); extra-large (HANA) flavors skew long-lived, but lifetime is
// deliberately not monotone in size — the paper stresses that small VMs do
// not consistently live shorter.
func Catalog() []*Flavor {
	return []*Flavor{
		// Small-RAM general purpose (Table 2 Small, ≤2 GiB).
		{Name: "SA", VCPUs: 1, RAMGiB: 1, DiskGB: 20, PaperCount: 384, MeanLifetimeHours: 13},
		{Name: "SB", VCPUs: 2, RAMGiB: 2, DiskGB: 40, PaperCount: 192, MeanLifetimeHours: 48},

		// Small-vCPU / medium-RAM general purpose. MK and MN are the two
		// bulk flavors (9,984 and 11,705 VMs).
		{Name: "MB", VCPUs: 2, RAMGiB: 4, DiskGB: 40, PaperCount: 134, MeanLifetimeHours: 24},
		{Name: "MF", VCPUs: 2, RAMGiB: 8, DiskGB: 60, PaperCount: 538, MeanLifetimeHours: 72},
		{Name: "MG", VCPUs: 4, RAMGiB: 16, DiskGB: 80, PaperCount: 1117, MeanLifetimeHours: 120},
		{Name: "MH", VCPUs: 4, RAMGiB: 8, DiskGB: 60, PaperCount: 211, MeanLifetimeHours: 168},
		{Name: "MI", VCPUs: 4, RAMGiB: 32, DiskGB: 100, PaperCount: 359, MeanLifetimeHours: 336},
		{Name: "MK", VCPUs: 2, RAMGiB: 16, DiskGB: 60, PaperCount: 9984, MeanLifetimeHours: 168},
		{Name: "ML", VCPUs: 4, RAMGiB: 16, DiskGB: 80, PaperCount: 2705, MeanLifetimeHours: 240},
		{Name: "MN", VCPUs: 4, RAMGiB: 32, DiskGB: 100, PaperCount: 11705, MeanLifetimeHours: 168},

		// Medium-vCPU general purpose / application servers.
		{Name: "MA", VCPUs: 8, RAMGiB: 32, DiskGB: 120, PaperCount: 287, MeanLifetimeHours: 504},
		{Name: "MC", VCPUs: 8, RAMGiB: 64, DiskGB: 160, PaperCount: 3446, MeanLifetimeHours: 336},
		{Name: "MD", VCPUs: 8, RAMGiB: 16, DiskGB: 80, PaperCount: 155, MeanLifetimeHours: 48},
		{Name: "ME", VCPUs: 8, RAMGiB: 32, DiskGB: 120, PaperCount: 956, MeanLifetimeHours: 720},
		{Name: "MJ", VCPUs: 16, RAMGiB: 64, DiskGB: 200, PaperCount: 3432, MeanLifetimeHours: 504},
		{Name: "MM", VCPUs: 12, RAMGiB: 48, DiskGB: 160, PaperCount: 2705, MeanLifetimeHours: 336},
		{Name: "MO", VCPUs: 16, RAMGiB: 32, DiskGB: 120, PaperCount: 3315, MeanLifetimeHours: 168},
		{Name: "MP", VCPUs: 16, RAMGiB: 64, DiskGB: 200, PaperCount: 379, MeanLifetimeHours: 1440},
		{Name: "MQ", VCPUs: 8, RAMGiB: 64, DiskGB: 160, PaperCount: 41, MeanLifetimeHours: 2160},
		{Name: "MR", VCPUs: 12, RAMGiB: 24, DiskGB: 100, PaperCount: 259, MeanLifetimeHours: 96},

		// Large-RAM application servers (Table 2 Large, 64<r≤128 GiB).
		{Name: "LA", VCPUs: 24, RAMGiB: 128, DiskGB: 300, PaperCount: 173, MeanLifetimeHours: 720},
		{Name: "LB", VCPUs: 8, RAMGiB: 128, DiskGB: 300, PaperCount: 583, MeanLifetimeHours: 504},
		{Name: "LC", VCPUs: 32, RAMGiB: 128, DiskGB: 300, PaperCount: 38, MeanLifetimeHours: 1440},

		// Extra-large-RAM HANA in-memory database flavors (Table 2 XL,
		// >128 GiB). Large-vCPU subset (Table 1 Large, 16<v≤64).
		{Name: "XLA", VCPUs: 32, RAMGiB: 256, DiskGB: 768, Class: HANA, PaperCount: 38, MeanLifetimeHours: 5040},
		{Name: "XLB", VCPUs: 24, RAMGiB: 192, DiskGB: 576, Class: HANA, PaperCount: 58, MeanLifetimeHours: 2160},
		{Name: "XLC", VCPUs: 48, RAMGiB: 1024, DiskGB: 3072, Class: HANA, PaperCount: 53, MeanLifetimeHours: 8760},
		{Name: "XLF", VCPUs: 24, RAMGiB: 256, DiskGB: 768, Class: HANA, PaperCount: 40, MeanLifetimeHours: 2880},
		{Name: "XLG", VCPUs: 32, RAMGiB: 384, DiskGB: 1152, Class: HANA, PaperCount: 219, MeanLifetimeHours: 4320},
		{Name: "XLH", VCPUs: 32, RAMGiB: 256, DiskGB: 768, Class: HANA, PaperCount: 215, MeanLifetimeHours: 1440},
		{Name: "XLI", VCPUs: 48, RAMGiB: 512, DiskGB: 1536, Class: HANA, PaperCount: 104, MeanLifetimeHours: 5040},
		{Name: "XLK", VCPUs: 24, RAMGiB: 192, DiskGB: 576, Class: HANA, PaperCount: 96, MeanLifetimeHours: 720},
		{Name: "XLN", VCPUs: 32, RAMGiB: 384, DiskGB: 1152, Class: HANA, PaperCount: 218, MeanLifetimeHours: 8760},
		{Name: "XLP", VCPUs: 40, RAMGiB: 256, DiskGB: 768, Class: HANA, PaperCount: 251, MeanLifetimeHours: 4320},
		{Name: "XLQ", VCPUs: 48, RAMGiB: 512, DiskGB: 1536, Class: HANA, PaperCount: 192, MeanLifetimeHours: 12960},
		{Name: "XLR", VCPUs: 64, RAMGiB: 768, DiskGB: 2304, Class: HANA, PaperCount: 114, MeanLifetimeHours: 8760},

		// Extra-large-vCPU HANA flavors (Table 1 XL, >64 vCPUs). XLL at
		// 12 TiB realizes the paper's "up to 12 TB per VM".
		{Name: "XLD", VCPUs: 72, RAMGiB: 1536, DiskGB: 4608, Class: HANA, PaperCount: 127, MeanLifetimeHours: 8760},
		{Name: "XLE", VCPUs: 80, RAMGiB: 1024, DiskGB: 3072, Class: HANA, PaperCount: 60, MeanLifetimeHours: 4320},
		{Name: "XLJ", VCPUs: 80, RAMGiB: 2048, DiskGB: 6144, Class: HANA, PaperCount: 142, MeanLifetimeHours: 12960},
		{Name: "XLL", VCPUs: 96, RAMGiB: 12288, DiskGB: 24576, Class: HANA, PaperCount: 89, MeanLifetimeHours: 25920},
		{Name: "XLM", VCPUs: 80, RAMGiB: 1536, DiskGB: 4608, Class: HANA, PaperCount: 42, MeanLifetimeHours: 17280},
		{Name: "XLO", VCPUs: 96, RAMGiB: 6144, DiskGB: 18432, Class: HANA, PaperCount: 259, MeanLifetimeHours: 25920},
	}
}

// CatalogByName indexes the catalog.
func CatalogByName() map[string]*Flavor {
	m := make(map[string]*Flavor)
	for _, f := range Catalog() {
		m[f.Name] = f
	}
	return m
}

// TotalPaperVMs sums Figure 15 per-flavor counts.
func TotalPaperVMs() int {
	total := 0
	for _, f := range Catalog() {
		total += f.PaperCount
	}
	return total
}

// ClassCounts tallies the catalog's Figure 15 instance counts by the given
// classifier, reproducing Table 1 (classify by VCPUClass) or Table 2
// (classify by RAMClass).
func ClassCounts(classify func(*Flavor) SizeClass) map[SizeClass]int {
	counts := make(map[SizeClass]int)
	for _, f := range Catalog() {
		counts[classify(f)] += f.PaperCount
	}
	return counts
}
