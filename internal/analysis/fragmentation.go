package analysis

import (
	"sort"

	"sapsim/internal/esx"
	"sapsim/internal/topology"
	"sapsim/internal/vmmodel"
)

// Fragmentation analysis quantifies the paper's central scheduling
// objective and failure mode: "maximize the number of placeable VMs per
// flavor" (Sec. 3.2) versus the capacity stranded when free resources are
// scattered across nodes in slivers too small for the flavor ("fragmentation
// of workloads on hypervisors", Sec. 1).

// PlaceableVMs reports how many additional VMs of the flavor the fleet
// could admit right now, respecting per-node admission control (the true,
// fragmentation-aware count).
func PlaceableVMs(fleet *esx.Fleet, f *vmmodel.Flavor) int {
	total := 0
	fleet.EachHost(func(h *esx.Host) { total += placeableOnHost(h, f) })
	return total
}

// placeableOnHost counts flavor instances one host can still admit.
func placeableOnHost(h *esx.Host, f *vmmodel.Flavor) int {
	if h.Node.Maintenance || !h.Fits(f) {
		return 0
	}
	byCPU := h.FreeVCPUs() / f.VCPUs
	byMem := int(h.FreeMemMB() / (int64(f.RAMGiB) << 10))
	n := byCPU
	if byMem < n {
		n = byMem
	}
	if n < 0 {
		return 0
	}
	return n
}

// AggregatePlaceableVMs reports the count a fragmentation-blind view
// implies: pooled free vCPU and memory across the fleet divided by the
// flavor's ask. The gap to PlaceableVMs is the stranded share.
func AggregatePlaceableVMs(fleet *esx.Fleet, f *vmmodel.Flavor) int {
	var freeCPU int
	var freeMem int64
	fleet.EachHost(func(h *esx.Host) {
		if h.Node.Maintenance {
			return
		}
		if c := h.FreeVCPUs(); c > 0 {
			freeCPU += c
		}
		if m := h.FreeMemMB(); m > 0 {
			freeMem += m
		}
	})
	byCPU := freeCPU / f.VCPUs
	byMem := int(freeMem / (int64(f.RAMGiB) << 10))
	if byMem < byCPU {
		return byMem
	}
	return byCPU
}

// FragmentationReport compares the two counts for a flavor.
type FragmentationReport struct {
	Flavor *vmmodel.Flavor
	// Placeable is the admission-aware count.
	Placeable int
	// AggregateImplied is the pooled-capacity count.
	AggregateImplied int
}

// StrandedFraction is the share of apparent capacity that fragmentation
// makes unusable for this flavor: 1 - placeable/implied.
func (r FragmentationReport) StrandedFraction() float64 {
	if r.AggregateImplied <= 0 {
		return 0
	}
	return 1 - float64(r.Placeable)/float64(r.AggregateImplied)
}

// FragmentationByFlavor evaluates every flavor of the catalog against the
// fleet, sorted by descending stranded fraction — the flavors hurt most by
// scattered free capacity (invariably the memory-large ones).
func FragmentationByFlavor(fleet *esx.Fleet, flavors []*vmmodel.Flavor) []FragmentationReport {
	out := make([]FragmentationReport, 0, len(flavors))
	for _, f := range flavors {
		out = append(out, FragmentationReport{
			Flavor:           f,
			Placeable:        PlaceableVMs(fleet, f),
			AggregateImplied: AggregatePlaceableVMs(fleet, f),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := out[i].StrandedFraction(), out[j].StrandedFraction()
		if si != sj {
			return si > sj
		}
		return out[i].Flavor.Name < out[j].Flavor.Name
	})
	return out
}

// BBImbalance summarizes allocation imbalance across the building blocks
// of one kind within a DC — the "measurable imbalances that impair
// scheduling efficiency" of Sec. 7.
type BBImbalance struct {
	DC       string
	Kind     topology.BBKind
	MinPct   float64 // least memory-allocated BB
	MaxPct   float64 // most memory-allocated BB
	Spread   float64
	BBsCount int
}

// BBImbalances computes per-DC, per-kind memory-allocation imbalance,
// skipping reserved blocks.
func BBImbalances(fleet *esx.Fleet) []BBImbalance {
	type key struct {
		dc   string
		kind topology.BBKind
	}
	groups := map[key][]float64{}
	for _, bb := range fleet.Region().BBs() {
		if bb.Reserved {
			continue
		}
		a := fleet.BBAlloc(bb)
		if a.MemCapMB == 0 {
			continue
		}
		k := key{dc: bb.DC.Name, kind: bb.Kind}
		groups[k] = append(groups[k], float64(a.MemAllocMB)/float64(a.MemCapMB)*100)
	}
	var out []BBImbalance
	for k, pcts := range groups {
		imb := BBImbalance{DC: k.dc, Kind: k.kind, BBsCount: len(pcts), MinPct: pcts[0], MaxPct: pcts[0]}
		for _, p := range pcts[1:] {
			if p < imb.MinPct {
				imb.MinPct = p
			}
			if p > imb.MaxPct {
				imb.MaxPct = p
			}
		}
		imb.Spread = imb.MaxPct - imb.MinPct
		out = append(out, imb)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DC != out[j].DC {
			return out[i].DC < out[j].DC
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
