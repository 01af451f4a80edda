package workload

import (
	"fmt"
	"sort"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/vmmodel"
)

// Trace replay: the point of a public dataset is that others can drive
// their schedulers with the *recorded* workload rather than a synthetic
// one. ReplayProfile turns released per-VM telemetry series back into usage
// profiles, and BuildReplay reconstructs a schedulable workload from a
// dataset store.

// ReplayProfile is a vmmodel.UsageProfile backed by recorded series. Values
// between samples follow last-observation-carried-forward semantics, the
// same staleness rule the monitoring system applies.
type ReplayProfile struct {
	CPU  *telemetry.Series // usage ratio (0..1)
	Mem  *telemetry.Series // usage ratio (0..1)
	Tx   *telemetry.Series // Kbit/s (optional)
	Rx   *telemetry.Series // Kbit/s (optional)
	Disk *telemetry.Series // usage ratio (optional)
	// Fallback values used before the first sample of a series or when a
	// series is absent.
	FallbackCPU, FallbackMem, FallbackDisk float64
}

func seriesAt(s *telemetry.Series, t sim.Time, fallback float64) float64 {
	if s == nil {
		return fallback
	}
	if v, ok := s.At(t); ok {
		return v
	}
	return fallback
}

// CPUUsage implements vmmodel.UsageProfile.
func (r *ReplayProfile) CPUUsage(t sim.Time) float64 {
	return seriesAt(r.CPU, t, r.FallbackCPU)
}

// MemUsage implements vmmodel.UsageProfile.
func (r *ReplayProfile) MemUsage(t sim.Time) float64 {
	return seriesAt(r.Mem, t, r.FallbackMem)
}

// NetTxKbps is the transmit rate UsageAt reports.
func (r *ReplayProfile) NetTxKbps(t sim.Time) float64 { return seriesAt(r.Tx, t, 0) }

// NetRxKbps is the receive rate UsageAt reports.
func (r *ReplayProfile) NetRxKbps(t sim.Time) float64 { return seriesAt(r.Rx, t, 0) }

// DiskUsage is the disk fraction UsageAt reports.
func (r *ReplayProfile) DiskUsage(t sim.Time) float64 {
	return seriesAt(r.Disk, t, r.FallbackDisk)
}

// UsageAt implements vmmodel.UsageProfile.
func (r *ReplayProfile) UsageAt(t sim.Time) vmmodel.Usage {
	return vmmodel.Usage{CPU: r.CPUUsage(t), Mem: r.MemUsage(t),
		TxKbps: r.NetTxKbps(t), RxKbps: r.NetRxKbps(t), Disk: r.DiskUsage(t)}
}

// Metric names of the released per-VM series (Appendix C). Declared here
// rather than importing internal/exporter to keep workload dependency-free.
const (
	replayCPUMetric = "vrops_virtualmachine_cpu_usage_ratio"
	replayMemMetric = "vrops_virtualmachine_memory_consumed_ratio"
)

// BuildReplay reconstructs the workload recorded in a dataset store: one
// instance per VM that has CPU telemetry, with flavor resolved through the
// "flavor" label, arrival at the first sample, and lifetime spanning the
// recorded window (VMs observed until the end are treated as surviving the
// horizon).
func BuildReplay(q *telemetry.Store, horizon sim.Time) ([]*Instance, error) {
	cpu := q.Select(replayCPUMetric)
	if len(cpu) == 0 {
		return nil, fmt.Errorf("workload: store has no %s series", replayCPUMetric)
	}
	mem := q.Select(replayMemMetric)
	memByVM := make(map[string]*telemetry.Series, len(mem))
	for _, s := range mem {
		memByVM[s.Labels.Get("virtualmachine")] = s
	}
	catalog := vmmodel.CatalogByName()

	var out []*Instance
	for _, s := range cpu {
		id := s.Labels.Get("virtualmachine")
		if id == "" || s.Len() == 0 {
			continue
		}
		flavorName := s.Labels.Get("flavor")
		flavor, ok := catalog[flavorName]
		if !ok {
			return nil, fmt.Errorf("workload: VM %s has unknown flavor %q", id, flavorName)
		}
		first := s.Sample(0).T
		last := s.Sample(s.Len() - 1).T

		profile := &ReplayProfile{
			CPU:         s,
			Mem:         memByVM[id],
			FallbackCPU: s.Sample(0).V,
			FallbackMem: 0.5,
			// The released dataset has no per-VM disk series; a neutral
			// constant keeps storage accounting defined.
			FallbackDisk: 0.3,
		}
		if m := memByVM[id]; m != nil && m.Len() > 0 {
			profile.FallbackMem = m.Sample(0).V
		}

		vm := &vmmodel.VM{
			ID:        vmmodel.ID(id),
			Flavor:    flavor,
			Project:   s.Labels.Get("project"),
			CreatedAt: first,
			Profile:   profile,
		}
		life := last - first
		if last >= horizon-sim.Hour {
			// Observed until the end: survives the replay window.
			life = horizon - first + sim.Day
		}
		if life <= 0 {
			life = sim.Hour
		}
		out = append(out, &Instance{VM: vm, ArriveAt: first, Lifetime: life})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ArriveAt != out[j].ArriveAt {
			return out[i].ArriveAt < out[j].ArriveAt
		}
		return out[i].VM.ID < out[j].VM.ID
	})
	return out, nil
}
