package nova

import (
	"sapsim/internal/vmmodel"
)

// Weigher scores the hosts that survive filtering (Fig. 3, second stage).
// Raw weights are min-max normalized per weigher across the candidate set,
// multiplied by the weigher's multiplier, and summed — exactly Nova's
// weighing scheme. A positive multiplier prefers larger raw values; a
// negative multiplier inverts the preference (spread → pack).
type Weigher interface {
	Name() string
	// Weigh returns the raw (un-normalized) score for the host.
	Weigh(req *RequestSpec, h *HostState) float64
	// Multiplier scales the normalized score and sets its direction.
	Multiplier(req *RequestSpec) float64
}

// RAMWeigher prefers hosts with more free memory (load balancing). With
// SAPPolicy it inverts for HANA flavors, bin-packing memory instead —
// exactly the production posture described in Sec. 3.2 ("the default
// strategy aims to load-balance general-purpose workloads, whereas SAP
// S/4HANA workloads are explicitly bin-packed to maximize memory
// utilization").
type RAMWeigher struct {
	Mult float64
	// SAPPolicy flips the sign for HANA flavors.
	SAPPolicy bool
}

// Name implements Weigher.
func (RAMWeigher) Name() string { return "RAMWeigher" }

// Weigh implements Weigher.
func (RAMWeigher) Weigh(_ *RequestSpec, h *HostState) float64 {
	return float64(h.FreeMemMB())
}

// Multiplier implements Weigher.
func (w RAMWeigher) Multiplier(req *RequestSpec) float64 {
	m := w.Mult
	if m == 0 {
		m = 1
	}
	if w.SAPPolicy && req.Flavor().Class == vmmodel.HANA {
		return -m
	}
	return m
}

// CPUWeigher prefers hosts with more free vCPU capacity.
type CPUWeigher struct {
	Mult float64
}

// Name implements Weigher.
func (CPUWeigher) Name() string { return "CPUWeigher" }

// Weigh implements Weigher.
func (CPUWeigher) Weigh(_ *RequestSpec, h *HostState) float64 {
	return float64(h.FreeVCPUs())
}

// Multiplier implements Weigher.
func (w CPUWeigher) Multiplier(*RequestSpec) float64 {
	if w.Mult == 0 {
		return 1
	}
	return w.Mult
}

// ContentionWeigher penalizes hosts with recent CPU contention. Vanilla
// Nova has no such weigher; the paper's guidance (Sec. 7: "incorporating
// both current and historic utilization data, for example the contention
// metrics") motivates it, and the A3 ablation measures its effect.
type ContentionWeigher struct {
	Mult float64
}

// Name implements Weigher.
func (ContentionWeigher) Name() string { return "ContentionWeigher" }

// Weigh implements Weigher.
func (ContentionWeigher) Weigh(_ *RequestSpec, h *HostState) float64 {
	return -h.AvgContentionPct // less contention → higher score
}

// Multiplier implements Weigher.
func (w ContentionWeigher) Multiplier(*RequestSpec) float64 {
	if w.Mult == 0 {
		return 1
	}
	return w.Mult
}

// VMCountWeigher prefers hosts with fewer VMs; a simple anti-affinity
// pressure used in some deployments.
type VMCountWeigher struct {
	Mult float64
}

// Name implements Weigher.
func (VMCountWeigher) Name() string { return "VMCountWeigher" }

// Weigh implements Weigher.
func (VMCountWeigher) Weigh(_ *RequestSpec, h *HostState) float64 {
	return -float64(h.Alloc.VMCount)
}

// Multiplier implements Weigher.
func (w VMCountWeigher) Multiplier(*RequestSpec) float64 {
	if w.Mult == 0 {
		return 1
	}
	return w.Mult
}

// DefaultWeighers is the SAP production pipeline: RAM and CPU weighers
// with the HANA bin-packing policy.
func DefaultWeighers() []Weigher {
	return []Weigher{
		RAMWeigher{Mult: 1, SAPPolicy: true},
		CPUWeigher{Mult: 0.5},
	}
}

// ContentionAwareWeighers is the Sec. 7 contention-aware pipeline: the
// production RAM/CPU weighers led by a ContentionWeigher, which reads the
// per-BB contention that core's host sampler feeds through SetContention
// whenever the weighers hold one.
func ContentionAwareWeighers() []Weigher {
	return []Weigher{
		ContentionWeigher{Mult: 2},
		RAMWeigher{Mult: 1, SAPPolicy: true},
		CPUWeigher{Mult: 0.5},
	}
}

// scored pairs a host with its accumulated normalized weight.
type scored struct {
	h *HostState
	w float64
}

// rankBuf holds the scratch slices rank works in, so a scheduler ranking
// thousands of requests reuses three buffers instead of allocating per
// decision. The returned ranking aliases the buffer and is only valid until
// the next rank call on the same buffer.
type rankBuf struct {
	scores []scored
	raws   []float64
	out    []*HostState
}

// rank orders hosts by total normalized weight, descending. Ties break by
// building block ID for determinism.
func (b *rankBuf) rank(req *RequestSpec, hosts []*HostState, weighers []Weigher) []*HostState {
	if len(hosts) == 0 {
		return nil
	}
	b.scores = b.scores[:0]
	for _, h := range hosts {
		b.scores = append(b.scores, scored{h: h})
	}
	for _, w := range weighers {
		b.raws = b.raws[:0]
		min, max := 0.0, 0.0
		for i, h := range hosts {
			r := w.Weigh(req, h)
			b.raws = append(b.raws, r)
			if i == 0 || r < min {
				min = r
			}
			if i == 0 || r > max {
				max = r
			}
		}
		span := max - min
		mult := w.Multiplier(req)
		for i := range b.scores {
			norm := 0.0
			if span > 0 {
				norm = (b.raws[i] - min) / span
			}
			b.scores[i].w += mult * norm
		}
	}
	// Insertion sort keeps the implementation dependency-free and the
	// candidate lists are short (tens of BBs).
	scores := b.scores
	for i := 1; i < len(scores); i++ {
		for j := i; j > 0; j-- {
			a, b := scores[j-1], scores[j]
			if b.w > a.w || (b.w == a.w && b.h.BB.ID < a.h.BB.ID) {
				scores[j-1], scores[j] = b, a
			} else {
				break
			}
		}
	}
	b.out = b.out[:0]
	for _, s := range scores {
		b.out = append(b.out, s.h)
	}
	return b.out
}
