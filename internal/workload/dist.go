// Package workload generates synthetic enterprise workloads calibrated to
// the published marginals of the SAP Cloud Infrastructure dataset:
//
//   - VM CPU-usage ratios matching Figure 14a's CDF (more than 80% of VMs
//     average below the 70% under-utilization threshold);
//   - VM memory-usage ratios matching Figure 14b (≈38% under-utilized, ≈10%
//     optimal, ≈52% above the 85% threshold);
//   - per-flavor lifetimes spanning minutes to years with a median around
//     one week (Figure 15);
//   - light network traffic (Figures 11/12: ≥99.7% free bandwidth on
//     200 Gbps NICs) and light storage usage (Figure 13);
//   - diurnal weekday/weekend modulation (visible in Figure 8's ready-time
//     series).
//
// All draws are deterministic given the generator seed.
package workload

import (
	"math"
	"math/rand/v2"
)

// splitmix64 is a fast avalanche hash used for stateless per-time-bucket
// noise: the same (seed, bucket) pair always yields the same value, so a
// profile can be queried at arbitrary times without storing a series.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashUnit maps (seed, bucket) to a uniform float in [0, 1), given the
// bucket's splitmix64 hash mb: a Clock hashes each bucket once for every
// profile evaluated at its instant. The scaling is exact; its explicit
// rounding only keeps a caller's sum of two units from fusing with it.
func hashUnit(seed, mb uint64) float64 {
	return float64(float64(splitmix64(seed^mb)>>11) / (1 << 53))
}

// hashNormal maps (seed, bucket) to an approximately standard normal value
// using the sum of three uniforms (Irwin–Hall), cheap and smooth enough for
// telemetry noise; mb is the bucket's splitmix64 hash, as for hashUnit.
func hashNormal(seed, mb uint64) float64 {
	u := hashUnit(seed, mb) + hashUnit(seed+1, mb) + hashUnit(seed+2, mb)
	return (u - 1.5) * 2.0 // variance ≈ 1
}

// logNormal draws a log-normal value with the given median and shape sigma.
func logNormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(sigma*rng.NormFloat64())
}

// uniform draws lo + u·width for u uniform in [0, 1). The product is rounded
// by an explicit conversion before the sum, so no compiler may fuse the two
// into a multiply-add and the draw is the same on every port.
func uniform(rng *rand.Rand, lo, width float64) float64 {
	return lo + float64(rng.Float64()*width)
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// drawMeanCPU samples a VM's average CPU usage ratio. Mixture calibrated to
// Figure 14a: the bulk of VMs are heavily over-provisioned (low usage), a
// thin band is optimal (70–85%), and a small tail is over-utilized.
func drawMeanCPU(rng *rand.Rand) float64 {
	switch u := rng.Float64(); {
	case u < 0.83: // under-utilized bulk
		// Log-normal centered low, truncated below the 70% threshold.
		return clamp(logNormal(rng, 0.18, 0.8), 0.01, 0.699)
	case u < 0.93: // optimal band
		return uniform(rng, 0.70, 0.15)
	default: // over-utilized tail
		return uniform(rng, 0.85, 0.13)
	}
}

// drawMeanMem samples a VM's average memory usage ratio. Mixture calibrated
// to Figure 14b: memory is much better aligned with requests than CPU.
// HANA VMs pin large in-memory tables and sit high by construction.
func drawMeanMem(rng *rand.Rand, hana bool) float64 {
	if hana {
		return uniform(rng, 0.86, 0.12)
	}
	switch u := rng.Float64(); {
	case u < 0.40: // under-utilized
		return clamp(uniform(rng, 0.15, 0.55), 0.0, 0.699)
	case u < 0.50: // optimal band
		return uniform(rng, 0.70, 0.15)
	default: // high consumption (page cache, in-memory apps)
		return uniform(rng, 0.85, 0.14)
	}
}
