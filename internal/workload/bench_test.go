package workload

import (
	"testing"

	"sapsim/internal/sim"
)

// BenchmarkGenerate measures full workload synthesis at the default
// laptop-scale population.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewGenerator(DefaultSpec(2400, uint64(i))).Generate()
	}
}

// BenchmarkProfileCPUUsage measures one usage evaluation read for its CPU
// demand, at one-minute steps: five calls share each 5-minute noise bucket.
func BenchmarkProfileCPUUsage(b *testing.B) {
	p := &Profile{
		Seed: 1, MeanCPU: 0.3, DiurnalAmp: 0.2, WeekendDip: 0.2,
		NoiseAmp: 0.1, BurstProb: 0.01, BurstMag: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.UsageAt(sim.Time(i) * sim.Minute).CPU
	}
}

// BenchmarkProfileUsageAt measures the host snapshot's per-resident
// evaluation on the sampler's 5-minute grid, where the memo serves the CPU
// and memory noise draws.
func BenchmarkProfileUsageAt(b *testing.B) {
	p := &Profile{
		Seed: 1, MeanCPU: 0.3, MeanMem: 0.7, DiurnalAmp: 0.2, WeekendDip: 0.2, PhaseHours: 2.5,
		NoiseAmp: 0.1, BurstProb: 0.01, BurstMag: 2, TxKbps: 2000, RxKbps: 3000, DiskFrac: 0.4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.UsageAt(sim.Time(i) * 5 * sim.Minute)
	}
}
