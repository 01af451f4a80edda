package sapsim

import (
	"testing"

	"sapsim/internal/sim"
)

// fullCellConfig is a complete-but-compact cell: every subsystem the 30-day
// experiments exercise (arrival churn, deletions, DRS passes, resize churn,
// host + VM telemetry sampling) at a size that keeps one iteration under a
// second. Cell runtime is the floor under every sweep and resume.
func fullCellConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.02
	cfg.VMs = 500
	cfg.Days = 3
	cfg.SampleEvery = 15 * sim.Minute
	cfg.VMSampleEvery = sim.Hour
	return cfg
}

// BenchmarkFullCell runs one full simulation cell per iteration.
func BenchmarkFullCell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(fullCellConfig(42))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.VMs) == 0 || res.Store.SeriesCount() == 0 {
			b.Fatal("cell produced no data")
		}
	}
}
