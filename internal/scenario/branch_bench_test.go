package scenario

import (
	"testing"

	"sapsim/internal/core"
	"sapsim/internal/sim"
)

// BenchmarkWarmVsColdSweep compares a sweep of late-divergence scenarios run
// cold (every cell simulates from t=0) against the same matrix with Branch
// enabled (cells sharing a (variant, seed) fork from one snapshot of their
// common prefix). The scenarios diverge in the final eighth of a 48h
// horizon, so the warm path simulates the 42h warmup once instead of three
// times — the ns/op gap between the two is that skipped prefix, net of the
// snapshot + per-branch restore cost. Cells are full-cell sized: on toy
// cells the fork overhead wins instead, which is exactly why Matrix.Branch
// is opt-in.
func BenchmarkWarmVsColdSweep(b *testing.B) {
	matrix := func(branch bool) Matrix {
		base := core.DefaultConfig(7)
		base.Scale = 0.02
		base.VMs = 500
		base.Days = 2
		base.SampleEvery = 15 * sim.Minute
		base.VMSampleEvery = sim.Hour
		return Matrix{
			Base: base,
			Scenarios: []*Scenario{
				{Name: "hf-42h", Injections: []core.Injector{
					HostFailures{At: 42 * sim.Hour, Count: 1, Recover: 3 * sim.Hour},
				}},
				{Name: "hf-44h", Injections: []core.Injector{
					HostFailures{At: 44 * sim.Hour, Count: 1, Recover: 3 * sim.Hour},
				}},
				{Name: "hf-46h", Injections: []core.Injector{
					HostFailures{At: 46 * sim.Hour, Count: 1, Recover: 2 * sim.Hour},
				}},
			},
			Variants: []Variant{{Name: "default"}},
			Workers:  1, // serial: the ratio measures skipped work, not parallelism
			Branch:   branch,
		}
	}
	for _, mode := range []struct {
		name   string
		branch bool
	}{{"cold", false}, {"warm", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Sweep(matrix(mode.branch))
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res.Runs {
					if r.Err != "" {
						b.Fatalf("%+v: %s", r.Key, r.Err)
					}
				}
			}
		})
	}
}
