package workload

import (
	"math"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/vmmodel"
)

// components is UsageAt's per-field methods, which *Profile and
// *ReplayProfile keep for their own UsageAt and for tests, though
// vmmodel.UsageProfile carries only CPUUsage and MemUsage of them.
type components interface {
	vmmodel.UsageProfile
	NetTxKbps(sim.Time) float64
	NetRxKbps(sim.Time) float64
	DiskUsage(sim.Time) float64
}

// sameBits fails unless UsageAt equals the five component methods bit for
// bit: the host snapshot sums UsageAt fields where it used to sum the
// components, and every golden digest rests on those sums.
func sameBits(t *testing.T, p components, at sim.Time) {
	t.Helper()
	u := p.UsageAt(at)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"CPU", u.CPU, p.CPUUsage(at)},
		{"Mem", u.Mem, p.MemUsage(at)},
		{"TxKbps", u.TxKbps, p.NetTxKbps(at)},
		{"RxKbps", u.RxKbps, p.NetRxKbps(at)},
		{"Disk", u.Disk, p.DiskUsage(at)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("t=%v: UsageAt.%s = %v (%#x), component method = %v (%#x)",
				at, c.name, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
}

// TestProfileUsageAtMatchesComponents walks the sampler's 5-minute grid over
// the 30-day window — every weekend boundary, hour bucket and noise bucket
// edge is on it — plus off-grid instants, for generated profiles (drawn
// amplitudes, phases, burst rates) and hand-set extremes.
func TestProfileUsageAtMatchesComponents(t *testing.T) {
	var profiles []*Profile
	for _, seed := range []uint64{1, 42, 1001} {
		for _, in := range NewGenerator(DefaultSpec(40, seed)).Generate()[:12] {
			profiles = append(profiles, in.VM.Profile.(*Profile))
		}
	}
	profiles = append(profiles,
		&Profile{Seed: 9, MeanCPU: 0.9, MeanMem: 0.99, DiurnalAmp: 1, WeekendDip: 1, PhaseHours: 23.5,
			NoiseAmp: 2, BurstProb: 0.5, BurstMag: 4, MemGrowthPerDay: 0.01, TxKbps: 1e6, RxKbps: 1e-3, DiskFrac: 0.999},
		&Profile{Seed: 0, PhaseHours: -7},
	)
	for _, p := range profiles {
		for at := sim.Time(0); at <= 30*sim.Day; at += 5 * sim.Minute {
			sameBits(t, p, at)
		}
		for _, at := range []sim.Time{1, sim.Hour - 1, 3*sim.Day - 1, 3*sim.Day + 1, 5*sim.Day - sim.Second, 17*sim.Day + 7*sim.Minute + 13} {
			sameBits(t, p, at)
		}
	}
}

// seriesOf returns a series holding vals at start, start+step, …, read back
// from a store of its own.
func seriesOf(t testing.TB, start, step sim.Time, vals ...float64) *telemetry.Series {
	t.Helper()
	st := telemetry.NewStore()
	for i, v := range vals {
		if err := st.Append("m", telemetry.Labels{}, start+sim.Time(i)*step, v); err != nil {
			t.Fatal(err)
		}
	}
	if len(vals) == 0 {
		return &telemetry.Series{}
	}
	return st.Select("m")[0]
}

// TestReplayUsageAtMatchesComponents covers last-observation-carried-forward
// before, at, between and after samples, and absent optional series.
func TestReplayUsageAtMatchesComponents(t *testing.T) {
	series := func(vals ...float64) *telemetry.Series { return seriesOf(t, sim.Hour, sim.Hour, vals...) }
	full := &ReplayProfile{CPU: series(0.1, 0.2, 0.3), Mem: series(0.5, 0.6), Tx: series(10, 20),
		Rx: series(30), Disk: series(0.4, 0.45), FallbackCPU: 0.05, FallbackMem: 0.5, FallbackDisk: 0.3}
	sparse := &ReplayProfile{CPU: series(0.7), FallbackCPU: 0.7, FallbackMem: 0.5, FallbackDisk: 0.3}
	for _, p := range []*ReplayProfile{full, sparse, {}} {
		for _, at := range []sim.Time{0, sim.Hour - 1, sim.Hour, sim.Hour + 1, 2 * sim.Hour, 150 * sim.Minute, 3 * sim.Hour, sim.Day} {
			sameBits(t, p, at)
		}
	}
	if u := sparse.UsageAt(sim.Day); u != (vmmodel.Usage{CPU: 0.7, Mem: 0.5, Disk: 0.3}) {
		t.Errorf("sparse replay usage = %+v", u)
	}
}
