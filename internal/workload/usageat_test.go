package workload

import (
	"math"
	"testing"

	"sapsim/internal/sim"
	"sapsim/internal/telemetry"
	"sapsim/internal/vmmodel"
)

// referenceUsage is p's usage at t field by field, each field from its own
// Clock and its own draws, with the products in UsageAtClock's order: the
// per-field formulas UsageAtClock shares its cycle, noise and memoised draws
// across.
func referenceUsage(p *Profile, t sim.Time) vmmodel.Usage {
	cpu := func() float64 {
		c := ClockAt(t)
		v := p.MeanCPU * p.cycle(&c) * p.noiseOf(hashNormal(p.Seed, c.mb)) * p.burst(&c)
		return clamp(v, 0, 1.5)
	}
	mem := func() float64 {
		c := ClockAt(t)
		return p.memOf(&c, hashNormal(p.Seed^0x3333, c.mh))
	}
	tx := func() float64 {
		c := ClockAt(t)
		return floor0(p.TxKbps * p.cycle(&c) * p.noiseOf(hashNormal(p.Seed, c.mb)))
	}
	// Rx noise is the next 5-minute bucket's draw.
	rx := func() float64 {
		c := ClockAt(t)
		return floor0(p.RxKbps * p.cycle(&c) * p.noiseOf(hashNormal(p.Seed, c.mrb)))
	}
	disk := func() float64 {
		c := ClockAt(t)
		return p.disk(&c)
	}
	return vmmodel.Usage{CPU: cpu(), Mem: mem(), TxKbps: tx(), RxKbps: rx(), Disk: disk()}
}

// sameBits fails unless UsageAt equals want field for field, bit for bit:
// every golden digest rests on the host snapshot's sums of UsageAt fields.
func sameBits(t *testing.T, at sim.Time, u, want vmmodel.Usage) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"CPU", u.CPU, want.CPU},
		{"Mem", u.Mem, want.Mem},
		{"TxKbps", u.TxKbps, want.TxKbps},
		{"RxKbps", u.RxKbps, want.RxKbps},
		{"Disk", u.Disk, want.Disk},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("t=%v: UsageAt.%s = %v (%#x), reference = %v (%#x)",
				at, c.name, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
}

// matchesReference checks p.UsageAt(at) against referenceUsage.
func matchesReference(t *testing.T, p *Profile, at sim.Time) {
	t.Helper()
	sameBits(t, at, p.UsageAt(at), referenceUsage(p, at))
}

// TestProfileUsageAtMatchesComponents checks UsageAt against referenceUsage
// on the sampler's 5-minute grid over the 30-day window — every weekend
// boundary, hour bucket and noise bucket edge is on it — plus off-grid
// instants, for generated profiles (drawn amplitudes, phases, burst rates)
// and hand-set extremes.
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
			matchesReference(t, p, at)
		}
		for _, at := range []sim.Time{1, sim.Hour - 1, 3*sim.Day - 1, 3*sim.Day + 1, 5*sim.Day - sim.Second, 17*sim.Day + 7*sim.Minute + 13} {
			matchesReference(t, p, at)
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

// TestReplayUsageAtMatchesComponents checks UsageAt against seriesAt of each
// series, covering last-observation-carried-forward before, at, between and
// after samples, and absent optional series.
func TestReplayUsageAtMatchesComponents(t *testing.T) {
	series := func(vals ...float64) *telemetry.Series { return seriesOf(t, sim.Hour, sim.Hour, vals...) }
	full := &ReplayProfile{CPU: series(0.1, 0.2, 0.3), Mem: series(0.5, 0.6), Tx: series(10, 20),
		Rx: series(30), Disk: series(0.4, 0.45), FallbackCPU: 0.05, FallbackMem: 0.5, FallbackDisk: 0.3}
	sparse := &ReplayProfile{CPU: series(0.7), FallbackCPU: 0.7, FallbackMem: 0.5, FallbackDisk: 0.3}
	for _, p := range []*ReplayProfile{full, sparse, {}} {
		for _, at := range []sim.Time{0, sim.Hour - 1, sim.Hour, sim.Hour + 1, 2 * sim.Hour, 150 * sim.Minute, 3 * sim.Hour, sim.Day} {
			want := vmmodel.Usage{CPU: seriesAt(p.CPU, at, p.FallbackCPU), Mem: seriesAt(p.Mem, at, p.FallbackMem),
				TxKbps: seriesAt(p.Tx, at, 0), RxKbps: seriesAt(p.Rx, at, 0), Disk: seriesAt(p.Disk, at, p.FallbackDisk)}
			sameBits(t, at, p.UsageAt(at), want)
		}
	}
	if u := sparse.UsageAt(sim.Day); u != (vmmodel.Usage{CPU: 0.7, Mem: 0.5, Disk: 0.3}) {
		t.Errorf("sparse replay usage = %+v", u)
	}
}
