package workload

import (
	"math"

	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
)

// Profile is a deterministic usage profile for one VM, its values pure in its
// parameters and t; it implements vmmodel.UsageProfile. Demand is the VM's
// drawn mean times diurnal, weekly, noise, and burst components, so the
// 30-day average tracks the calibrated mean while short windows show the
// variability the paper observes (fluctuations, bursts, contention spikes).
type Profile struct {
	Seed uint64

	// Calibrated long-run means (fractions of the requested allocation).
	MeanCPU float64
	MeanMem float64

	// DiurnalAmp is the relative amplitude of the daily cycle (0..1);
	// enterprise workloads peak during working hours.
	DiurnalAmp float64
	// WeekendDip is the relative demand reduction on weekends (0..1).
	WeekendDip float64
	// PhaseHours shifts the daily peak (e.g. batch jobs at night).
	PhaseHours float64

	// NoiseAmp scales the per-sample multiplicative noise.
	NoiseAmp float64

	// BurstProb is the per-5-minute-bucket probability of a demand burst;
	// BurstMag is the burst multiplier. Bursts can push demand above the
	// allocation, which manifests as CPU contention on overcommitted
	// hosts (Figs. 8 and 9).
	BurstProb float64
	BurstMag  float64

	// MemGrowthPerDay models the slow memory growth some hosts show in
	// Fig. 10 (fraction per day, applied up to saturation).
	MemGrowthPerDay float64

	// Network baselines in Kbit/s (Figs. 11/12: tiny next to 200 Gbps).
	TxKbps float64
	RxKbps float64

	// DiskFrac is the fraction of the requested disk in use; storage
	// changes slowly (Fig. 13).
	DiskFrac float64

	// Grid memo, used only by UsageAt (valid once memo is set): the Rx draw
	// of bucket rxKey, which is the next tick's CPU draw, and the memory draw
	// of hour memKey. Draws are pure in (Seed, key), so a cold memo yields
	// the same bits; a Profile is not safe for concurrent UsageAt calls.
	rxKey, memKey uint64
	rx, mem       float64
	memo          bool
}

const (
	noiseBucket = 5 * sim.Minute // noise/burst correlation time
	hoursPerDay = 24.0
)

// mod24 is math.Mod(x, 24) bit for bit, without the software fmod loop. For
// 0 ≤ x < 2^40 the truncated fl(x/24) is the true quotient q: rounding is
// monotonic, so fl(x/24) ≥ q, and the largest float below 24(q+1), over 24,
// lies ≥ 2/3 ulp below q+1. So q·24 is exact and so is x − q·24, an fmod
// remainder being representable. Other inputs go to math.Mod.
func mod24(x float64) float64 {
	if !(x >= 0 && x < 1<<40) {
		return math.Mod(x, hoursPerDay)
	}
	return x - float64(int64(x/hoursPerDay))*hoursPerDay
}

// cycle returns the diurnal+weekly demand multiplier at time t.
func (p *Profile) cycle(t sim.Time) float64 {
	hour := mod24(t.Hours() + p.PhaseHours)
	// Working-hours bump: cosine dipped at night, peaked at 13:00.
	day := 1 + p.DiurnalAmp*math.Cos((hour-13)/hoursPerDay*2*math.Pi)
	// Weekend dip: the epoch (2024-07-31) is a Wednesday (weekday 2 with
	// 0=Monday), so days 3,4 (Sat/Sun), 10,11, ... are weekends.
	dayIdx := int(t / sim.Day)
	weekday := (2 + dayIdx) % 7 // 0=Mon ... 5=Sat, 6=Sun
	if weekday >= 5 {
		day *= 1 - p.WeekendDip
	}
	return day
}

// noise returns a smooth multiplicative noise factor for time t.
func (p *Profile) noise(t sim.Time) float64 {
	return p.noiseOf(hashNormal(p.Seed, uint64(t/noiseBucket)))
}

// noiseOf scales a noise draw n into the factor, floored at 0.1. The branch
// is math.Max(0.1, v) without the call; a NaN passes through as NaN.
func (p *Profile) noiseOf(n float64) float64 {
	v := 1 + p.NoiseAmp*n
	if v < 0.1 {
		v = 0.1
	}
	return v
}

// floor0 is math.Max(0, v) as a branch: NaN stays NaN, −0 becomes +0.
func floor0(v float64) float64 {
	if v <= 0 {
		v = 0
	}
	return v
}

// burst returns the burst multiplier (1 when no burst is active).
func (p *Profile) burst(t sim.Time) float64 {
	b := uint64(t / noiseBucket)
	if hashUnit(p.Seed^0xb0b0, b) < p.BurstProb {
		return p.BurstMag
	}
	return 1
}

// CPUUsage implements vmmodel.UsageProfile.
func (p *Profile) CPUUsage(t sim.Time) float64 {
	v := p.MeanCPU * p.cycle(t) * p.noise(t) * p.burst(t)
	return clamp(v, 0, 1.5) // >1 models demand beyond the allocation
}

// MemUsage implements vmmodel.UsageProfile.
func (p *Profile) MemUsage(t sim.Time) float64 {
	return p.memOf(t, hashNormal(p.Seed^0x3333, uint64(t/sim.Hour)))
}

// memOf is the memory fraction at t given the hour's noise draw n.
func (p *Profile) memOf(t sim.Time, n float64) float64 {
	grown := p.MeanMem + p.MemGrowthPerDay*t.Days()
	// Memory is much less volatile than CPU: small noise, no bursts.
	return clamp(grown*(1+0.02*n), 0, 1)
}

// NetTxKbps is the transmit rate UsageAt reports.
func (p *Profile) NetTxKbps(t sim.Time) float64 {
	return floor0(p.TxKbps * p.cycle(t) * p.noise(t))
}

// NetRxKbps is the receive rate UsageAt reports.
func (p *Profile) NetRxKbps(t sim.Time) float64 {
	return floor0(p.RxKbps * p.cycle(t) * p.noise(t+noiseBucket))
}

// DiskUsage is the disk fraction UsageAt reports.
func (p *Profile) DiskUsage(t sim.Time) float64 {
	// Slow, bounded growth.
	return clamp(p.DiskFrac*(1+0.002*t.Days()), 0, 1)
}

// UsageAt implements vmmodel.UsageProfile. cycle(t) and noise(t) are evaluated
// once, and the grid memo serves the CPU draw (the previous call's Rx draw)
// and the hourly memory draw; products keep the component methods' order, so
// results are bit-equal to them.
func (p *Profile) UsageAt(t sim.Time) vmmodel.Usage {
	b, rb, h := uint64(t/noiseBucket), uint64((t+noiseBucket)/noiseBucket), uint64(t/sim.Hour)
	nb := p.rx
	if !p.memo || p.rxKey != b {
		nb = hashNormal(p.Seed, b)
	}
	if !p.memo || p.rxKey != rb {
		p.rx, p.rxKey = hashNormal(p.Seed, rb), rb
	}
	if !p.memo || p.memKey != h {
		p.mem, p.memKey = hashNormal(p.Seed^0x3333, h), h
	}
	p.memo = true
	c, n := p.cycle(t), p.noiseOf(nb)
	return vmmodel.Usage{
		CPU:    clamp(p.MeanCPU*c*n*p.burst(t), 0, 1.5),
		Mem:    p.memOf(t, p.mem),
		TxKbps: floor0(p.TxKbps * c * n),
		RxKbps: floor0(p.RxKbps * c * p.noiseOf(p.rx)),
		Disk:   p.DiskUsage(t),
	}
}
