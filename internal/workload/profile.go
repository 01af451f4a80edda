package workload

import (
	"math"

	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
)

// Profile is a deterministic, stateless usage profile for one VM. It
// implements vmmodel.UsageProfile. Instantaneous demand is derived from the
// VM's drawn mean plus diurnal, weekly, noise, and burst components, so the
// 30-day average tracks the calibrated mean while short windows exhibit the
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
}

const (
	noiseBucket = 5 * sim.Minute // noise/burst correlation time
	hoursPerDay = 24.0
)

// cycle returns the diurnal+weekly demand multiplier at time t.
func (p *Profile) cycle(t sim.Time) float64 {
	hour := math.Mod(t.Hours()+p.PhaseHours, hoursPerDay)
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
	b := uint64(t / noiseBucket)
	n := hashNormal(p.Seed, b)
	return math.Max(0.1, 1+p.NoiseAmp*n)
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
	grown := p.MeanMem + p.MemGrowthPerDay*t.Days()
	// Memory is much less volatile than CPU: small noise, no bursts.
	v := grown * (1 + 0.02*hashNormal(p.Seed^0x3333, uint64(t/sim.Hour)))
	return clamp(v, 0, 1)
}

// NetTxKbps implements vmmodel.UsageProfile.
func (p *Profile) NetTxKbps(t sim.Time) float64 {
	return math.Max(0, p.TxKbps*p.cycle(t)*p.noise(t))
}

// NetRxKbps implements vmmodel.UsageProfile.
func (p *Profile) NetRxKbps(t sim.Time) float64 {
	return math.Max(0, p.RxKbps*p.cycle(t)*p.noise(t+noiseBucket))
}

// DiskUsage implements vmmodel.UsageProfile.
func (p *Profile) DiskUsage(t sim.Time) float64 {
	// Slow, bounded growth.
	return clamp(p.DiskFrac*(1+0.002*t.Days()), 0, 1)
}

// UsageAt implements vmmodel.UsageProfile. cycle(t) and noise(t) are evaluated
// once; products keep the component methods' order, so results are bit-equal.
func (p *Profile) UsageAt(t sim.Time) vmmodel.Usage {
	c, n := p.cycle(t), p.noise(t)
	return vmmodel.Usage{
		CPU:    clamp(p.MeanCPU*c*n*p.burst(t), 0, 1.5),
		Mem:    p.MemUsage(t),
		TxKbps: math.Max(0, p.TxKbps*c*n),
		RxKbps: math.Max(0, p.RxKbps*c*p.noise(t+noiseBucket)),
		Disk:   p.DiskUsage(t),
	}
}

// AverageCPUOver estimates the profile's average CPU usage across a window
// by sampling at the given step; the analysis uses this to build Fig. 14a.
func (p *Profile) AverageCPUOver(from, to, step sim.Time) float64 {
	if step <= 0 || to <= from {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for t := from; t < to; t += step {
		sum += p.CPUUsage(t)
		n++
	}
	return sum / float64(n)
}
