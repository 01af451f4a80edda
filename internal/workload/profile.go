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

	// Grid memo, used only by UsageAt: the Rx draw of 5-minute bucket rxKey,
	// which is the next tick's CPU draw, and the memory draw of hour memKey,
	// each key a memoKey; a zero key holds nothing. Draws are pure in (Seed,
	// bucket), so a cold memo yields the same bits; a Profile is not safe for
	// concurrent UsageAt calls.
	rxKey, memKey uint32
	rx, mem       float64

	// cosPhi and sinPhi are the cosine and sine of the phase angle
	// φ = 2π·PhaseHours/24, set by cycle on first use; both are zero until
	// then, which no angle's pair is. With the 32-bit keys and no flags, a
	// Profile fits the 144-byte allocation class it had before it carried φ.
	cosPhi, sinPhi float64
}

// memoKey is the memo key of bucket index b: its low 32 bits, plus one so
// that zero means empty. Bucket indices of int64 nanoseconds span fewer than
// 2^32 values even by the 5 minutes, so two buckets never share a key; the
// one bucket whose key wraps to zero is simply never memoised.
func memoKey(b uint64) uint32 { return uint32(b) + 1 }

const (
	noiseBucket = 5 * sim.Minute // noise/burst correlation time
	hoursPerDay = 24.0
)

// Clock is the time-only part of usage at one instant: every term the usage
// methods derive from t alone. A host sweep evaluates many residents at one
// sampling instant, so it builds one Clock with ClockAt and passes it to each
// resident's UsageAtClock.
type Clock struct {
	days float64
	// cosTheta and sinTheta are the cosine and sine of the hour-of-day angle
	// θ = 2π(h − 13)/24, h being the hour of the day: the diurnal cycle
	// peaks at 13:00.
	cosTheta, sinTheta float64
	// weekend is set on Saturdays and Sundays.
	weekend bool
	// b, rb and h are the 5-minute, next-5-minute and hour bucket indices;
	// mb, mrb and mh are their splitmix64 hashes, the inner hash of every
	// hashUnit(seed, bucket) draw on that bucket.
	b, rb, h    uint64
	mb, mrb, mh uint64
	// diskGrowth is the disk fraction's growth factor, 1+0.002·days.
	diskGrowth float64
}

// ClockAt returns the Clock of instant t.
func ClockAt(t sim.Time) Clock {
	b, rb, h := uint64(t/noiseBucket), uint64((t+noiseBucket)/noiseBucket), uint64(t/sim.Hour)
	// The epoch (2024-07-31) is a Wednesday (weekday 2 with 0=Monday), so
	// days 3,4 (Sat/Sun), 10,11, ... are weekends.
	weekday := (2 + int(t/sim.Day)) % 7 // 0=Mon ... 5=Sat, 6=Sun
	days := t.Days()
	// The whole days come off in integer time, exactly, so θ rounds the
	// same way on every day.
	tod := t % sim.Day
	if tod < 0 {
		tod += sim.Day
	}
	theta := float64(float64(tod-13*sim.Hour) / float64(sim.Day) * (2 * math.Pi))
	return Clock{
		days: days, cosTheta: cos(theta), sinTheta: sin(theta), weekend: weekday >= 5,
		b: b, rb: rb, h: h, mb: splitmix64(b), mrb: splitmix64(rb), mh: splitmix64(h),
		// Slow, bounded growth.
		diskGrowth: 1 + float64(0.002*days),
	}
}

// cycle returns the diurnal+weekly demand multiplier at c.
func (p *Profile) cycle(c *Clock) float64 {
	if p.cosPhi == 0 && p.sinPhi == 0 {
		// Reduced mod 24 h first, so φ lies in (−2π, 2π).
		phi := float64(math.Mod(p.PhaseHours, hoursPerDay) / hoursPerDay * (2 * math.Pi))
		p.cosPhi, p.sinPhi = cos(phi), sin(phi)
	}
	// Working-hours bump: cosine dipped at night, peaked at 13:00 shifted
	// by the phase, cos(θ + φ) by angle addition.
	wave := float64(c.cosTheta*p.cosPhi) - float64(c.sinTheta*p.sinPhi)
	day := 1 + float64(p.DiurnalAmp*wave)
	if c.weekend {
		day *= 1 - p.WeekendDip
	}
	return day
}

// noiseOf scales a noise draw n into the factor, floored at 0.1. The branch
// is math.Max(0.1, v) without the call; a NaN passes through as NaN.
func (p *Profile) noiseOf(n float64) float64 {
	v := 1 + float64(p.NoiseAmp*n)
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

// burst returns the burst multiplier at c (1 when no burst is active).
func (p *Profile) burst(c *Clock) float64 {
	if hashUnit(p.Seed^0xb0b0, c.mb) < p.BurstProb {
		return p.BurstMag
	}
	return 1
}

// memOf is the memory fraction at c given the hour's noise draw n.
func (p *Profile) memOf(c *Clock, n float64) float64 {
	grown := p.MeanMem + float64(p.MemGrowthPerDay*c.days)
	// Memory is much less volatile than CPU: small noise, no bursts.
	return clamp(grown*(1+float64(0.02*n)), 0, 1)
}

// disk is the disk fraction at c.
func (p *Profile) disk(c *Clock) float64 {
	return clamp(p.DiskFrac*c.diskGrowth, 0, 1)
}

// UsageAt implements vmmodel.UsageProfile: it is UsageAtClock at ClockAt(t).
// A caller that evaluates many profiles at one instant, as the host
// snapshot does, builds the Clock once and calls UsageAtClock for each.
func (p *Profile) UsageAt(t sim.Time) vmmodel.Usage {
	c := ClockAt(t)
	return p.UsageAtClock(&c)
}

// UsageAtClock is the usage at c's instant. cycle and the 5-minute noise are
// evaluated once, and the grid memo serves the CPU draw (the previous call's
// Rx draw) and the hourly memory draw, so every call yields the bits a cold
// Profile would. CPU may exceed 1 (up to 1.5): demand beyond the allocation.
// Rx noise is the next 5-minute bucket's draw.
func (p *Profile) UsageAtClock(c *Clock) vmmodel.Usage {
	nb := p.rx
	if k := memoKey(c.b); k == 0 || p.rxKey != k {
		nb = hashNormal(p.Seed, c.mb)
	}
	if k := memoKey(c.rb); k == 0 || p.rxKey != k {
		p.rx, p.rxKey = hashNormal(p.Seed, c.mrb), k
	}
	if k := memoKey(c.h); k == 0 || p.memKey != k {
		p.mem, p.memKey = hashNormal(p.Seed^0x3333, c.mh), k
	}
	cy, n := p.cycle(c), p.noiseOf(nb)
	return vmmodel.Usage{
		CPU:    clamp(p.MeanCPU*cy*n*p.burst(c), 0, 1.5),
		Mem:    p.memOf(c, p.mem),
		TxKbps: floor0(p.TxKbps * cy * n),
		RxKbps: floor0(p.RxKbps * cy * p.noiseOf(p.rx)),
		Disk:   p.disk(c),
	}
}
