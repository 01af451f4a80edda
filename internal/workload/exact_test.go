package workload

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
	"unsafe"

	"sapsim/internal/sim"
	"sapsim/internal/vmmodel"
)

// sameFloat fails unless got and want are the same float64 bit pattern.
func sameFloat(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// closedFormCycle is cycle as it was before the angle addition: one cosine
// of the phase-shifted hour of day, reduced mod 24 h, per evaluation.
func closedFormCycle(p *Profile, t sim.Time) float64 {
	hour := math.Mod(t.Hours()+p.PhaseHours, hoursPerDay)
	day := 1 + p.DiurnalAmp*math.Cos((hour-13)/hoursPerDay*2*math.Pi)
	if weekday := (2 + int(t/sim.Day)) % 7; weekday >= 5 {
		day *= 1 - p.WeekendDip
	}
	return day
}

// TestCycleMatchesClosedForm checks the angle-addition cycle against the
// closed form on every 5-minute instant of 30 days, weekends included, for
// 64 seeded phases in [0, 6) with the generator's largest amplitude and
// weekend dip: the two differ by rounding alone, at most 1e-12 relative.
func TestCycleMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 64))
	worst, weekends, weekdays := 0.0, 0, 0
	for range 64 {
		p := &Profile{DiurnalAmp: 0.40, WeekendDip: 0.35, PhaseHours: rng.Float64() * 6}
		for at := sim.Time(0); at <= 30*sim.Day; at += 5 * sim.Minute {
			c := ClockAt(at)
			if c.weekend {
				weekends++
			} else {
				weekdays++
			}
			got, want := p.cycle(&c), closedFormCycle(p, at)
			rel := math.Abs(got-want) / want
			if !(rel <= 1e-12) {
				t.Fatalf("phase %v, t=%v: cycle = %v, closed form = %v (relative difference %.3g)", p.PhaseHours, at, got, want, rel)
			}
			worst = max(worst, rel)
		}
	}
	if weekends == 0 || weekdays == 0 {
		t.Fatalf("%d weekend and %d weekday instants: both kinds must be covered", weekends, weekdays)
	}
	t.Logf("largest relative difference %.3g over %d instants (%d on weekends)", worst, weekends+weekdays, weekends)
}

// TestFloorBranchesMatchMathMax pins the branch floors to math.Max on the
// values where the two could part: NaN, signed zeros, infinities and
// subnormals, plus the 0.1 threshold's neighbours. A NaN stays NaN; only its
// payload may differ (math.Max returns the canonical one, the branch passes
// its input through), and no profile with finite parameters produces one.
func TestFloorBranchesMatchMathMax(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	same := func(t *testing.T, what string, v, got, want float64) {
		t.Helper()
		if math.IsNaN(want) && math.IsNaN(got) {
			return
		}
		sameFloat(t, what+"("+strconv.FormatFloat(v, 'g', -1, 64)+")", got, want)
	}
	vals := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), tiny, -tiny,
		0x1p-1022 - tiny, -(0x1p-1022 - tiny), 0.1, math.Nextafter(0.1, 0), math.Nextafter(0.1, 1), -0.9, 1, -1,
		math.MaxFloat64, -math.MaxFloat64}
	for _, v := range vals {
		same(t, "floor0", v, floor0(v), math.Max(0, v))
		for _, amp := range []float64{1, 0, -1, 0.5, math.Inf(1), math.NaN()} {
			p := &Profile{NoiseAmp: amp}
			same(t, "noiseOf", v, p.noiseOf(v), math.Max(0.1, 1+amp*v))
		}
	}
}

// TestUsageAtMemoMatchesFresh replays the access patterns the engine makes —
// the 5-minute host grid, 1-minute off-grid reads, repeated reads at one
// instant, and backwards jumps such as a restore re-entering at an earlier
// instant — plus negative instants, and compares each memoised UsageAt with
// a zero-memo copy of the same profile.
func TestUsageAtMemoMatchesFresh(t *testing.T) {
	var profiles []*Profile
	for _, in := range NewGenerator(DefaultSpec(40, 7)).Generate()[:8] {
		profiles = append(profiles, in.VM.Profile.(*Profile))
	}
	profiles = append(profiles, &Profile{Seed: 9, MeanCPU: 0.9, MeanMem: 0.99, DiurnalAmp: 1, WeekendDip: 1,
		PhaseHours: 23.5, NoiseAmp: 2, BurstProb: 0.5, BurstMag: 4, MemGrowthPerDay: 0.01, TxKbps: 1e6, RxKbps: 1})
	var walk []sim.Time
	for at := sim.Time(0); at <= 30*sim.Day; at += 5 * sim.Minute {
		walk = append(walk, at)
	}
	for at := sim.Time(0); at <= 2*sim.Day; at += sim.Minute {
		walk = append(walk, at, at)
	}
	// Negative instants never occur in a cell, but the memo must not care:
	// buckets truncate towards zero, so there the Rx bucket can equal t's.
	for at := -2 * sim.Hour; at <= sim.Hour; at += sim.Minute {
		walk = append(walk, at, -1, at-1)
	}
	rng := rand.New(rand.NewPCG(7, 26))
	for at := 20 * sim.Day; len(walk) < 40_000; {
		walk = append(walk, at)
		switch rng.IntN(4) {
		case 0: // restore re-entering up to a day earlier, on or off the grid
			at -= sim.Time(rng.Int64N(int64(sim.Day)))
		case 1:
			at += sim.Time(rng.Int64N(int64(sim.Hour)))
		default:
			at += 5 * sim.Minute
		}
	}
	bits := func(u vmmodel.Usage) [5]uint64 {
		return [5]uint64{math.Float64bits(u.CPU), math.Float64bits(u.Mem), math.Float64bits(u.TxKbps),
			math.Float64bits(u.RxKbps), math.Float64bits(u.Disk)}
	}
	for _, p := range profiles {
		for _, at := range walk {
			got := p.UsageAt(at)
			fresh := *p
			fresh.rxKey, fresh.memKey = 0, 0
			if want := fresh.UsageAt(at); bits(got) != bits(want) {
				t.Fatalf("t=%v: memoised UsageAt = %+v, zero-memo copy = %+v", at, got, want)
			}
			if at%sim.Hour == 0 {
				matchesReference(t, p, at)
			}
		}
	}
}

// TestProfileSize keeps a Profile in the 144-byte allocation class: a
// generated VM holds one for its lifetime, so a churn cell's live heap
// grows with every class it climbs.
func TestProfileSize(t *testing.T) {
	if got := unsafe.Sizeof(Profile{}); got > 144 {
		t.Errorf("Profile is %d bytes, over the 144-byte class", got)
	}
}
