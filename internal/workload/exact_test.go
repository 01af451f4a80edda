package workload

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

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

// TestMod24GridMatchesMathMod covers every argument cycle sees in a 30-day
// cell: the 5-minute sampling grid shifted by each generated PhaseHours.
func TestMod24GridMatchesMathMod(t *testing.T) {
	vms := 2400 // the default 30-day cell's population
	if testing.Short() {
		vms = 240
	}
	for _, in := range NewGenerator(DefaultSpec(vms, 42)).Generate() {
		ph := in.VM.Profile.(*Profile).PhaseHours
		for at := sim.Time(0); at <= 30*sim.Day; at += 5 * sim.Minute {
			x := at.Hours() + ph
			if got, want := mod24(x), math.Mod(x, hoursPerDay); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("mod24(%v) = %v, math.Mod = %v (t=%v, phase %v)", x, got, want, at, ph)
			}
		}
	}
}

// TestMod24MatchesMathMod covers seeded random arguments across the fast
// path's range and beyond it, the ulps either side of every multiple of 24
// up to 30 days + 6 h and at the range limit, and the special values.
func TestMod24MatchesMathMod(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		sameFloat(t, "mod24", mod24(x), math.Mod(x, hoursPerDay))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		-1, -24, -25.5, 1 << 40, math.Nextafter(1<<40, 0), math.Nextafter(1<<40, math.Inf(1)), 1 << 60} {
		check(x)
	}
	var edges []float64
	for k := 0; k <= 30*24+6; k += 24 {
		edges = append(edges, float64(k))
	}
	top := math.Floor((1<<40)/hoursPerDay) * hoursPerDay
	edges = append(edges, top, top-hoursPerDay)
	for _, m := range edges {
		for _, x := range []float64{m, math.Nextafter(m, 0), math.Nextafter(m, math.Inf(1))} {
			check(x)
			check(-x)
		}
	}
	rng := rand.New(rand.NewPCG(42, 24))
	for range 1_000_000 {
		switch rng.IntN(4) {
		case 0: // the cell's range: hours since epoch plus a phase
			check(rng.Float64() * (30*24 + 6))
		case 1: // anywhere in the fast path
			check(rng.Float64() * (1 << 40))
		case 2: // an integer multiple of 24 nudged by a few ulps
			m := float64(rng.IntN(1<<30)) * hoursPerDay
			check(math.Nextafter(m, m+float64(rng.IntN(3)-1)))
		default: // any bit pattern: negative, huge, subnormal, Inf, NaN
			check(math.Float64frombits(rng.Uint64()))
		}
	}
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
			fresh.memo = false
			if want := fresh.UsageAt(at); bits(got) != bits(want) {
				t.Fatalf("t=%v: memoised UsageAt = %+v, zero-memo copy = %+v", at, got, want)
			}
			if at%sim.Hour == 0 {
				sameBits(t, p, at)
			}
		}
	}
}
