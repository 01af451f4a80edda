package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// detmathDigest is the SHA-256 of the ports' output bits on the seeded
// arguments of detmathCases, in order. The ports promise the same bits on
// every port, and CI checks this pin on amd64 and 386.
const detmathDigest = "43b0963356c3056cefa00854bbea849ab71c440f2d7e47e0f24f43d1c5ed7911"

// detmathCase is one port with the math function it follows.
type detmathCase struct {
	name     string
	port, of func(float64) float64
	// draw maps a uniform u in [0, 1) to an argument the model passes.
	draw func(u float64) float64
}

// detmathCases cover the model's arguments: exp gets σ·N(0,1) for the
// log-normal draws (σ ≤ 1.2, N in the ziggurat's reach), log gets 1−u for the
// arrival gaps, and sin and cos get the hour-of-day and phase angles, which
// lie in (−2π, 2π). Each scaling is rounded before its sum, so the inputs are
// the same on every port too.
var detmathCases = []detmathCase{
	{"exp", exp, math.Exp, func(u float64) float64 { return float64(u*40) - 20 }},
	{"log", log, math.Log, func(u float64) float64 { return 1 - u }},
	{"sin", sin, math.Sin, func(u float64) float64 { return float64(u*4*math.Pi) - 2*math.Pi }},
	{"cos", cos, math.Cos, func(u float64) float64 { return float64(u*4*math.Pi) - 2*math.Pi }},
}

// detmathInputs is the number of seeded arguments per function.
const detmathInputs = 25_000

// forEachInput calls fn on detmathInputs seeded arguments of detmathCases[i].
func forEachInput(i int, fn func(x float64)) {
	c := detmathCases[i]
	rng := rand.New(rand.NewPCG(53, uint64(i)))
	for range detmathInputs {
		fn(c.draw(rng.Float64()))
	}
}

// TestDetmathDigest pins the ports' output bits over 10⁵ seeded arguments.
func TestDetmathDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for i, c := range detmathCases {
		forEachInput(i, func(x float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c.port(x)))
			h.Write(buf[:])
		})
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != detmathDigest {
		t.Errorf("detmath output digest %s, pinned %s", got, detmathDigest)
	}
}

// ulps is the distance between a and b in units in the last place: the
// number of float64 values from one to the other.
func ulps(a, b float64) uint64 {
	ordered := func(x float64) int64 {
		bits := int64(math.Float64bits(x))
		if bits < 0 {
			bits = math.MinInt64 - bits
		}
		return bits
	}
	d := ordered(a) - ordered(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// expReference is e**x correctly rounded, from its Taylor series in 300-bit
// arithmetic: for |x| ≤ 20 the series' cancellation costs under 60 bits.
func expReference(x float64) float64 {
	const prec = 300
	bx := new(big.Float).SetPrec(prec).SetFloat64(x)
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for n := int64(1); n < 400; n++ {
		term.Mul(term, bx)
		term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(n))
		sum.Add(sum, term)
	}
	f, _ := sum.Float64()
	return f
}

// TestDetmathWithinOneUlp checks each port against the math function it
// follows: within one ulp (math's own result differs by that much between
// ports) over the digest's arguments and the edges of each domain, and
// exactly on the special values. One exception: math.Exp's FMA assembly on
// amd64 and the port can land on either side of the correctly rounded value
// (6 of the 25,000 seeded arguments on an FMA-capable CPU), so there exp may
// be 2 ulps from math if it is within one of expReference.
func TestDetmathWithinOneUlp(t *testing.T) {
	edges := map[string][]float64{
		"exp": {0x1p-28, -0x1p-28, math.Ln2 / 2, -math.Ln2 / 2, 1, -1, 20, -20},
		"log": {0x1p-53, 0x1p-1022, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Sqrt2, math.MaxFloat64, 0.5, 2},
		"sin": {math.Pi / 4, -math.Pi / 4, math.Pi / 2, math.Pi, 2 * math.Pi, 1e6, math.Nextafter(trigDomain, 0)},
	}
	edges["cos"] = edges["sin"]
	for i, c := range detmathCases {
		worst, far := uint64(0), 0
		check := func(x float64) {
			d := ulps(c.port(x), c.of(x))
			if d == 2 && c.name == "exp" && math.Abs(x) <= 20 && ulps(c.port(x), expReference(x)) <= 1 {
				d, far = 1, far+1 // math.Exp is off the other way
			}
			if d > 1 {
				t.Fatalf("%s(%v) = %v, math: %v (%d ulps)", c.name, x, c.port(x), c.of(x), d)
			}
			worst = max(worst, d)
		}
		forEachInput(i, check)
		for _, x := range edges[c.name] {
			check(x)
		}
		t.Logf("%s: %d arguments, at most %d ulp from math; %d more at 2 ulps, math on the other side of the correctly rounded value",
			c.name, detmathInputs+len(edges[c.name]), worst, far)
	}
	negZero := math.Copysign(0, -1)
	specials := map[string][]float64{
		"exp": {math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, 710, -746},
		"log": {math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, -1, 1},
		"sin": {math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero},
	}
	specials["cos"] = specials["sin"]
	for _, c := range detmathCases {
		for _, x := range specials[c.name] {
			got, want := c.port(x), c.of(x)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s(%v) = %v, math: %v", c.name, x, got, want)
			}
		}
	}
	// Beyond the domain sin and cos return NaN rather than reduce.
	for _, x := range []float64{trigDomain, -trigDomain, math.MaxFloat64} {
		if !math.IsNaN(sin(x)) || !math.IsNaN(cos(x)) {
			t.Errorf("sin(%v) = %v, cos = %v; want NaN beyond the domain", x, sin(x), cos(x))
		}
	}
}
