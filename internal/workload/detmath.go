// Portions of this file are ported from the Go standard library's math
// package (exp.go, log.go, sin.go): Copyright 2009 and 2011 The Go Authors.
// All rights reserved. Use of that source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution.
//
// exp and log came to Go from FreeBSD's msun (e_exp.c, e_log.c) with these
// notices:
//
// ====================================================
// Copyright (C) 2004 by Sun Microsystems, Inc. All rights reserved.
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// sin and cos came to Go from the Cephes Math Library
// (http://netlib.sandia.gov/cephes/cmath/sin.c) by Stephen L. Moshier.

package workload

import "math"

// The model's transcendental functions. math.Exp and math.Log are assembly
// on amd64, and math.Exp there takes a fused multiply-add path on CPUs that
// have one, so their bits depend on the machine. These are the pure-Go
// versions the other ports run, with the same operations in the same order,
// and each product that feeds a sum is rounded by an explicit conversion so
// that no compiler may fuse the two: one input gives the same bits on every
// port.

// horner evaluates c[0]·x^(n−1) + c[1]·x^(n−2) + … + c[n−1], rounding each
// product before its sum.
func horner(x float64, c ...float64) float64 {
	p := c[0]
	for _, ci := range c[1:] {
		p = float64(p*x) + ci
	}
	return p
}

// exp returns e**x (math's pure-Go exp).
func exp(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		log2e = 1.44269504088896338700e+00

		overflow  = 7.09782712893383973096e+02
		underflow = -7.45133219101941108420e+02
		nearZero  = 1.0 / (1 << 28) // 2**-28

		p1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		p2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		p3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		p4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		p5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	case x < underflow:
		return 0
	case -nearZero < x && x < nearZero:
		return 1 + x
	}

	// Reduce to x = k·ln2 + r, computed as r = hi − lo for extra precision.
	var k int
	switch {
	case x < 0:
		k = int(float64(log2e*x) - 0.5)
	case x > 0:
		k = int(float64(log2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*ln2Hi)
	lo := float64(float64(k) * ln2Lo)

	r := hi - lo
	t := r * r
	c := r - float64(t*horner(t, p5, p4, p3, p2, p1))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return math.Ldexp(y, k)
}

// log returns the natural logarithm of x (math's pure-Go log).
func log(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
		ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
		l1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
		l2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
		l3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
		l4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
		l5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
		l6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
		l7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}

	// Reduce to x = 2**k · (1+f) with √2/2 < 1+f < √2.
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)

	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * horner(s4, l7, l5, l3, l1))
	t2 := float64(s4 * horner(s4, l6, l4, l2))
	R := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*ln2Lo))) - f)
}

// trigDomain bounds the arguments sin and cos accept: below it, the
// three-part reduction by π/4 is accurate (math's reduceThreshold). The port
// leaves out math's Payne–Hanek reduction of larger arguments; the model
// reduces its angles into (−2π, 2π) first.
const trigDomain = 1 << 29

// octant reduces 0 ≤ x < trigDomain to the octant j (0..7, odd octants
// mapped to the next even one) and the remainder z, |z| ≤ π/4, of
// x = j·π/4 + z.
func octant(x float64) (j uint64, z float64) {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	j = uint64(float64(x * (4 / math.Pi)))
	y := float64(j)
	if j&1 == 1 {
		j++
		y++
	}
	j &= 7
	return j, ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)
}

// sinPoly and cosPoly are the Cephes polynomials for sin z and cos z on
// |z| ≤ π/4.
func sinPoly(z float64) float64 {
	zz := z * z
	return z + float64(z*zz*horner(zz,
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	))
}

func cosPoly(z float64) float64 {
	zz := z * z
	return 1.0 - float64(0.5*zz) + float64(zz*zz*horner(zz,
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	))
}

// cos returns the cosine of x (math's pure-Go cos) for |x| < trigDomain, and
// NaN outside it.
func cos(x float64) float64 {
	x = math.Abs(x)
	if !(x < trigDomain) { // NaN, ±Inf or beyond the domain
		return math.NaN()
	}
	j, z := octant(x)
	sign := false
	if j > 3 {
		j -= 4
		sign = !sign
	}
	if j > 1 {
		sign = !sign
	}
	var y float64
	if j == 1 || j == 2 {
		y = sinPoly(z)
	} else {
		y = cosPoly(z)
	}
	if sign {
		y = -y
	}
	return y
}

// sin returns the sine of x (math's pure-Go sin) for |x| < trigDomain, and
// NaN outside it; sin(±0) is ±0.
func sin(x float64) float64 {
	if x == 0 {
		return x
	}
	sign := false
	if x < 0 {
		x = -x
		sign = true
	}
	if !(x < trigDomain) {
		return math.NaN()
	}
	j, z := octant(x)
	if j > 3 {
		sign = !sign
		j -= 4
	}
	var y float64
	if j == 1 || j == 2 {
		y = cosPoly(z)
	} else {
		y = sinPoly(z)
	}
	if sign {
		y = -y
	}
	return y
}
