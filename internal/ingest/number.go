package ingest

import (
	"math"
	"strconv"
)

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseValue32 is strconv.ParseFloat(s, 32): the same float32 value bit
// for bit, and the same acceptance and error for every string. Short plain
// decimals take scanDecimal's exact fast path; everything else (exponents,
// hex, underscores, inf/nan spellings, long mantissas, midpoints,
// malformed text) is strconv's.
func parseValue32(s string) (float64, error) {
	if v, n, ok := scanDecimal(s); ok && n == len(s) {
		return v, nil
	}
	return strconv.ParseFloat(s, 32)
}

// scanDecimal reads the plain decimal [+-]?d*[.d*] at the start of s and
// returns its value rounded to float32, as strconv.ParseFloat(s[:n], 32)
// would, and its length n. ok is false when the prefix is not one it can
// round exactly: no digits, more than 19 digits, a mantissa of 2^53 or
// more, more than 22 fraction digits, or a float64 quotient on a float32
// midpoint.
//
// This is Clinger's exact fast path (PLDI 1990): the mantissa m < 2^53
// and 10^k (k <= 22) are both exact float64s, so q = m / 10^k is the exact
// decimal correctly rounded to float64. A nonzero q lies in [1e-22, 2^53),
// inside float32's normal range, where every float32 and every midpoint
// between two adjacent float32s is itself a float64. Rounding is
// monotone, so q and the exact decimal lie on the same side of every
// midpoint, and rounding q to float32 gives the correctly rounded float32
// of the decimal, unless q sits on a midpoint itself.
func scanDecimal(s string) (v float64, n int, ok bool) {
	i, neg := 0, false
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		i, neg = 1, s[0] == '-'
	}
	start := i
	i, m := digitRun(s, i, 0)
	digits, frac := i-start, 0
	if i < len(s) && s[i] == '.' {
		start = i + 1
		i, m = digitRun(s, start, m)
		frac = i - start
		digits += frac
	}
	// Nineteen digits cannot wrap m, so the bound on m is exact.
	if digits == 0 || digits > 19 || m >= 1<<53 || frac >= len(exactPow10) {
		return 0, 0, false
	}
	q := float64(m) / exactPow10[frac]
	// Below float32's 23 fraction bits a normal float64 keeps 29 more; a
	// midpoint has exactly the top one of them set.
	if math.Float64bits(q)&(1<<29-1) == 1<<28 {
		return 0, 0, false
	}
	v = float64(float32(q))
	if neg {
		v = -v
	}
	return v, i, true
}

// digitRun reads the decimal digits of s from byte i on into m, as
// m = 10*m + digit each, and returns the index past them. m wraps past 19
// digits in all; callers reject such runs.
func digitRun(s string, i int, m uint64) (int, uint64) {
	for ; i < len(s); i++ {
		d := s[i] - '0'
		if d >= 10 {
			break
		}
		m = m*10 + uint64(d)
	}
	return i, m
}

// parseIndex is strconv.ParseUint(s, 10, 32), with one to nine decimal
// digits, which always fit, read by a plain loop.
func parseIndex(s string) (uint64, error) {
	if len(s) == 0 || len(s) > 9 {
		return strconv.ParseUint(s, 10, 32)
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d >= 10 {
			return strconv.ParseUint(s, 10, 32)
		}
		n = n*10 + uint64(d)
	}
	return n, nil
}
