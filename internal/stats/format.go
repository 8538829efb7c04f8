package stats

import (
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"
)

// pow10 holds the scale factors of the exact path: 10^19 is the largest
// power of ten below 2^64.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// AppendFixed appends v with prec digits after the decimal point: the bytes
// fmt prints for %.<prec>f, which are strconv.FormatFloat(v, 'f', prec, 64).
//
// strconv has no fast path for a fixed count of decimals and renders every
// such number through its multi-precision decimal. This computes the same
// rounding exactly in integers instead: v = mant·2^e, so v·10^prec is the
// 128-bit product mant·10^prec shifted right by -e, rounded half to even on
// the bits shifted out. NaN, ±Inf, a prec outside 0-19 and a magnitude whose
// scaled value does not fit in 64 bits fall back to strconv.
func AppendFixed(dst []byte, v float64, prec int) []byte {
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	switch {
	case exp == 0x7ff || prec < 0 || prec >= len(pow10):
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	case exp == 0:
		exp = 1 // subnormal: no implicit leading bit
	default:
		mant |= 1 << 52
	}
	n, ok := scaleRound(mant, exp-1075, pow10[prec])
	if !ok {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	if b>>63 != 0 {
		dst = append(dst, '-') // strconv keeps the sign of -0 and of values that round to 0
	}
	var buf [21]byte // 20 digits of a uint64 and the point
	i := len(buf)
	for range prec {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if prec > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// scaleRound returns mant·2^e·scale rounded half to even, and false if it
// does not fit in a uint64. mant < 2^53, so the product mant·scale is below
// 2^117.
func scaleRound(mant uint64, e int, scale uint64) (uint64, bool) {
	hi, lo := bits.Mul64(mant, scale)
	if e >= 0 {
		if hi != 0 || e >= 64 || lo>>uint(64-e) != 0 {
			return 0, false
		}
		return lo << e, true
	}
	s := uint(-e)
	var n, remHi, remLo, halfHi, halfLo uint64
	switch {
	case s >= 128: // the product is below 2^117, under half of 2^s
		return 0, true
	case s < 64:
		if hi>>s != 0 {
			return 0, false
		}
		n = lo>>s | hi<<(64-s)
		remLo, halfLo = lo&(1<<s-1), 1<<(s-1)
	default:
		n = hi >> (s - 64)
		remHi, remLo = hi&(1<<(s-64)-1), lo
		if s == 64 {
			halfLo = 1 << 63
		} else {
			halfHi = 1 << (s - 65)
		}
	}
	if remHi > halfHi || remHi == halfHi && (remLo > halfLo || remLo == halfLo && n&1 == 1) {
		n++
		if n == 0 {
			return 0, false
		}
	}
	return n, true
}

// AppendFixedSigned appends v as fmt prints %+.<prec>f: AppendFixed with a
// '+' in front of every value that does not print its own sign (NaN
// included, as fmt does).
func AppendFixedSigned(dst []byte, v float64, prec int) []byte {
	if math.IsNaN(v) || !math.Signbit(v) && !math.IsInf(v, 1) {
		dst = append(dst, '+')
	}
	return AppendFixed(dst, v, prec)
}

// AppendLeft appends s left-justified in a field of width, padding with
// spaces as fmt's %-*s does: width counts runes, and a longer s is not cut.
func AppendLeft(dst []byte, s string, width int) []byte {
	dst = append(dst, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		dst = append(dst, ' ')
	}
	return dst
}

// RightAlign right-justifies the field dst[start:] in width by inserting
// spaces before it, as fmt's %*s, %*d and %*.*f pad: append a number or a
// string, then align what was appended.
func RightAlign(dst []byte, start, width int) []byte {
	pad := width - utf8.RuneCount(dst[start:])
	if pad <= 0 {
		return dst
	}
	for range pad {
		dst = append(dst, ' ')
	}
	copy(dst[start+pad:], dst[start:len(dst)-pad])
	for i := start; i < start+pad; i++ {
		dst[i] = ' '
	}
	return dst
}
