package tle

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendLines appends the element set's two canonical 69-column lines
// (checksums included), each terminated by a newline, and returns the
// extended buffer. Values outside field ranges are an error rather than
// silently truncated, because an encoder that corrupts trajectories would
// be worse than none; on error dst is returned unextended.
//
// The bytes are those of the classic printf layout
//
//	1 %05d%c %-8s %02d%012.8f %s %s %s %1d %4d<checksum>
//	2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f%5d<checksum>
//
// built with strconv instead of fmt: the fixed-point fields go through
// appendFixed, which matches strconv's 'f' digit for digit.
func (t *TLE) AppendLines(dst []byte) ([]byte, error) {
	if t.CatalogNumber < 0 || t.CatalogNumber > 99999 {
		return dst, fmt.Errorf("tle: catalog number %d outside 5-digit field", t.CatalogNumber)
	}
	if t.Eccentricity < 0 || t.Eccentricity >= 1 {
		return dst, fmt.Errorf("tle: eccentricity %v outside [0,1)", t.Eccentricity)
	}
	if t.MeanMotion < 0 || t.MeanMotion >= 100 {
		return dst, fmt.Errorf("tle: mean motion %v outside field range", t.MeanMotion)
	}
	at := t.Epoch.UTC()
	year := at.Year()
	if year < 1957 || year > 2056 {
		return dst, fmt.Errorf("tle: epoch year %d outside NORAD two-digit window [1957,2056]", year)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"mean motion ddot", t.MeanMotionDDot}, {"B*", t.BStar}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return dst, fmt.Errorf("tle: %s %v is not finite", f.name, f.v)
		}
	}
	cls := t.Classification
	if cls == 0 {
		cls = 'U'
	}
	out := dst

	start := len(out)
	out = append(out, '1', ' ')
	out = appendInt(out, t.CatalogNumber, 5, true)
	out = utf8.AppendRune(out, rune(cls))
	out = append(out, ' ')
	out = append(out, t.IntlDesignator...)
	for n := utf8.RuneCountInString(t.IntlDesignator); n < 8; n++ {
		out = append(out, ' ')
	}
	out = append(out, ' ')
	out = appendInt(out, year%100, 2, true)
	jan1 := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
	out = appendFloat(out, 1+at.Sub(jan1).Seconds()/86400, 12, 8, true)
	out = append(out, ' ')
	out = appendSignedDecimal(out, t.MeanMotionDot)
	out = append(out, ' ')
	out = appendExpField(out, t.MeanMotionDDot)
	out = append(out, ' ')
	out = appendExpField(out, t.BStar)
	out = append(out, ' ')
	out = appendInt(out, t.EphemerisType, 1, false)
	out = append(out, ' ')
	out = appendInt(out, t.ElementSet%10000, 4, false)
	out = append(out, byte('0'+checksum(out[start:])))
	if n := len(out) - start; n != 69 {
		return dst, fmt.Errorf("tle: internal error: line 1 is %d columns", n)
	}
	out = append(out, '\n')

	start = len(out)
	out = append(out, '2', ' ')
	out = appendInt(out, t.CatalogNumber, 5, true)
	out = append(out, ' ')
	out = appendFloat(out, float64(t.Inclination), 8, 4, false)
	out = append(out, ' ')
	out = appendFloat(out, float64(t.RAAN.Normalize360()), 8, 4, false)
	out = append(out, ' ')
	out = appendInt(out, int(math.Round(t.Eccentricity*1e7)), 7, true)
	out = append(out, ' ')
	out = appendFloat(out, float64(t.ArgPerigee.Normalize360()), 8, 4, false)
	out = append(out, ' ')
	out = appendFloat(out, float64(t.MeanAnomaly.Normalize360()), 8, 4, false)
	out = append(out, ' ')
	out = appendFloat(out, float64(t.MeanMotion), 11, 8, false)
	out = appendInt(out, t.RevNumber%100000, 5, false)
	out = append(out, byte('0'+checksum(out[start:])))
	if n := len(out) - start; n != 69 {
		return dst, fmt.Errorf("tle: internal error: line 2 is %d columns", n)
	}
	return append(out, '\n'), nil
}

// Format encodes the element set as the canonical two 69-column lines
// (checksums included), without newlines.
func (t *TLE) Format() (line1, line2 string, err error) {
	var buf [140]byte
	b, err := t.AppendLines(buf[:0])
	if err != nil {
		return "", "", err
	}
	return string(b[:69]), string(b[70:139]), nil
}

// String renders the 3LE form (name line plus the two element lines) when a
// name is present, otherwise just the two lines.
func (t *TLE) String() string {
	var buf [256]byte
	b := buf[:0]
	if t.Name != "" {
		b = append(append(b, t.Name...), '\n')
	}
	b, err := t.AppendLines(b)
	if err != nil {
		return fmt.Sprintf("tle<error: %v>", err)
	}
	return string(b[:len(b)-1])
}

// appendInt appends n right-aligned in width columns like printf's %Nd
// (spaces) or %0Nd (zeros after any sign); wider values are not cut.
func appendInt(dst []byte, n, width int, zero bool) []byte {
	var tmp [24]byte
	return appendPadded(dst, strconv.AppendInt(tmp[:0], int64(n), 10), width, zero)
}

// appendFloat appends v with prec decimals right-aligned in width columns
// like printf's %W.Pf or %0W.Pf. NaN and infinities pad with spaces even
// when zero-padding, as fmt does.
func appendFloat(dst []byte, v float64, width, prec int, zero bool) []byte {
	var tmp [32]byte
	s := appendFixed(tmp[:0], v, prec)
	return appendPadded(dst, s, width, zero && !math.IsNaN(v) && !math.IsInf(v, 0))
}

// appendPadded appends s padded on the left to width, with zeros placed
// after a leading sign when zero is set.
func appendPadded(dst, s []byte, width int, zero bool) []byte {
	pad := width - len(s)
	fill := byte(' ')
	if zero {
		fill = '0'
		if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
			dst = append(dst, s[0])
			s = s[1:]
		}
	}
	for ; pad > 0; pad-- {
		dst = append(dst, fill)
	}
	return append(dst, s...)
}

// appendSignedDecimal encodes the ndot/2 field, e.g. " .00002182": %.8f of
// the magnitude with one leading "0" dropped, signed by v itself.
func appendSignedDecimal(dst []byte, v float64) []byte {
	sign := byte(' ')
	if v < 0 {
		sign = '-'
	}
	dst = append(dst, sign)
	var tmp [32]byte
	s := appendFixed(tmp[:0], math.Abs(v), 8)
	if s[0] == '0' {
		s = s[1:]
	}
	return append(dst, s...)
}

// appendExpField encodes the implied-decimal exponent notation used by the
// B* and nddot/6 fields: 0.34123e-4 -> " 34123-4". v must be finite.
func appendExpField(dst []byte, v float64) []byte {
	if v == 0 {
		return append(dst, " 00000+0"...)
	}
	sign := byte(' ')
	if v < 0 {
		sign = '-'
		v = -v
	}
	// Normalize to mantissa in [0.1, 1).
	exp := 0
	for v >= 1 {
		v /= 10
		exp++
	}
	for v < 0.1 {
		v *= 10
		exp--
	}
	mant := int(math.Round(v * 1e5))
	if mant >= 100000 { // rounding pushed us to 1.0
		mant = 10000
		exp++
	}
	// Clamp: drag terms this extreme do not occur; keep the field legal.
	exp = max(-9, min(9, exp))
	expSign := byte('+')
	if exp < 0 {
		expSign = '-'
		exp = -exp
	}
	dst = append(dst, sign)
	dst = appendInt(dst, mant, 5, true)
	return append(dst, expSign, byte('0'+exp))
}

// pow10 holds the powers of ten a float64 represents exactly that
// decimalExponent compares against; negPow10[k] is the float64 nearest
// 10^-k.
var (
	pow10    = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}
	negPow10 = [...]float64{1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 1e-17}
)

// decimalExponent estimates floor(log10(a)) for a > 0. It is exact for
// a >= 1; below 1 the table entries are rounded, so it may be one off,
// which appendFixed detects and corrects.
func decimalExponent(a float64) int {
	e := 0
	for e+1 < len(pow10) && a >= pow10[e+1] {
		e++
	}
	for a < 1 && -e < len(negPow10) && a < negPow10[-e] {
		e--
	}
	return e
}

// appendFixed appends strconv.AppendFloat(dst, v, 'f', prec, 64) without
// its cost: 'f' with an explicit precision always runs the multiprecision
// decimal conversion, while 'e' with at most 18 digits runs the Ryū
// fixed-precision path. Both round the exact binary value to nearest, ties
// to even, so asking 'e' for exactly the digits 'f' prints and re-laying
// them out gives the same bytes. Zero, NaN, infinities and values whose
// digits start below the last printed decimal (or that need more than 18
// digits) take strconv's 'f' directly.
func appendFixed(dst []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if a == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	var buf [32]byte
	e := decimalExponent(a)
	digits, x, ok := expDigits(buf[:0], a, e+prec)
	if ok && x != e {
		// Either the estimate was one off, or rounding at exponent e
		// carried into a new digit (9.99996 at 4 decimals is 1.0000e+01).
		// Ask again at the reported exponent: if that rounds back below
		// it, the carry was real and the value is 10^x, one zero longer
		// than the first answer.
		var buf2 [32]byte
		d2, x2, ok2 := expDigits(buf2[:0], a, x+prec)
		switch {
		case ok2 && x2 == x:
			digits, e = d2, x
		case ok2 && x2 == x-1 && x == e+1:
			digits, e = append(digits, '0'), x
		default:
			ok = false
		}
	}
	if !ok {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	if v < 0 {
		dst = append(dst, '-')
	}
	if e < 0 {
		// 0.000ddd: -e-1 zeros after the point, then every digit.
		dst = append(dst, '0')
		if prec > 0 {
			dst = append(dst, '.')
		}
		for i := 0; i < -e-1; i++ {
			dst = append(dst, '0')
		}
		return append(dst, digits...)
	}
	dst = append(dst, digits[:e+1]...)
	if prec > 0 {
		dst = append(dst, '.')
		dst = append(dst, digits[e+1:]...)
	}
	return dst
}

// expDigits formats a (> 0, finite) in 'e' notation with p decimals and
// returns the p+1 significant digits (decimal point dropped) and the
// decimal exponent. ok is false when p is outside [0, 17], where 'e' would
// leave the Ryū fast path or the value rounds below the first decimal.
func expDigits(dst []byte, a float64, p int) (digits []byte, exp int, ok bool) {
	if p < 0 || p > 17 {
		return nil, 0, false
	}
	s := strconv.AppendFloat(dst, a, 'e', p, 64)
	// s is d[.ddd]e±XX.
	i := len(s) - 1
	for s[i] != 'e' {
		i--
	}
	for _, c := range s[i+2:] {
		exp = exp*10 + int(c-'0')
	}
	if s[i+1] == '-' {
		exp = -exp
	}
	digits = s[:i]
	if p > 0 {
		// Drop the decimal point in place: d.ddd -> dddd.
		copy(digits[1:], digits[2:])
		digits = digits[:i-1]
	}
	return digits, exp, true
}
