package tle

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/units"
)

// ReferenceFormat is the fmt-based encoder AppendLines replaced, kept as
// the oracle the append encoder must match byte for byte and error for
// error. It is exported for the external fleet test.
//
// Two inputs are outside the oracle's domain: an infinite B* or nddot/6
// loops forever in its exponent normalization, and a NaN one converts
// NaN to int, whose value the Go spec leaves to the platform.
func ReferenceFormat(t *TLE) (line1, line2 string, err error) {
	if t.CatalogNumber < 0 || t.CatalogNumber > 99999 {
		return "", "", fmt.Errorf("tle: catalog number %d outside 5-digit field", t.CatalogNumber)
	}
	if t.Eccentricity < 0 || t.Eccentricity >= 1 {
		return "", "", fmt.Errorf("tle: eccentricity %v outside [0,1)", t.Eccentricity)
	}
	if t.MeanMotion < 0 || t.MeanMotion >= 100 {
		return "", "", fmt.Errorf("tle: mean motion %v outside field range", t.MeanMotion)
	}
	cls := t.Classification
	if cls == 0 {
		cls = 'U'
	}
	epoch, err := refEpoch(t.Epoch)
	if err != nil {
		return "", "", err
	}
	l1 := fmt.Sprintf("1 %05d%c %-8s %s %s %s %s %1d %4d",
		t.CatalogNumber, cls, t.IntlDesignator, epoch,
		refSignedDecimal(t.MeanMotionDot),
		refExpField(t.MeanMotionDDot),
		refExpField(t.BStar),
		t.EphemerisType, t.ElementSet%10000)
	l1 = fmt.Sprintf("%s%d", l1, Checksum(l1))
	if len(l1) != 69 {
		return "", "", fmt.Errorf("tle: internal error: line 1 is %d columns", len(l1))
	}

	ecc := fmt.Sprintf("%07d", int(math.Round(t.Eccentricity*1e7)))
	l2 := fmt.Sprintf("2 %05d %8.4f %8.4f %s %8.4f %8.4f %11.8f%5d",
		t.CatalogNumber,
		float64(t.Inclination), float64(t.RAAN.Normalize360()), ecc,
		float64(t.ArgPerigee.Normalize360()), float64(t.MeanAnomaly.Normalize360()),
		float64(t.MeanMotion), t.RevNumber%100000)
	l2 = fmt.Sprintf("%s%d", l2, Checksum(l2))
	if len(l2) != 69 {
		return "", "", fmt.Errorf("tle: internal error: line 2 is %d columns", len(l2))
	}
	return l1, l2, nil
}

func refEpoch(at time.Time) (string, error) {
	at = at.UTC()
	year := at.Year()
	if year < 1957 || year > 2056 {
		return "", fmt.Errorf("tle: epoch year %d outside NORAD two-digit window [1957,2056]", year)
	}
	yy := year % 100
	jan1 := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
	doy := 1 + at.Sub(jan1).Seconds()/86400
	return fmt.Sprintf("%02d%012.8f", yy, doy), nil
}

func refSignedDecimal(v float64) string {
	s := fmt.Sprintf("%.8f", math.Abs(v))
	s = strings.TrimPrefix(s, "0")
	if v < 0 {
		return "-" + s
	}
	return " " + s
}

func refExpField(v float64) string {
	if v == 0 {
		return " 00000+0"
	}
	sign := " "
	if v < 0 {
		sign = "-"
		v = -v
	}
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
	if mant >= 100000 {
		mant = 10000
		exp++
	}
	if exp > 9 || exp < -9 {
		if exp > 9 {
			exp = 9
		} else {
			exp = -9
		}
	}
	expSign := "+"
	if exp < 0 {
		expSign = "-"
		exp = -exp
	}
	return fmt.Sprintf("%s%05d%s%d", sign, mant, expSign, exp)
}

// finiteExpFields reports whether t is inside ReferenceFormat's domain.
func finiteExpFields(t *TLE) bool {
	for _, v := range []float64{t.MeanMotionDDot, t.BStar} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// checkAgainstReference fails tb unless AppendLines, Format and String
// agree with the oracle on t: the same bytes, or the same error message.
// Outside the oracle's domain the encoder must refuse.
func checkAgainstReference(tb testing.TB, t *TLE) {
	tb.Helper()
	got, err := t.AppendLines([]byte("prefix"))
	if !finiteExpFields(t) {
		if err == nil {
			tb.Fatalf("non-finite exponent field encoded: %+v\n%q", t, got)
		}
		return
	}
	w1, w2, werr := ReferenceFormat(t)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		tb.Fatalf("error mismatch for %+v:\n got %v\nwant %v", t, err, werr)
	}
	if err != nil {
		if string(got) != "prefix" {
			tb.Fatalf("failed encode extended dst: %q", got)
		}
		return
	}
	if want := "prefix" + w1 + "\n" + w2 + "\n"; string(got) != want {
		tb.Fatalf("bytes mismatch for %+v:\n got %q\nwant %q", t, got, want)
	}
	if l1, l2, err := t.Format(); err != nil || l1 != w1 || l2 != w2 {
		tb.Fatalf("Format = %q, %q, %v; want %q, %q", l1, l2, err, w1, w2)
	}
	want := w1 + "\n" + w2
	if t.Name != "" {
		want = t.Name + "\n" + want
	}
	if s := t.String(); s != want {
		tb.Fatalf("String = %q, want %q", s, want)
	}
}

// FuzzEncodeMatchesReference drives every encoded field: the append
// encoder must produce the oracle's bytes, or its exact error.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add(44713, byte('U'), "19074A", int64(1577836800), int64(0), 1e-5, 0.0, 4e-4, 0, 999, 53.0, 120.5, 0.0001, 90.0, 270.0, 15.05, 12345)
	f.Add(0, byte(0), "", int64(-410227200), int64(1), 0.0, 0.0, 0.0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
	f.Add(99999, byte('C'), "98067ABCD", int64(2000000000), int64(999999999), -0.99999999, -1e-12, -0.11606e-4, 9, -9999, -0.0, 359.99995, 0.99999995, -720.5, 9.99995, 99.999999999, -99999)
	f.Add(1, byte(0xC8), "über", int64(946684799), int64(500000000), math.NaN(), 5e-324, 1e300, -1, 10000, math.NaN(), math.Inf(1), math.NaN(), math.Inf(-1), 1e-9, math.NaN(), 100000)
	f.Fuzz(func(t *testing.T, cat int, cls byte, desig string, sec, nsec int64, ndot, nddot, bstar float64,
		ephem, elset int, incl, raan, ecc, argp, ma, mm float64, rev int) {
		checkAgainstReference(t, &TLE{
			CatalogNumber:  cat,
			Classification: cls,
			IntlDesignator: desig,
			Epoch:          time.Unix(sec, nsec%1e9).UTC(),
			MeanMotionDot:  ndot,
			MeanMotionDDot: nddot,
			BStar:          bstar,
			EphemerisType:  ephem,
			ElementSet:     elset,
			Inclination:    units.Degrees(incl),
			RAAN:           units.Degrees(raan),
			Eccentricity:   ecc,
			ArgPerigee:     units.Degrees(argp),
			MeanAnomaly:    units.Degrees(ma),
			MeanMotion:     units.RevsPerDay(mm),
			RevNumber:      rev,
		})
	})
}

// TestEncodeEdgeCases pins the fields where a hand-rolled encoder goes
// wrong: signs, negative zero, rounding carries, values below the first
// printed decimal, and every range and width error.
func TestEncodeEdgeCases(t *testing.T) {
	base := func() *TLE {
		tl, err := Parse(issLine1, issLine2)
		if err != nil {
			t.Fatal(err)
		}
		tl.Name = "ISS (ZARYA)"
		return tl
	}
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		edit func(*TLE)
	}{
		{"iss", func(*TLE) {}},
		{"negative ndot", func(tl *TLE) { tl.MeanMotionDot = -0.00002182 }},
		{"negative zero ndot", func(tl *TLE) { tl.MeanMotionDot = negZero }},
		{"tiny ndot rounds to zero", func(tl *TLE) { tl.MeanMotionDot = 4e-9 }},
		{"tiny ndot rounds up", func(tl *TLE) { tl.MeanMotionDot = 6e-9 }},
		{"tiny negative ndot", func(tl *TLE) { tl.MeanMotionDot = -3e-12 }},
		{"ndot carries to one", func(tl *TLE) { tl.MeanMotionDot = 0.999999996 }},
		{"ndot too large", func(tl *TLE) { tl.MeanMotionDot = 12.5 }},
		{"negative nddot and bstar", func(tl *TLE) { tl.MeanMotionDDot, tl.BStar = -1.23456e-7, -0.99999 }},
		{"negative zero bstar", func(tl *TLE) { tl.BStar = negZero }},
		{"bstar mantissa carry", func(tl *TLE) { tl.BStar = 0.999996e-3 }},
		{"bstar exponent clamp", func(tl *TLE) { tl.BStar, tl.MeanMotionDDot = 1e20, 1e-20 }},
		{"inclination carry", func(tl *TLE) { tl.Inclination = 9.99995 }},
		{"inclination carry below", func(tl *TLE) { tl.Inclination = 9.999949999 }},
		{"inclination 99.99996", func(tl *TLE) { tl.Inclination = 99.99996 }},
		{"negative inclination", func(tl *TLE) { tl.Inclination = -5.25 }},
		{"negative zero inclination", func(tl *TLE) { tl.Inclination = units.Degrees(negZero) }},
		{"inclination too wide", func(tl *TLE) { tl.Inclination = 1234.5 }},
		{"tiny inclination", func(tl *TLE) { tl.Inclination = 4e-5 }},
		{"NaN inclination", func(tl *TLE) { tl.Inclination = units.Degrees(math.NaN()) }},
		{"infinite raan", func(tl *TLE) { tl.RAAN = units.Degrees(math.Inf(1)) }},
		{"raan wraps to 360", func(tl *TLE) { tl.RAAN = 359.99996 }},
		{"negative raan normalizes", func(tl *TLE) { tl.RAAN = -0.00001 }},
		{"mean motion carry", func(tl *TLE) { tl.MeanMotion = 9.999999996 }},
		{"mean motion just under 100", func(tl *TLE) { tl.MeanMotion = 99.999999996 }},
		{"mean motion NaN", func(tl *TLE) { tl.MeanMotion = units.RevsPerDay(math.NaN()) }},
		{"tiny mean motion", func(tl *TLE) { tl.MeanMotion = 1e-10 }},
		{"eccentricity rounds to field overflow", func(tl *TLE) { tl.Eccentricity = 0.99999996 }},
		{"eccentricity out of range", func(tl *TLE) { tl.Eccentricity = 1 }},
		{"negative eccentricity", func(tl *TLE) { tl.Eccentricity = -1e-9 }},
		{"catalog out of range", func(tl *TLE) { tl.CatalogNumber = 100000 }},
		{"negative catalog", func(tl *TLE) { tl.CatalogNumber = -1 }},
		{"mean motion out of range", func(tl *TLE) { tl.MeanMotion = 100 }},
		{"negative mean motion", func(tl *TLE) { tl.MeanMotion = -1 }},
		{"epoch before 1957", func(tl *TLE) { tl.Epoch = time.Date(1956, 12, 31, 23, 59, 59, 0, time.UTC) }},
		{"epoch after 2056", func(tl *TLE) { tl.Epoch = time.Date(2057, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"epoch last instant of a leap year", func(tl *TLE) { tl.Epoch = time.Date(2024, 12, 31, 23, 59, 59, 999999999, time.UTC) }},
		{"epoch in another zone", func(tl *TLE) { tl.Epoch = tl.Epoch.In(time.FixedZone("x", -7*3600)) }},
		{"designator over-long", func(tl *TLE) { tl.IntlDesignator = "98067ABCD" }},
		{"designator multibyte", func(tl *TLE) { tl.IntlDesignator = "é98067" }},
		{"designator empty", func(tl *TLE) { tl.IntlDesignator = "" }},
		{"classification non-ascii", func(tl *TLE) { tl.Classification = 0xC8 }},
		{"classification default", func(tl *TLE) { tl.Classification = 0 }},
		{"negative element set", func(tl *TLE) { tl.ElementSet = -999 }},
		{"element set too negative", func(tl *TLE) { tl.ElementSet = -9999 }},
		{"element set wraps", func(tl *TLE) { tl.ElementSet = 123456 }},
		{"negative ephemeris type", func(tl *TLE) { tl.EphemerisType = -1 }},
		{"two-digit ephemeris type", func(tl *TLE) { tl.EphemerisType = 10 }},
		{"negative rev number", func(tl *TLE) { tl.RevNumber = -5 }},
		{"rev number too negative", func(tl *TLE) { tl.RevNumber = -12345 }},
		{"no name", func(tl *TLE) { tl.Name = "" }},
		{"infinite bstar", func(tl *TLE) { tl.BStar = math.Inf(-1) }},
		{"NaN nddot", func(tl *TLE) { tl.MeanMotionDDot = math.NaN() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tl := base()
			c.edit(tl)
			checkAgainstReference(t, tl)
		})
	}
}

// TestAppendFixedMatchesStrconv checks the fixed-point helper against
// strconv's 'f' on random bit patterns, on the neighbours of every power
// of ten and on decimal midpoints, at both precisions the encoder uses.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var vals []float64
	for k := -20; k <= 20; k++ {
		p := math.Pow(10, float64(k))
		for _, v := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1))} {
			vals = append(vals, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
		}
		for _, prec := range []int{4, 8} {
			// 0.5 ulp below and above each power at the printed precision.
			h := 0.5 * math.Pow(10, float64(-prec))
			vals = append(vals, p-h, p+h, math.Nextafter(p-h, 0), math.Nextafter(p-h, 2*p))
		}
	}
	for i := 0; i < 1000; i++ {
		// Mostly far outside the fast path: they must fall back cleanly.
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	n := 50000
	if RaceEnabled {
		n = 5000
	}
	for i := 0; i < n; i++ {
		vals = append(vals,
			rng.Float64()*math.Pow(10, float64(rng.Intn(24)-12)),
			float64(rng.Intn(1e9))/1e8+0.000000005, // decimal midpoints at 8 places
			float64(rng.Intn(1e7))/1e4+0.00005)     // decimal midpoints at 4 places
	}
	for _, v := range vals {
		for _, prec := range []int{0, 4, 8} {
			for _, x := range []float64{v, -v} {
				want := strconv.AppendFloat(nil, x, 'f', prec, 64)
				if got := appendFixed(nil, x, prec); string(got) != string(want) {
					t.Fatalf("appendFixed(%v (%#x), %d) = %q, want %q", x, math.Float64bits(x), prec, got, want)
				}
			}
		}
	}
}

func BenchmarkAppendLines(b *testing.B) {
	tl, err := Parse(issLine1, issLine2)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 160)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if buf, err = tl.AppendLines(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceFormat(b *testing.B) {
	tl, err := Parse(issLine1, issLine2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReferenceFormat(tl); err != nil {
			b.Fatal(err)
		}
	}
}
