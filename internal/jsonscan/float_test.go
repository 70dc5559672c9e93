package jsonscan

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// floatBoundaries sit on the edges of Float's exact path: ±0, the 2^53
// mantissa limit, the exact powers of ten (10^22) and the 10^15 integers
// that may take more (10^37), 19 and 20 significant digits (including
// 20-digit mantissas that wrap a uint64 to a small value), runs of
// leading and trailing zeros, capped exponents (alone, and offset by a
// 10,000-digit fraction so the capped part would cancel it), and the
// float64 range.
var floatBoundaries = []string{
	`0`, `-0`, `-0.0e5`, `0e400`, `-0.000e-400`,
	`9007199254740991`, `9007199254740992`, `9007199254740993`, `-9007199254740993`,
	`9007199254740993e-1`, `18014398509481985e-1`, `9007199254740991e-22`, `9007199254740993e-22`,
	`1e22`, `1e23`, `-1e22`, `1e-22`, `1e-23`, `0.1e-22`, `0.1e-21`,
	`123456789012345e22`, `1234567890123456e22`, `123456789012345e23`, `1234567890123456e23`,
	`1e37`, `1.0e37`, `10e36`, `1e38`, `1000000000000000e37`, `999999999999999e22`,
	`999999999999999e37`, `9007199254740991e23`, `4503599627370497e30`, `8999999999999999e25`,
	`1234567890123456789`, `1234567890123456789e-5`, `9999999999999999999`, `9999999999999999999e-20`,
	`12345678901234567890`, `18446744073709551617`, `18446744073709551617e-3`, `1844674407370955.1617e4`,
	`18446744073709551616000`, `99999999999999999999`,
	`0.000000000000000000000000000001`, `0.00000000000000000000012345`, `-0.0000000000000000000001`,
	`1.00000000000000000000000000`, `100000000000000000000000000000`, `12300000000000000000000e-20`,
	`0.30000000000000000000000000000000000000000000000000001`,
	`1e0000000000000000000001`, `1e-0000000000000000000022`, `1e99999999999999999999`, `1e-99999999999999999999`,
	`1e400`, `-1e400`, `1e-400`, `5e-324`, `4.9e-324`, `2.4703282292062327e-324`,
	`2.2250738585072014e-308`, `1.7976931348623157e308`, `1.7976931348623158e308`, `1.7976931348623159e308`,
	`0.1`, `0.2`, `0.3`, `0.02995`, `0.26255`, `3.9409547499999746`, `1.5e-7`, `1E+2`, `1e-0`,
	longFrac + `1e1000000`, longFrac + `1e1002200`, longFrac + `1e1003700`, `-` + longFrac + `1e1000000`,
	longFrac + `1e10000`, longFrac + `1e0000010000`, longFrac + `1e-1000000`, longFrac + `0e1000000`,
}

// longFrac is "0." and 9,999 zeros: a fraction that puts the digit
// after it at 10^-10000.
var longFrac = "0." + strings.Repeat("0", 9999)

// randDecimal draws a JSON number with 1–20 significant digits, either
// sign, a decimal point anywhere (or none), optional leading zeros in
// the fraction, and a value exponent — the power of ten on the digits
// read as an integer — in [-40, 40], written through an exponent part
// whenever the point placement does not already give it. One draw in
// eight that starts with "0." has about 10,000 leading zeros instead;
// half of those append digits to the exponent, so it is capped while
// its first five digits still cancel the fraction.
func randDecimal(r *xrand.Rand) string {
	var b strings.Builder
	if r.Intn(2) == 0 {
		b.WriteByte('-')
	}
	nd := 1 + r.Intn(20)
	digits := make([]byte, nd)
	digits[0] = byte('1' + r.Intn(9))
	for k := 1; k < nd; k++ {
		digits[k] = byte('0' + r.Intn(10))
	}
	exp := r.Intn(81) - 40
	frac := 0  // digits written after the point
	tail := "" // digits appended to the exponent part
	switch k := r.Intn(nd + 1); {
	case k == nd:
		b.Write(digits)
	case k == 0:
		b.WriteString("0.")
		z := r.Intn(4)
		if r.Intn(8) == 0 {
			z = 9950 + r.Intn(100)
			if r.Intn(2) == 0 {
				tail = strconv.Itoa(r.Intn(1000))
			}
		}
		b.WriteString(strings.Repeat("0", z))
		b.Write(digits)
		frac = z + nd
	default:
		b.Write(digits[:k])
		b.WriteByte('.')
		b.Write(digits[k:])
		frac = nd - k
	}
	if e := exp + frac; e != 0 || tail != "" || r.Intn(4) == 0 {
		b.WriteByte("eE"[r.Intn(2)])
		if e < 0 {
			b.WriteByte('-')
			e = -e
		} else if r.Intn(2) == 0 {
			b.WriteByte('+')
		}
		b.WriteString(strconv.Itoa(e))
		b.WriteString(tail)
	}
	return b.String()
}

// TestFloatMatchesParseFloat: Float accepts exactly the numbers
// strconv.ParseFloat parses in range and yields the same bits, on the
// exact path's boundaries and on 100k seeded random decimals.
func TestFloatMatchesParseFloat(t *testing.T) {
	check := func(doc string) {
		t.Helper()
		want, wantErr := strconv.ParseFloat(doc, 64)
		var s Scanner
		s.Reset([]byte(doc), "test")
		got, err := s.Float("a number")
		if err == nil {
			err = s.End()
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: Float error %v, strconv.ParseFloat error %v", doc, err, wantErr)
		}
		if err == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Float = %v (%#x), strconv.ParseFloat = %v (%#x)", doc, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, doc := range floatBoundaries {
		check(doc)
	}
	r := xrand.New(29)
	for n := 0; n < 100000; n++ {
		check(randDecimal(r))
	}
}

// floatShapes are the number forms a predict body carries: a short
// counter rate, a 17-digit shortest-form value and an exponent form.
var floatShapes = []struct{ name, doc string }{
	{"rate", `0.02995`},
	{"digits17", `3.9409547499999746`},
	{"exp", `1.5e-7`},
}

// BenchmarkFloat times one Float per shape (one op = one number): the
// short rate and the exponent form take the exact path, the 17-digit
// value falls back to strconv.ParseFloat.
func BenchmarkFloat(b *testing.B) {
	for _, sh := range floatShapes {
		doc := []byte(sh.doc)
		b.Run(sh.name, func(b *testing.B) {
			var s Scanner
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Reset(doc, "bench")
				if _, err := s.Float("a number"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFloatAllocs: parsing a number allocates nothing, on the exact
// path or off it.
func TestFloatAllocs(t *testing.T) {
	for _, sh := range floatShapes {
		doc := []byte(sh.doc)
		var s Scanner
		allocs := testing.AllocsPerRun(100, func() {
			s.Reset(doc, "test")
			if _, err := s.Float("a number"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per Float, want 0", sh.name, allocs)
		}
	}
}
