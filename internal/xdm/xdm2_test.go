package xdm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// Second batch: deeper casting-matrix coverage, duration/date-time
// behaviour, and comparison properties.

func TestCastMatrixPairwise(t *testing.T) {
	// For each (value, target) pair the outcome must be deterministic
	// and — when it succeeds — re-castable to string and back without
	// changing the value ("cast stability").
	values := []Item{
		String("42"), String("x"), UntypedAtomic("1.5"), Boolean(true),
		Integer(-7), mustD("2.25"), Double(1.5e10), AnyURI("http://x"),
	}
	targets := []Type{TString, TUntypedAtomic, TBoolean, TInteger,
		TDecimal, TDouble, TAnyURI}
	for _, v := range values {
		for _, target := range targets {
			out1, err1 := Cast(v, target)
			out2, err2 := Cast(v, target)
			if (err1 == nil) != (err2 == nil) {
				t.Errorf("Cast(%v→%s) not deterministic", v, target)
				continue
			}
			if err1 != nil {
				continue
			}
			if out1.String() != out2.String() {
				t.Errorf("Cast(%v→%s) unstable: %q vs %q", v, target, out1, out2)
			}
			// String round trip.
			s, err := Cast(out1, TString)
			if err != nil {
				t.Errorf("Cast(%v→string): %v", out1, err)
				continue
			}
			back, err := Cast(s, target)
			if err != nil {
				t.Errorf("Cast(%q→%s) failed after round trip: %v", s, target, err)
				continue
			}
			if back.String() != out1.String() {
				t.Errorf("round trip %v→%s: %q != %q", v, target, back, out1)
			}
		}
	}
}

func TestTimezoneArithmetic(t *testing.T) {
	a, _ := ParseDateTime("2008-01-01T12:00:00+02:00", TDateTime)
	b, _ := ParseDateTime("2008-01-01T10:00:00Z", TDateTime)
	// Same instant.
	eq, err := CompareValues("eq", a, b)
	if err != nil || !eq {
		t.Errorf("tz-normalised equality: %v %v", eq, err)
	}
	diff, err := Arithmetic("-", a, b)
	if err != nil || diff.String() != "PT0S" {
		t.Errorf("tz diff = %v, %v", diff, err)
	}
}

func TestDurationNormalisation(t *testing.T) {
	// Adding day-time to year-month produces a generic duration.
	ym, _ := ParseDuration("P1Y")
	dt, _ := ParseDuration("P1D")
	ymT, _ := Cast(ym, TYearMonthDuration)
	dtT, _ := Cast(dt, TDayTimeDuration)
	sum, err := Arithmetic("+", ymT, dtT)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Type() != TDuration || sum.String() != "P1Y1D" {
		t.Errorf("mixed sum = %s (%s)", sum, sum.Type())
	}
	// Subtracting back isolates each component.
	back, err := Arithmetic("-", sum, dtT)
	if err != nil || back.Type() != TYearMonthDuration {
		t.Errorf("back = %v (%v), %v", back, back.Type(), err)
	}
}

func TestNegativeDurationRendering(t *testing.T) {
	d, err := ParseDuration("-P1DT2H")
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "-P1DT2H" {
		t.Errorf("negative duration = %s", d.String())
	}
	n, err := Negate(d)
	if err != nil || n.String() != "P1DT2H" {
		t.Errorf("negated = %v, %v", n, err)
	}
}

func TestDoubleLexicalForms(t *testing.T) {
	tests := []struct {
		f    float64
		want string
	}{
		{0, "0"},
		{-0.5, "-0.5"},
		{1e21, "1e+21"},
		{123456789, "123456789"},
	}
	for _, tt := range tests {
		if got := Double(tt.f).String(); got != tt.want {
			t.Errorf("Double(%v) = %q, want %q", tt.f, got, tt.want)
		}
	}
}

func TestDecimalCanonicalString(t *testing.T) {
	cases := map[string]string{
		"1.500":   "1.5",
		"0.50":    "0.5",
		"-2.0":    "-2",
		"10":      "10",
		"0.125":   "0.125",
		"000.250": "0.25",
	}
	for in, want := range cases {
		d, err := DecimalFromString(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.String(); got != want {
			t.Errorf("Decimal(%q) = %q, want %q", in, got, want)
		}
	}
	// Scientific notation is NOT valid xs:decimal.
	if _, err := DecimalFromString("1e3"); err == nil {
		t.Error("1e3 must not parse as decimal")
	}
}

func TestGeneralCompareCrossTypeErrors(t *testing.T) {
	// Comparing incompatible concrete types is an error, not false.
	if _, err := GeneralCompareStream("=", FromSlice(Sequence{Integer(1)}), Sequence{Boolean(true)}); err == nil {
		t.Error("integer vs boolean must error")
	}
	// But untyped coerces to either side.
	ok, err := GeneralCompareStream("=", FromSlice(Sequence{UntypedAtomic("true")}), Sequence{Boolean(true)})
	if err != nil || !ok {
		t.Errorf("untyped vs boolean: %v %v", ok, err)
	}
	d, _ := ParseDateTime("2008-01-01", TDate)
	ok, err = GeneralCompareStream("=", FromSlice(Sequence{UntypedAtomic("2008-01-01")}), Sequence{d})
	if err != nil || !ok {
		t.Errorf("untyped vs date: %v %v", ok, err)
	}
}

func TestCompareForSortTotalOverDoublesWithNaN(t *testing.T) {
	items := []Item{Double(math.NaN()), Double(-1), Double(0), Double(1), Double(math.Inf(1))}
	for i := range items {
		for j := range items {
			c, err := CompareForSort(items[i], items[j])
			if err != nil {
				t.Fatalf("CompareForSort(%v,%v): %v", items[i], items[j], err)
			}
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// NaN vs NaN is equal; NaN sorts first.
			if c != want {
				t.Errorf("CompareForSort(%v,%v) = %d, want %d", items[i], items[j], c, want)
			}
		}
	}
}

func TestParseDateTimeRejectsGarbage(t *testing.T) {
	bad := []string{"", "2008", "2008-13-01", "2008-01-32", "24:00:61",
		"2008-01-01T", "not a date", "2008/01/01"}
	for _, s := range bad {
		if _, err := ParseDateTime(s, TDate); err == nil {
			if _, err2 := ParseDateTime(s, TDateTime); err2 == nil {
				t.Errorf("ParseDateTime(%q) should fail", s)
			}
		}
	}
}

func TestFractionalSeconds(t *testing.T) {
	dt, err := ParseDateTime("2008-01-01T00:00:00.5", TDateTime)
	if err != nil {
		t.Fatal(err)
	}
	half, _ := ParseDuration("PT0.5S")
	sum, err := Arithmetic("+", dt, half)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sum.String(), "2008-01-01T00:00:01") {
		t.Errorf("fractional add = %s", sum)
	}
}

// Property: integer arithmetic matches Go semantics for + - *.
func TestIntegerArithmeticProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := int64(a), int64(b)
		sum, err1 := Arithmetic("+", Integer(x), Integer(y))
		dif, err2 := Arithmetic("-", Integer(x), Integer(y))
		prd, err3 := Arithmetic("*", Integer(x), Integer(y))
		return err1 == nil && err2 == nil && err3 == nil &&
			sum == Integer(x+y) && dif == Integer(x-y) && prd == Integer(x*y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: duration parse/format round trip for day-time durations.
func TestDurationRoundTripProperty(t *testing.T) {
	f := func(hours uint16, minutes, seconds uint8) bool {
		d := Duration{
			Nanos: time.Duration(hours)*time.Hour +
				time.Duration(minutes%60)*time.Minute +
				time.Duration(seconds%60)*time.Second,
			Kind: TDayTimeDuration,
		}
		parsed, err := ParseDuration(d.String())
		return err == nil && parsed.Nanos == d.Nanos && parsed.Months == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EffectiveBooleanValue of a singleton string equals
// (len > 0).
func TestEBVStringProperty(t *testing.T) {
	f := func(s string) bool {
		got, err := EffectiveBooleanValue(Sequence{String(s)})
		return err == nil && got == (len(s) > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
