package xdm

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/dom"
)

func TestAtomicStringForms(t *testing.T) {
	tests := []struct {
		v    Item
		want string
	}{
		{String("hi"), "hi"},
		{UntypedAtomic("u"), "u"},
		{Boolean(true), "true"},
		{Boolean(false), "false"},
		{Integer(-42), "-42"},
		{Double(1.5), "1.5"},
		{Double(3), "3"},
		{Double(math.Inf(1)), "INF"},
		{Double(math.Inf(-1)), "-INF"},
		{Double(math.NaN()), "NaN"},
		{DecimalFromInt(7), "7"},
		{mustDecimal(t, "3.140"), "3.14"},
		{mustDecimal(t, "-0.5"), "-0.5"},
		{AnyURI("http://x"), "http://x"},
		{QNameValue{Name: dom.QName{Prefix: "p", Local: "n"}}, "p:n"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("%s String() = %q, want %q", tt.v.Type(), got, tt.want)
		}
	}
}

func mustDecimal(t *testing.T, s string) Decimal {
	t.Helper()
	d, err := DecimalFromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDurationString(t *testing.T) {
	tests := []struct {
		d    Duration
		want string
	}{
		{Duration{Months: 14}, "P1Y2M"},
		{Duration{Nanos: 90 * 60 * 1e9}, "PT1H30M"},
		{Duration{Months: -12}, "-P1Y"},
		{Duration{}, "PT0S"},
		{Duration{Nanos: 25*3600*1e9 + 30*1e9}, "P1DT1H30S"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("Duration = %q, want %q", got, tt.want)
		}
	}
}

func TestParseDurationRoundTrip(t *testing.T) {
	for _, s := range []string{"P1Y2M", "PT1H30M", "-P1Y", "P1DT1H30S", "PT0S", "P3D", "PT0.5S"} {
		d, err := ParseDuration(s)
		if err != nil {
			t.Fatalf("ParseDuration(%q): %v", s, err)
		}
		if got := d.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	for _, s := range []string{"", "P", "1Y", "PX", "P1H", "PT1D", "-"} {
		if _, err := ParseDuration(s); err == nil {
			t.Errorf("ParseDuration(%q): expected error", s)
		}
	}
}

func TestParseDateTime(t *testing.T) {
	dt, err := ParseDateTime("2008-08-22T14:30:05", TDateTime)
	if err != nil {
		t.Fatal(err)
	}
	if dt.String() != "2008-08-22T14:30:05" {
		t.Errorf("dateTime = %q", dt.String())
	}
	z, err := ParseDateTime("2008-08-22T14:30:05Z", TDateTime)
	if err != nil {
		t.Fatal(err)
	}
	if !z.HasTZ || z.String() != "2008-08-22T14:30:05Z" {
		t.Errorf("Z form = %q HasTZ=%v", z.String(), z.HasTZ)
	}
	off, err := ParseDateTime("2008-08-22T14:30:05+02:00", TDateTime)
	if err != nil {
		t.Fatal(err)
	}
	if off.String() != "2008-08-22T14:30:05+02:00" {
		t.Errorf("offset form = %q", off.String())
	}
	d, err := ParseDateTime("2008-08-22", TDate)
	if err != nil || d.String() != "2008-08-22" {
		t.Errorf("date = %q, %v", d.String(), err)
	}
	tm, err := ParseDateTime("14:30:05", TTime)
	if err != nil || tm.String() != "14:30:05" {
		t.Errorf("time = %q, %v", tm.String(), err)
	}
	if _, err := ParseDateTime("not-a-date", TDate); err == nil {
		t.Error("expected parse error")
	}
}

func TestCastMatrix(t *testing.T) {
	tests := []struct {
		v      Item
		target Type
		want   string
		ok     bool
	}{
		{String("42"), TInteger, "42", true},
		{String(" 42 "), TInteger, "42", true},
		{String("4.2"), TDecimal, "4.2", true},
		{String("4.2e1"), TDouble, "42", true},
		{String("INF"), TDouble, "INF", true},
		{String("true"), TBoolean, "true", true},
		{String("1"), TBoolean, "true", true},
		{String("x"), TBoolean, "", false},
		{String("x"), TInteger, "", false},
		{Integer(3), TDouble, "3", true},
		{Integer(3), TDecimal, "3", true},
		{Integer(0), TBoolean, "false", true},
		{Double(3.7), TInteger, "3", true},
		{Double(-3.7), TInteger, "-3", true},
		{Double(math.NaN()), TInteger, "", false},
		{mustD("7.9"), TInteger, "7", true},
		{Boolean(true), TInteger, "1", true},
		{UntypedAtomic("5"), TInteger, "5", true},
		{Integer(9), TString, "9", true},
		{String("2008-01-02"), TDate, "2008-01-02", true},
		{String("P1Y"), TYearMonthDuration, "P1Y", true},
		{String("P1D"), TYearMonthDuration, "", false},
		{String("P1D"), TDayTimeDuration, "P1D", true},
		{String("a:b"), TQName, "a:b", true},
		{String("u"), TAnyURI, "u", true},
		{Boolean(true), TDate, "", false},
	}
	for _, tt := range tests {
		got, err := Cast(tt.v, tt.target)
		if tt.ok != (err == nil) {
			t.Errorf("Cast(%v -> %s): err = %v, want ok=%v", tt.v, tt.target, err, tt.ok)
			continue
		}
		if tt.ok && got.String() != tt.want {
			t.Errorf("Cast(%v -> %s) = %q, want %q", tt.v, tt.target, got.String(), tt.want)
		}
	}
}

func mustD(s string) Decimal {
	d, err := DecimalFromString(s)
	if err != nil {
		panic(err)
	}
	return d
}

func TestDateTimeToDateCast(t *testing.T) {
	dt, _ := ParseDateTime("2008-08-22T14:30:05", TDateTime)
	d, err := Cast(dt, TDate)
	if err != nil || d.String() != "2008-08-22" {
		t.Errorf("dateTime->date = %q, %v", d, err)
	}
	back, err := Cast(d, TDateTime)
	if err != nil || back.String() != "2008-08-22T00:00:00" {
		t.Errorf("date->dateTime = %q, %v", back, err)
	}
}

func TestCompareValues(t *testing.T) {
	tests := []struct {
		op   string
		a, b Item
		want bool
		ok   bool
	}{
		{"eq", Integer(1), Integer(1), true, true},
		{"lt", Integer(1), Double(1.5), true, true},
		{"lt", mustD("1.1"), mustD("1.2"), true, true},
		{"ge", Double(2), Integer(2), true, true},
		{"eq", String("a"), String("a"), true, true},
		{"lt", String("a"), String("b"), true, true},
		{"eq", UntypedAtomic("x"), String("x"), true, true},
		{"eq", Boolean(true), Boolean(true), true, true},
		{"lt", Boolean(false), Boolean(true), true, true},
		{"eq", String("1"), Integer(1), false, false}, // incomparable
		{"eq", AnyURI("u"), String("u"), true, true},
	}
	for _, tt := range tests {
		got, err := CompareValues(tt.op, tt.a, tt.b)
		if tt.ok != (err == nil) {
			t.Errorf("%v %s %v: err=%v", tt.a, tt.op, tt.b, err)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("%v %s %v = %v, want %v", tt.a, tt.op, tt.b, got, tt.want)
		}
	}
}

func TestCompareDates(t *testing.T) {
	d1, _ := ParseDateTime("2008-01-01", TDate)
	d2, _ := ParseDateTime("2009-01-01", TDate)
	if ok, err := CompareValues("lt", d1, d2); err != nil || !ok {
		t.Errorf("date lt: %v %v", ok, err)
	}
}

func TestGeneralCompare(t *testing.T) {
	tests := []struct {
		op   string
		a, b Sequence
		want bool
	}{
		{"=", Sequence{Integer(1), Integer(2)}, Sequence{Integer(2), Integer(9)}, true},
		{"=", Sequence{Integer(1)}, Sequence{}, false},
		{"!=", Sequence{Integer(1), Integer(2)}, Sequence{Integer(1)}, true}, // 2 != 1
		{"<", Sequence{Integer(5)}, Sequence{Integer(3), Integer(9)}, true},
		{"=", Sequence{UntypedAtomic("2")}, Sequence{Integer(2)}, true},  // untyped->double
		{"=", Sequence{UntypedAtomic("a")}, Sequence{String("a")}, true}, // untyped->string
		{">", Sequence{UntypedAtomic("10")}, Sequence{Integer(9)}, true}, // numeric not lexical
		{"=", Sequence{Double(math.NaN())}, Sequence{Double(math.NaN())}, false},
		{"!=", Sequence{Double(math.NaN())}, Sequence{Double(1)}, true},
	}
	for _, tt := range tests {
		got, err := GeneralCompareStream(tt.op, FromSlice(tt.a), tt.b)
		if err != nil {
			t.Errorf("%v %s %v: %v", tt.a, tt.op, tt.b, err)
			continue
		}
		if got != tt.want {
			t.Errorf("%v %s %v = %v, want %v", tt.a, tt.op, tt.b, got, tt.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		op   string
		a, b Item
		want string
		ok   bool
	}{
		{"+", Integer(2), Integer(3), "5", true},
		{"-", Integer(2), Integer(3), "-1", true},
		{"*", Integer(4), Integer(5), "20", true},
		{"div", Integer(10), Integer(4), "2.5", true},
		{"div", Integer(10), Integer(5), "2", true},
		{"div", Integer(1), Integer(0), "", false},
		{"idiv", Integer(10), Integer(3), "3", true},
		{"idiv", Integer(-10), Integer(3), "-3", true},
		{"mod", Integer(10), Integer(3), "1", true},
		{"+", Integer(1), Double(0.5), "1.5", true},
		{"*", mustD("1.5"), Integer(2), "3", true},
		{"div", mustD("1"), mustD("8"), "0.125", true},
		{"mod", mustD("10.5"), Integer(3), "1.5", true},
		{"+", UntypedAtomic("2"), Integer(3), "5", true},
		{"+", UntypedAtomic("x"), Integer(3), "", false},
		{"+", String("a"), Integer(3), "", false},
	}
	for _, tt := range tests {
		got, err := Arithmetic(tt.op, tt.a, tt.b)
		if tt.ok != (err == nil) {
			t.Errorf("%v %s %v: err=%v", tt.a, tt.op, tt.b, err)
			continue
		}
		if tt.ok && got.String() != tt.want {
			t.Errorf("%v %s %v = %q, want %q", tt.a, tt.op, tt.b, got.String(), tt.want)
		}
	}
}

func TestDateArithmetic(t *testing.T) {
	d, _ := ParseDateTime("2008-01-31", TDate)
	dur, _ := ParseDuration("P1D")
	got, err := Arithmetic("+", d, dur)
	if err != nil || got.String() != "2008-02-01" {
		t.Errorf("date+P1D = %v, %v", got, err)
	}
	d2, _ := ParseDateTime("2008-02-03", TDate)
	diff, err := Arithmetic("-", d2, d)
	if err != nil || diff.String() != "P3D" {
		t.Errorf("date-date = %v, %v", diff, err)
	}
	ym, _ := ParseDuration("P2M")
	got, err = Arithmetic("+", d, Duration{Months: ym.Months, Kind: TYearMonthDuration})
	if err != nil || got.String() != "2008-03-31" {
		t.Errorf("date+P2M = %v, %v", got, err)
	}
	sum, err := Arithmetic("+", dur, dur)
	if err != nil || sum.String() != "P2D" {
		t.Errorf("dur+dur = %v, %v", sum, err)
	}
	scaled, err := Arithmetic("*", dur, Integer(3))
	if err != nil || scaled.String() != "P3D" {
		t.Errorf("dur*3 = %v, %v", scaled, err)
	}
	ratio, err := Arithmetic("div", Duration{Nanos: 2 * 3600 * 1e9, Kind: TDayTimeDuration},
		Duration{Nanos: 3600 * 1e9, Kind: TDayTimeDuration})
	if err != nil || ratio.String() != "2" {
		t.Errorf("dur div dur = %v, %v", ratio, err)
	}
}

func TestNegate(t *testing.T) {
	for _, tt := range []struct {
		v    Item
		want string
	}{
		{Integer(5), "-5"},
		{Double(1.5), "-1.5"},
		{mustD("2.5"), "-2.5"},
		{Duration{Months: 12, Kind: TYearMonthDuration}, "-P1Y"},
	} {
		got, err := Negate(tt.v)
		if err != nil || got.String() != tt.want {
			t.Errorf("Negate(%v) = %v, %v", tt.v, got, err)
		}
	}
	if _, err := Negate(String("x")); err == nil {
		t.Error("Negate(string) should fail")
	}
}

func TestEffectiveBooleanValue(t *testing.T) {
	el := NewNode(dom.NewElement(dom.Name("a")))
	tests := []struct {
		s    Sequence
		want bool
		ok   bool
	}{
		{nil, false, true},
		{Sequence{Boolean(true)}, true, true},
		{Sequence{Boolean(false)}, false, true},
		{Sequence{String("")}, false, true},
		{Sequence{String("x")}, true, true},
		{Sequence{Integer(0)}, false, true},
		{Sequence{Integer(7)}, true, true},
		{Sequence{Double(math.NaN())}, false, true},
		{Sequence{el}, true, true},
		{Sequence{el, el}, true, true}, // first item node: ok
		{Sequence{Integer(1), Integer(2)}, false, false},
	}
	for i, tt := range tests {
		got, err := EffectiveBooleanValue(tt.s)
		if tt.ok != (err == nil) {
			t.Errorf("case %d: err=%v", i, err)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("case %d: EBV=%v, want %v", i, got, tt.want)
		}
	}
}

func TestAtomize(t *testing.T) {
	e := dom.NewElement(dom.Name("a"))
	_ = e.AppendChild(dom.NewText("42"))
	a := Atomize(NewNode(e))
	if a.Type() != TUntypedAtomic || a.String() != "42" {
		t.Errorf("Atomize element = %v %q", a.Type(), a.String())
	}
	c := Atomize(NewNode(dom.NewComment("x")))
	if c.Type() != TString {
		t.Errorf("Atomize comment = %v", c.Type())
	}
	if Atomize(Integer(1)) != Integer(1) {
		t.Error("Atomize atomic must pass through")
	}
}

func TestSeqTypeMatches(t *testing.T) {
	el := NewNode(dom.NewElement(dom.Name("book")))
	tests := []struct {
		st   SeqType
		s    Sequence
		want bool
	}{
		{AnySeqType, nil, true},
		{AnySeqType, Sequence{Integer(1), el}, true},
		{SeqType{Empty: true}, nil, true},
		{SeqType{Empty: true}, Sequence{Integer(1)}, false},
		{SeqType{Item: ItemTest{Atomic: TInteger}}, Sequence{Integer(1)}, true},
		{SeqType{Item: ItemTest{Atomic: TInteger}}, Sequence{String("x")}, false},
		{SeqType{Item: ItemTest{Atomic: TInteger}}, nil, false},
		{SeqType{Item: ItemTest{Atomic: TInteger}, Occ: ZeroOrOne}, nil, true},
		{SeqType{Item: ItemTest{Atomic: TInteger}, Occ: ZeroOrMore}, Sequence{Integer(1), Integer(2)}, true},
		{SeqType{Item: ItemTest{Atomic: TInteger}, Occ: OneOrMore}, nil, false},
		{SeqType{Item: ItemTest{Atomic: TDecimal}}, Sequence{Integer(1)}, true}, // derivation
		{SeqType{Item: ItemTest{AnyNode: true}}, Sequence{el}, true},
		{SeqType{Item: ItemTest{AnyNode: true}}, Sequence{Integer(1)}, false},
		{SeqType{Item: ItemTest{Kind: TElementNode}}, Sequence{el}, true},
		{SeqType{Item: ItemTest{Kind: TElementNode, HasName: true, KindName: dom.Name("book")}}, Sequence{el}, true},
		{SeqType{Item: ItemTest{Kind: TElementNode, HasName: true, KindName: dom.Name("x")}}, Sequence{el}, false},
		{SeqType{Item: ItemTest{Kind: TElementNode, HasName: true, KindName: dom.Name("*")}}, Sequence{el}, true},
	}
	for i, tt := range tests {
		if got := tt.st.Matches(tt.s); got != tt.want {
			t.Errorf("case %d (%s): %v, want %v", i, tt.st, got, tt.want)
		}
	}
}

func TestDeepEqual(t *testing.T) {
	p := func(s string) *dom.Node {
		e := dom.NewElement(dom.Name("r"))
		_ = e.AppendChild(dom.NewText(s))
		return e
	}
	if !DeepEqual(NewNode(p("a")), NewNode(p("a"))) {
		t.Error("equal trees not deep-equal")
	}
	if DeepEqual(NewNode(p("a")), NewNode(p("b"))) {
		t.Error("different trees deep-equal")
	}
	if !DeepEqual(Integer(1), Double(1)) {
		t.Error("1 and 1.0 should be deep-equal")
	}
	if !DeepEqual(Double(math.NaN()), Double(math.NaN())) {
		t.Error("NaN deep-equal NaN per fn:deep-equal")
	}
	if DeepEqual(Integer(1), NewNode(p("1"))) {
		t.Error("node vs atomic must differ")
	}
}

// Property: Cast to string then back to the original numeric type is the
// identity for integers.
func TestIntegerStringRoundTripProperty(t *testing.T) {
	f := func(n int64) bool {
		s, err := Cast(Integer(n), TString)
		if err != nil {
			return false
		}
		back, err := Cast(s, TInteger)
		return err == nil && back == Integer(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decimal arithmetic is exact: (a+b)-b == a.
func TestDecimalAddSubProperty(t *testing.T) {
	f := func(an, ad, bn, bd int32) bool {
		if ad == 0 || bd == 0 {
			return true
		}
		a := Decimal{r: big.NewRat(int64(an), int64(ad))}
		b := Decimal{r: big.NewRat(int64(bn), int64(bd))}
		sum, err := Arithmetic("+", a, b)
		if err != nil {
			return false
		}
		back, err := Arithmetic("-", sum, b)
		if err != nil {
			return false
		}
		eq, err := CompareValues("eq", back, a)
		return err == nil && eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison is antisymmetric for integers.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		lt, err1 := CompareValues("lt", Integer(a), Integer(b))
		gt, err2 := CompareValues("gt", Integer(b), Integer(a))
		return err1 == nil && err2 == nil && lt == gt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCastStringMatchesCast: a cast from a Go string is the cast of an
// xs:string holding it — the same item or the same error, whitespace
// kept for xs:string and xs:untypedAtomic and trimmed for every other
// type — and it boxes nothing but its result.
func TestCastStringMatchesCast(t *testing.T) {
	targets := []Type{TString, TUntypedAtomic, TAnyURI, TBoolean, TInteger, TDecimal, TDouble,
		TDate, TTime, TDateTime, TDuration, TYearMonthDuration, TDayTimeDuration, TQName}
	for _, s := range []string{"", " ", "1", " 42 ", "-0", "1.50", " 2e3", "INF", "NaN", "true", " 0 ",
		"x y", "2024-01-02", "12:30:00", "2024-01-02T03:04:05Z", "P1Y2M", "PT5S", "\t\n7\n"} {
		for _, target := range targets {
			want, wantErr := Cast(String(s), target)
			got, err := CastString(s, target)
			switch {
			case (err == nil) != (wantErr == nil):
				t.Errorf("CastString(%q, %s): error %v, Cast's %v", s, target, err, wantErr)
			case err != nil:
				if err.Error() != wantErr.Error() {
					t.Errorf("CastString(%q, %s): error %q, Cast's %q", s, target, err, wantErr)
				}
			case got.Type() != want.Type() || got.String() != want.String():
				t.Errorf("CastString(%q, %s) = %s %q, Cast's %s %q", s, target, got.Type(), got, want.Type(), want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = CastString(" 4200 ", TInteger) }); n > 1 {
		t.Errorf("CastString to xs:integer allocates %.0f times, want the result only", n)
	}
}
