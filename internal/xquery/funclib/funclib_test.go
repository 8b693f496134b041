package funclib

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

// call invokes a built-in directly.
func call(t *testing.T, local string, args ...xdm.Sequence) (xdm.Sequence, error) {
	t.Helper()
	reg := runtime.NewRegistry()
	Register(reg)
	f := reg.Lookup(dom.QName{Space: parser.FnNamespace, Local: local}, len(args))
	if f == nil {
		t.Fatalf("no function fn:%s/%d", local, len(args))
	}
	ctx := &runtime.Context{Run: &runtime.Run{Now: time.Date(2009, 4, 20, 10, 30, 0, 0, time.UTC)}}
	return f.Invoke(ctx, args)
}

func mustCall(t *testing.T, local string, args ...xdm.Sequence) xdm.Sequence {
	t.Helper()
	res, err := call(t, local, args...)
	if err != nil {
		t.Fatalf("fn:%s: %v", local, err)
	}
	return res
}

func one(v xdm.Item) xdm.Sequence { return xdm.Sequence{v} }

func TestRegistrySize(t *testing.T) {
	reg := runtime.NewRegistry()
	Register(reg)
	if n := len(reg.All()); n < 90 {
		t.Errorf("registered %d functions, want at least 90", n)
	}
}

func TestSubstringEdgeCases(t *testing.T) {
	// XPath substring uses rounded positions and handles NaN/infinite.
	tests := []struct {
		args []xdm.Sequence
		want string
	}{
		{[]xdm.Sequence{one(xdm.String("motor car")), one(xdm.Double(6))}, " car"},
		{[]xdm.Sequence{one(xdm.String("metadata")), one(xdm.Double(4)), one(xdm.Double(3))}, "ada"},
		{[]xdm.Sequence{one(xdm.String("12345")), one(xdm.Double(1.5)), one(xdm.Double(2.6))}, "234"},
		{[]xdm.Sequence{one(xdm.String("12345")), one(xdm.Double(0)), one(xdm.Double(3))}, "12"},
		{[]xdm.Sequence{one(xdm.String("12345")), one(xdm.Double(-3))}, "12345"},
	}
	for _, tt := range tests {
		got := mustCall(t, "substring", tt.args...)
		if got[0].String() != tt.want {
			t.Errorf("substring = %q, want %q", got[0].String(), tt.want)
		}
	}
}

func TestStringFunctionsOnEmpty(t *testing.T) {
	// Most string functions treat the empty sequence as "".
	if got := mustCall(t, "string-length", xdm.Sequence{}); got[0].String() != "0" {
		t.Errorf("string-length(()) = %v", got)
	}
	if got := mustCall(t, "upper-case", xdm.Sequence{}); got[0].String() != "" {
		t.Errorf("upper-case(()) = %v", got)
	}
	if got := mustCall(t, "concat", xdm.Sequence{}, one(xdm.String("x"))); got[0].String() != "x" {
		t.Errorf("concat((), x) = %v", got)
	}
}

func TestCurrentDateTimeUsesContextNow(t *testing.T) {
	got := mustCall(t, "current-dateTime")
	if !strings.HasPrefix(got[0].String(), "2009-04-20T10:30:00") {
		t.Errorf("current-dateTime = %s", got[0])
	}
	d := mustCall(t, "current-date")
	if d[0].String() != "2009-04-20" {
		t.Errorf("current-date = %s", d[0])
	}
}

func TestNumericEdgeCases(t *testing.T) {
	// round on negative halves rounds toward positive infinity.
	if got := mustCall(t, "round", one(xdm.Double(-2.5))); got[0].String() != "-2" {
		t.Errorf("round(-2.5) = %s", got[0])
	}
	// floor/ceiling keep the operand type.
	if got := mustCall(t, "floor", one(xdm.Integer(5))); got[0].Type() != xdm.TInteger {
		t.Errorf("floor(int) type = %s", got[0].Type())
	}
	if got := mustCall(t, "ceiling", one(xdm.Double(1.2))); got[0].Type() != xdm.TDouble {
		t.Errorf("ceiling(double) type = %s", got[0].Type())
	}
	// round-half-to-even with precision.
	got := mustCall(t, "round-half-to-even",
		one(mustDecimal(t, "3.567812")), one(xdm.Integer(2)))
	if got[0].String() != "3.57" {
		t.Errorf("round-half-to-even = %s", got[0])
	}
	// Empty sequences propagate.
	if got := mustCall(t, "abs", xdm.Sequence{}); len(got) != 0 {
		t.Errorf("abs(()) = %v", got)
	}
}

func mustDecimal(t *testing.T, s string) xdm.Decimal {
	t.Helper()
	d, err := xdm.DecimalFromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAggregatesMixedTypes(t *testing.T) {
	// sum promotes across the numeric tower.
	got := mustCall(t, "sum", xdm.Sequence{xdm.Integer(1), mustDecimal(t, "0.5"), xdm.Double(0.25)})
	if got[0].String() != "1.75" {
		t.Errorf("sum = %s", got[0])
	}
	// sum of untyped casts to double.
	got = mustCall(t, "sum", xdm.Sequence{xdm.UntypedAtomic("2"), xdm.UntypedAtomic("3")})
	if got[0].String() != "5" {
		t.Errorf("untyped sum = %s", got[0])
	}
	// sum with a zero-value override.
	got = mustCall(t, "sum", xdm.Sequence{}, one(xdm.Double(0)))
	if got[0].Type() != xdm.TDouble {
		t.Errorf("sum((), 0e0) type = %s", got[0].Type())
	}
	// sum of strings errors.
	if _, err := call(t, "sum", xdm.Sequence{xdm.String("x")}); err == nil {
		t.Error("sum of strings must fail")
	}
	// min/max on dates.
	d1, _ := xdm.ParseDateTime("2008-01-01", xdm.TDate)
	d2, _ := xdm.ParseDateTime("2009-01-01", xdm.TDate)
	got = mustCall(t, "min", xdm.Sequence{d2, d1})
	if got[0].String() != "2008-01-01" {
		t.Errorf("min(dates) = %s", got[0])
	}
	// avg of durations.
	dur1, _ := xdm.ParseDuration("PT2H")
	dur2, _ := xdm.ParseDuration("PT4H")
	got = mustCall(t, "avg", xdm.Sequence{dur1, dur2})
	if got[0].String() != "PT3H" {
		t.Errorf("avg(durations) = %s", got[0])
	}
}

func TestDistinctValuesSemantics(t *testing.T) {
	// 1 and 1.0 are the same value; "1" (string) is different.
	got := mustCall(t, "distinct-values",
		xdm.Sequence{xdm.Integer(1), xdm.Double(1), xdm.String("1"), mustDecimal(t, "1.0")})
	if len(got) != 2 {
		t.Errorf("distinct-values = %v", got)
	}
	// NaN equals itself for distinct-values purposes (one survivor).
	nan := xdm.Double(0)
	nanSeq := mustCall(t, "number", one(xdm.String("not-a-number")))
	nan = nanSeq[0].(xdm.Double)
	got = mustCall(t, "distinct-values", xdm.Sequence{nan, nan})
	if len(got) != 1 {
		t.Errorf("distinct NaN = %v", got)
	}
}

func TestNodeFunctions(t *testing.T) {
	doc, err := markup.Parse(`<a xmlns:p="urn:p"><p:b id="1">text</p:b><!--c--></a>`)
	if err != nil {
		t.Fatal(err)
	}
	b := doc.Elements("b")[0]
	if got := mustCall(t, "name", one(xdm.NewNode(b))); got[0].String() != "p:b" {
		t.Errorf("name = %s", got[0])
	}
	if got := mustCall(t, "local-name", one(xdm.NewNode(b))); got[0].String() != "b" {
		t.Errorf("local-name = %s", got[0])
	}
	if got := mustCall(t, "namespace-uri", one(xdm.NewNode(b))); got[0].String() != "urn:p" {
		t.Errorf("namespace-uri = %s", got[0])
	}
	if got := mustCall(t, "root", one(xdm.NewNode(b))); got[0].(xdm.Node).N != doc {
		t.Error("root wrong")
	}
	// name of a comment is "".
	comment := doc.DocumentElement().Children()[1]
	if got := mustCall(t, "name", one(xdm.NewNode(comment))); got[0].String() != "" {
		t.Errorf("name(comment) = %q", got[0].String())
	}
	// node-name returns a QName item.
	got := mustCall(t, "node-name", one(xdm.NewNode(b)))
	if got[0].Type() != xdm.TQName {
		t.Errorf("node-name type = %s", got[0].Type())
	}
}

func TestTokenizeEmptyAndAnchors(t *testing.T) {
	got := mustCall(t, "tokenize", one(xdm.String("")), one(xdm.String(",")))
	if len(got) != 0 {
		t.Errorf("tokenize(\"\") = %v", got)
	}
	got = mustCall(t, "tokenize", one(xdm.String("a,,b")), one(xdm.String(",")))
	if len(got) != 3 || got[1].String() != "" {
		t.Errorf("tokenize with empty fields = %v", got)
	}
	// Bad regex errors.
	if _, err := call(t, "matches", one(xdm.String("x")), one(xdm.String("["))); err == nil {
		t.Error("bad regex must fail")
	}
	// Unsupported flag errors.
	if _, err := call(t, "matches", one(xdm.String("x")), one(xdm.String("x")), one(xdm.String("q"))); err == nil {
		t.Error("unsupported flag must fail")
	}
}

func TestReplaceGroups(t *testing.T) {
	got := mustCall(t, "replace",
		one(xdm.String("2008-04-20")),
		one(xdm.String(`(\d+)-(\d+)-(\d+)`)),
		one(xdm.String("$3/$2/$1")))
	if got[0].String() != "20/04/2008" {
		t.Errorf("replace with groups = %s", got[0])
	}
}

func TestErrorFunction(t *testing.T) {
	if _, err := call(t, "error"); err == nil {
		t.Error("fn:error() must error")
	}
	_, err := call(t, "error", one(xdm.String("my:code")), one(xdm.String("boom")))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("fn:error description lost: %v", err)
	}
}

func TestPositionLastOutsideFocus(t *testing.T) {
	if _, err := call(t, "position"); err == nil {
		t.Error("position() without focus must fail")
	}
	if _, err := call(t, "last"); err == nil {
		t.Error("last() without focus must fail")
	}
}

func TestXSConstructors(t *testing.T) {
	reg := runtime.NewRegistry()
	Register(reg)
	f := reg.Lookup(dom.QName{Space: parser.XSNamespace, Local: "integer"}, 1)
	if f == nil {
		t.Fatal("xs:integer not registered")
	}
	res, err := f.Invoke(&runtime.Context{}, []xdm.Sequence{one(xdm.String(" 7 "))})
	if err != nil || res[0] != xdm.Integer(7) {
		t.Errorf("xs:integer = %v %v", res, err)
	}
	// Empty in, empty out.
	res, err = f.Invoke(&runtime.Context{}, []xdm.Sequence{{}})
	if err != nil || len(res) != 0 {
		t.Errorf("xs:integer(()) = %v %v", res, err)
	}
	// Invalid lexical form errors.
	if _, err := f.Invoke(&runtime.Context{}, []xdm.Sequence{one(xdm.String("x"))}); err == nil {
		t.Error("xs:integer('x') must fail")
	}
}

func TestDocBlockedProfile(t *testing.T) {
	reg := runtime.NewRegistry()
	Register(reg)
	f := reg.Lookup(dom.QName{Space: parser.FnNamespace, Local: "doc"}, 1)
	ctx := &runtime.Context{Prog: &runtime.Program{BlockDoc: true}}
	if _, err := f.Invoke(ctx, []xdm.Sequence{one(xdm.String("x.xml"))}); err == nil {
		t.Error("fn:doc must be blocked in the browser profile")
	}
	put := reg.Lookup(dom.QName{Space: parser.FnNamespace, Local: "put"}, 2)
	if _, err := put.Invoke(ctx, []xdm.Sequence{{}, {}}); err == nil {
		t.Error("fn:put must be blocked")
	}
	// doc-available is false, not an error, under the blocked profile.
	avail := reg.Lookup(dom.QName{Space: parser.FnNamespace, Local: "doc-available"}, 1)
	res, err := avail.Invoke(ctx, []xdm.Sequence{one(xdm.String("x.xml"))})
	if err != nil || res[0].String() != "false" {
		t.Errorf("doc-available = %v %v", res, err)
	}
}

func TestDurationComponents(t *testing.T) {
	d, err := xdm.ParseDuration("P2Y3MT0S")
	if err != nil {
		t.Fatal(err)
	}
	_ = d
	cases := []struct {
		fn   string
		dur  string
		want string
	}{
		{"years-from-duration", "P2Y3M", "2"},
		{"months-from-duration", "P2Y3M", "3"},
		{"days-from-duration", "P3DT10H", "3"},
		{"hours-from-duration", "P3DT10H", "10"},
		{"minutes-from-duration", "PT3H31M", "31"},
		{"seconds-from-duration", "PT1M30.5S", "30.5"},
		{"seconds-from-duration", "PT5S", "5"},
	}
	for _, tt := range cases {
		dur, err := xdm.ParseDuration(tt.dur)
		if err != nil {
			t.Fatal(err)
		}
		got := mustCall(t, tt.fn, one(dur))
		if got[0].String() != tt.want {
			t.Errorf("%s(%s) = %s, want %s", tt.fn, tt.dur, got[0], tt.want)
		}
	}
	// From a lexical string.
	got := mustCall(t, "years-from-duration", one(xdm.String("P10Y")))
	if got[0].String() != "10" {
		t.Errorf("lexical duration = %s", got[0])
	}
	// Non-duration errors.
	if _, err := call(t, "days-from-duration", one(xdm.Integer(1))); err == nil {
		t.Error("integer must fail")
	}
}
