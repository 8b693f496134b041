package xquery

import (
	"reflect"
	"testing"

	"repro/internal/dom"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// The unparser (ast.Unparse) is what turns a planned expression into
// the text a federation ships, so text → tree → text → tree has to come
// back to the same tree. "The same" leaves out what the text does not
// carry: source positions, the lexical prefixes of names (the
// unparser writes names by their expanded form under prefixes of its
// own), and the parser's binding numbers (ast.VarID), which count the
// declarations of the whole module, prolog included.

// stripLexical zeroes every ast.Pos, every QName prefix and every
// ast.VarID reachable from v, in place.
func stripLexical(v reflect.Value) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.Kind() == reflect.Interface {
			// Interface values are not addressable: work on a copy and
			// put it back.
			c := reflect.New(v.Elem().Type()).Elem()
			c.Set(v.Elem())
			stripLexical(c)
			v.Set(c)
			return
		}
		stripLexical(v.Elem())
	case reflect.Struct:
		switch v.Type() {
		case reflect.TypeOf(ast.Pos{}):
			v.Set(reflect.Zero(v.Type()))
			return
		case reflect.TypeOf(dom.QName{}):
			v.FieldByName("Prefix").SetString("")
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				stripLexical(f)
			}
		}
	case reflect.Int32:
		if v.Type() == reflect.TypeOf(ast.VarID(0)) {
			v.SetInt(0)
		}
	case reflect.Slice:
		if v.Len() == 0 && !v.IsNil() {
			v.Set(reflect.Zero(v.Type())) // f() parses to nil args, (…)[] never to empty
			return
		}
		for i := 0; i < v.Len(); i++ {
			stripLexical(v.Index(i))
		}
	}
}

func normalized(e ast.Expr) ast.Expr {
	v := reflect.New(reflect.TypeOf((*ast.Expr)(nil)).Elem()).Elem()
	v.Set(reflect.ValueOf(e))
	stripLexical(v)
	return v.Interface().(ast.Expr)
}

// roundTrip parses prolog+q, unparses its body and parses that again;
// ok is false when the unparser does not cover the query.
func roundTrip(t *testing.T, prolog, q string) (text string, ok bool) {
	t.Helper()
	m, err := parser.ParseModule(prolog + q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	text, ok = ast.Unparse(m.Body)
	if !ok {
		return "", false
	}
	back, err := parser.ParseModule(text)
	if err != nil {
		t.Errorf("%q\n  unparsed to %q\n  which does not parse: %v", q, text, err)
		return text, true
	}
	if want, got := normalized(m.Body), normalized(back.Body); !reflect.DeepEqual(want, got) {
		t.Errorf("%q\n  unparsed to %q\n  which parses to a different tree:\n  want %#v\n   got %#v", q, text, want, got)
	}
	// The text is a fixed point: unparsing what it parses to gives it
	// back, made-up prefixes included.
	if again, ok := ast.Unparse(back.Body); !ok || again != text {
		t.Errorf("%q\n  unparsed to %q\n  and that to    %q", q, text, again)
	}
	return text, true
}

func TestUnparseRoundTripsTheCorpora(t *testing.T) {
	const prolog = `declare namespace p = "urn:p"; declare variable $v external; `
	covered, total := 0, 0
	for _, corpus := range [][]string{
		compileDifferentialCorpus, stepPredVarQueries, stepPredLiteralQueries, pathIndexCorpus, ftIndexCorpus,
	} {
		for _, q := range corpus {
			total++
			if _, ok := roundTrip(t, prolog, q); ok {
				covered++
			}
		}
	}
	// Constructors, updates and scripting are outside the subset; most
	// of the corpora is inside it.
	if covered*3 < total*2 {
		t.Errorf("the unparser covers %d of %d corpus queries, want at least two thirds", covered, total)
	}
	t.Logf("round-tripped %d of %d corpus queries", covered, total)
}

func TestUnparseRoundTripsTheHardCases(t *testing.T) {
	const prolog = `declare namespace a = "urn:a"; declare namespace b = "urn:b&amp;<"; ` +
		`declare default element namespace "urn:dflt"; declare variable $v external; declare variable $a:v external; `
	for _, c := range []struct{ q, want string }{
		// Names in two namespaces (and the default one), on every kind
		// of name: element and attribute tests, wildcards, kind tests,
		// variables.
		{`//a:x/b:y[@a:k = $a:v]/z/@b:*`,
			`declare namespace ns1 = "urn:a"; declare namespace ns2 = "urn:b&amp;<"; declare namespace ns3 = "urn:dflt"; ` +
				`/descendant-or-self::node()/child::ns1:x/child::ns2:y[attribute::ns1:k = $ns1:v]/child::ns3:z/attribute::ns2:*`},
		{`a:x/*:y/*/element(b:z)/attribute(a:k)/element(*)/element()/attribute()`, ``},
		{`for $a:x in a:x return $a:x/@b:k`, ``},
		// String literals holding the characters the lexer treats.
		{`("say ""hi""", 'it''s', "a&amp;b", "a<b>c", "&lt;&#65;", "")`, `("say ""hi""", "it's", "a&amp;b", "a<b>c", "<A", "")`},
		{`//x[@k = "&quot;"]`, `declare namespace ns1 = "urn:dflt"; /descendant-or-self::node()/child::ns1:x[attribute::k = """"]`},
		// Every full-text option the parser knows, and the selection
		// operators in every nesting.
		{`. ftcontains "w"`, `. ftcontains "w"`},
		{`. ftcontains "w" any word`, `. ftcontains "w"`},
		{`. ftcontains "w" all words with stemming with wildcards case sensitive`, `. ftcontains "w" all with stemming with wildcards case sensitive`},
		{`. ftcontains "a b" phrase without stemming case insensitive`, `. ftcontains "a b" phrase`},
		{`. ftcontains ("a" ftor "b") with stemming`, `. ftcontains "a" with stemming ftor "b" with stemming`},
		{`. ftcontains "a" ftand "b" ftor ftnot "c" ftand ("d" ftor "e")`, `. ftcontains ("a" ftand "b") ftor ((ftnot "c") ftand ("d" ftor "e"))`},
		{`. ftcontains ftnot ("a" ftand "b")`, `. ftcontains ftnot ("a" ftand "b")`},
		{`. ftcontains $v all`, `. ftcontains {$v} all`},
		{`. ftcontains { ("a", $v) } any`, `. ftcontains {("a", $v)}`},
		{`//x[. ftcontains "w"] ftcontains { string(@k) } with wildcards`, ``},
		// Operators: precedence survives because every composite operand
		// is parenthesised, paths excepted.
		{`1 + 2 * 3 - -4`, `(1 + (2 * 3)) - (-4)`},
		{`(1 + 2) * 3 idiv 2 mod 5 div 2`, ``},
		{`- - 5`, `+5`},
		{`1 to 3, (4, 5), ()`, `(1 to 3, (4, 5), ())`},
		{`$v = 1 or $v != 2 and not($v < 3)`, `($v = 1) or (($v != 2) and fn:not($v < 3))`},
		{`$v eq 1, $v is $v, $v << $v, $v >> $v, $v ge 2`, ``},
		{`(/) = 1, / , /x, (//x)[1], $v/x | $v/y, $v/x union $v/y intersect $v/z except $v/w`, ``},
		{`1.50, 2e3, 1.5E-3, .5, 12345678901`, `(1.50, 2e+03, 1.5e-03, .5, 12345678901)`},
		// Paths: every axis, abbreviations, filter steps, kind tests.
		{`$v/../@k, $v//text(), $v/ancestor-or-self::node()/preceding-sibling::comment()/following::processing-instruction("t")`, ``},
		{`$v/self::x/parent::*/descendant::y/following-sibling::z/ancestor::w/preceding::q/descendant-or-self::document-node()`, ``},
		{`$v/x[1][last()][position() < 3]/(y, z)[2]/string(.)`, ``},
		{`(if ($v) then $v else ())/x, (for $i in $v return $i)[1], ("a")[1]`, ``},
		// The clause forms.
		{`for $i at $n in (1, 2), $j in $i let $k as xs:integer := $j, $l := $k where $l > 0 order by $l descending empty least, $n empty greatest return $l`, ``},
		{`some $x as element()* in $v, $y in $x satisfies $y, every $z in $v satisfies $z`, ``},
		{`if ($v) then 1 else if ($v) then 2 else 3`, ``},
		{`ordered { $v }, unordered { $v/@k }`, `(ordered { $v }, ordered { $v/attribute::k })`},
		// Types.
		{`$v instance of xs:integer+, $v treat as element(a:x)?, $v cast as xs:double?, $v castable as xs:date`, ``},
		{`$v instance of empty-sequence(), $v instance of item()*, $v instance of node(), $v instance of document-node(), $v instance of attribute(*), $v instance of processing-instruction()`, ``},
		{`xs:integer("3") + fn:count($v) + string-length()`, `(xs:integer("3") + fn:count($v)) + fn:string-length()`},
	} {
		text, ok := roundTrip(t, prolog, c.q)
		if !ok {
			t.Errorf("%q is outside the unparser's subset", c.q)
		} else if c.want != "" && text != c.want {
			t.Errorf("%q\n  unparsed to %q\n        want %q", c.q, text, c.want)
		}
	}
}

func TestUnparseRefusesWhatItCannotWrite(t *testing.T) {
	for _, q := range []string{
		`<x/>`, `element x { 1 }`, `text { "t" }`,
		`delete node /x`, `insert node <a/> into /x`, `copy $c := /x modify delete node $c/y return $c`,
		`{ declare variable $x := 1; $x }`, `typeswitch (1) case xs:integer return 1 default return 2`,
		`for $a in /x return <y>{$a}</y>`, `count((/x, <y/>))`, `/x[<y/>]`, `. ftcontains { <w/> }`,
		`declare default function namespace ""; f(1)`,
	} {
		m, err := parser.ParseModule(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if text, ok := ast.Unparse(m.Body); ok {
			t.Errorf("%q unparsed to %q, want it refused", q, text)
		}
	}
}
