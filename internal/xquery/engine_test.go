package xquery

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
)

// evalStr compiles and runs a query against an optional context document
// and renders the result compactly.
func evalStr(t *testing.T, src string, doc *dom.Node) (string, error) {
	t.Helper()
	e := New()
	e.Registry() // touch
	seq, err := e.EvalQuery(src, doc)
	if err != nil {
		return "", err
	}
	return FormatSequence(seq, markup.AppendXML), nil
}

func mustEval(t *testing.T, src string, doc *dom.Node) string {
	t.Helper()
	out, err := evalStr(t, src, doc)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return out
}

var libraryXML = `<library>
  <book year="2005" id="b1"><title>The Art of Computer Programming</title><author>Knuth</author><price>199.00</price></book>
  <book year="1994" id="b2"><title>Design Patterns</title><author>Gamma</author><author>Helm</author><price>54.90</price></book>
  <book year="2008" id="b3"><title>Real World Haskell</title><author>O'Sullivan</author><price>39.95</price></book>
</library>`

func libraryDoc(t *testing.T) *dom.Node {
	t.Helper()
	doc, err := markup.Parse(libraryXML)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBasicExpressions(t *testing.T) {
	tests := []struct {
		q    string
		want string
	}{
		// Literals and arithmetic.
		{`1`, "1"},
		{`1 + 2 * 3`, "7"},
		{`(1 + 2) * 3`, "9"},
		{`10 div 4`, "2.5"},
		{`10 idiv 4`, "2"},
		{`10 mod 3`, "1"},
		{`-5 + 2`, "-3"},
		{`2.5 + 2.5`, "5"},
		{`1.5e1 + 5`, "20"},
		{`"hello"`, "hello"},
		{`'it''s'`, "it's"},
		{`"say ""hi"""`, `say "hi"`},
		{`()`, ""},
		{`(1,2,3)`, "1 2 3"},
		{`1 to 5`, "1 2 3 4 5"},
		{`5 to 1`, ""},
		{`(1 to 3, 7)`, "1 2 3 7"},
		// Comparisons.
		{`1 < 2`, "true"},
		{`1 eq 1`, "true"},
		{`"a" lt "b"`, "true"},
		{`(1,2,3) = 3`, "true"},
		{`(1,2,3) = 4`, "false"},
		{`(1,2) != (1,2)`, "true"},
		{`() = 1`, "false"},
		{`1 = 1.0`, "true"},
		// Logic.
		{`true() and false()`, "false"},
		{`true() or false()`, "true"},
		{`not(0)`, "true"},
		{`1 and 1`, "true"},
		// Conditional.
		{`if (1 < 2) then "yes" else "no"`, "yes"},
		{`if (()) then "yes" else "no"`, "no"},
		// Strings.
		{`concat("a","b","c")`, "abc"},
		{`string-length("hello")`, "5"},
		{`upper-case("abc")`, "ABC"},
		{`lower-case("ABC")`, "abc"},
		{`substring("12345", 2, 3)`, "234"},
		{`substring("12345", 2)`, "2345"},
		{`contains("hello", "ell")`, "true"},
		{`starts-with("hello", "he")`, "true"},
		{`ends-with("hello", "lo")`, "true"},
		{`substring-before("a=b", "=")`, "a"},
		{`substring-after("a=b", "=")`, "b"},
		{`normalize-space("  a   b  ")`, "a b"},
		{`string-join(("a","b","c"), "-")`, "a-b-c"},
		{`translate("abcd", "bd", "B")`, "aBc"},
		{`matches("hello", "^h.*o$")`, "true"},
		{`replace("banana", "a", "o")`, "bonono"},
		{`string-join(tokenize("a,b,c", ","), "|")`, "a|b|c"},
		{`matches("HELLO", "hello", "i")`, "true"},
		{`codepoints-to-string((72, 105))`, "Hi"},
		{`string-to-codepoints("Hi")`, "72 105"},
		{`encode-for-uri("a b/c")`, "a%20b%2Fc"},
		// Numbers.
		{`abs(-3)`, "3"},
		{`floor(2.7)`, "2"},
		{`ceiling(2.1)`, "3"},
		{`round(2.5)`, "3"},
		{`round(-2.5)`, "-2"},
		{`round-half-to-even(2.5)`, "2"},
		{`round-half-to-even(3.5)`, "4"},
		{`number("12")`, "12"},
		{`string(number("x"))`, "NaN"},
		// Sequences.
		{`count((1,2,3))`, "3"},
		{`count(())`, "0"},
		{`empty(())`, "true"},
		{`exists((1))`, "true"},
		{`reverse((1,2,3))`, "3 2 1"},
		{`distinct-values((1, 2, 1, 3, 2))`, "1 2 3"},
		{`distinct-values(("a", "A", "a"))`, "a A"},
		{`subsequence((1,2,3,4,5), 2, 3)`, "2 3 4"},
		{`insert-before((1,2,3), 2, 99)`, "1 99 2 3"},
		{`remove((1,2,3), 2)`, "1 3"},
		{`index-of((10,20,30,20), 20)`, "2 4"},
		{`sum((1,2,3))`, "6"},
		{`sum(())`, "0"},
		{`avg((1,2,3))`, "2"},
		{`min((3,1,2))`, "1"},
		{`max((3,1,2))`, "3"},
		{`min(("b","a","c"))`, "a"},
		{`deep-equal((1,2), (1,2))`, "true"},
		{`deep-equal((1,2), (2,1))`, "false"},
		// Types.
		{`1 instance of xs:integer`, "true"},
		{`1 instance of xs:decimal`, "true"},
		{`1 instance of xs:string`, "false"},
		{`(1,2) instance of xs:integer+`, "true"},
		{`() instance of xs:integer?`, "true"},
		{`"5" cast as xs:integer`, "5"},
		{`5 cast as xs:string`, "5"},
		{`"x" castable as xs:integer`, "false"},
		{`"5" castable as xs:integer`, "true"},
		{`3.7 cast as xs:integer`, "3"},
		{`"true" cast as xs:boolean`, "true"},
		{`1 treat as xs:integer`, "1"},
		// Quantified.
		{`some $x in (1,2,3) satisfies $x > 2`, "true"},
		{`every $x in (1,2,3) satisfies $x > 0`, "true"},
		{`every $x in (1,2,3) satisfies $x > 1`, "false"},
		{`some $x in (), $y in (1) satisfies true()`, "false"},
		// Typeswitch.
		{`typeswitch (5) case xs:string return "s" case xs:integer return "i" default return "d"`, "i"},
		{`typeswitch ("x") case $s as xs:string return concat($s, "!") default return "d"`, "x!"},
		{`typeswitch (<a/>) case element() return "elem" default return "d"`, "elem"},
		// FLWOR.
		{`for $x in (1,2,3) return $x * 2`, "2 4 6"},
		{`for $x at $i in ("a","b") return concat($i, $x)`, "1a 2b"},
		{`for $x in (1,2,3) where $x mod 2 = 1 return $x`, "1 3"},
		{`let $x := 5 return $x + 1`, "6"},
		{`for $x in (1,2), $y in (10,20) return $x + $y`, "11 21 12 22"},
		{`for $x in (3,1,2) order by $x return $x`, "1 2 3"},
		{`for $x in (3,1,2) order by $x descending return $x`, "3 2 1"},
		{`for $x in ("b","a","c") order by $x return $x`, "a b c"},
		{`let $s := (1,2,3) for $x in $s order by -$x return $x`, "3 2 1"},
		// Constructors.
		{`<a/>`, "<a/>"},
		{`<a x="1"/>`, `<a x="1"/>`},
		{`<a>text</a>`, "<a>text</a>"},
		{`<a>{1+1}</a>`, "<a>2</a>"},
		{`<a>{1,2,3}</a>`, "<a>1 2 3</a>"},
		{`<a x="{1+1}"/>`, `<a x="2"/>`},
		{`<a x="v{1}w"/>`, `<a x="v1w"/>`},
		{`<a><b/>{"t"}</a>`, "<a><b/>t</a>"},
		{`<a>x{{y}}z</a>`, "<a>x{y}z</a>"},
		{`element foo { "bar" }`, "<foo>bar</foo>"},
		{`element { concat("f","oo") } { 1 }`, "<foo>1</foo>"},
		{`attribute class { "big" }`, `class="big"`},
		{`<a>{attribute x {"1"}, "t"}</a>`, `<a x="1">t</a>`},
		{`text { "hi" }`, "hi"},
		{`comment { "note" }`, "<!--note-->"},
		{`<!--direct comment-->`, "<!--direct comment-->"},
		{`<?pi data?>`, "<?pi data?>"},
		{`document { <r/> }`, "<r/>"},
		{`<a>&lt;tag&gt;</a>`, "<a>&lt;tag&gt;</a>"},
		// Full text.
		{`"The quick brown fox" ftcontains "quick"`, "true"},
		{`"The quick brown fox" ftcontains "QUICK"`, "true"},
		{`"The quick brown fox" ftcontains "quick brown"`, "true"},
		{`"The quick brown fox" ftcontains "brown quick"`, "false"},
		{`"The quick brown fox" ftcontains "quick" ftand "fox"`, "true"},
		{`"The quick brown fox" ftcontains "dog" ftor "fox"`, "true"},
		{`"The quick brown fox" ftcontains ftnot "dog"`, "true"},
		{`"running dogs" ftcontains ("dog" with stemming)`, "true"},
		{`"running dogs" ftcontains "dog"`, "false"},
		{`"cats and dogs" ftcontains ("dog" with stemming) ftand "cat"`, "false"},
		{`"cats and dogs" ftcontains ("dog" with stemming) ftand ("cat" with stemming)`, "true"},
		{`"Mozilla Firefox" ftcontains "mozilla"`, "true"},
		{`"Mozilla" ftcontains ("mozilla" case sensitive)`, "false"},
		// Dates.
		{`xs:date("2008-01-02") < xs:date("2009-01-01")`, "true"},
		{`xs:date("2008-01-31") + xs:dayTimeDuration("P1D")`, "2008-02-01"},
		{`xs:dateTime("2008-01-01T10:00:00") - xs:dateTime("2008-01-01T08:30:00")`, "PT1H30M"},
		{`year-from-date(xs:date("2008-05-06"))`, "2008"},
		{`month-from-date(xs:date("2008-05-06"))`, "5"},
		{`hours-from-dateTime(xs:dateTime("2008-05-06T13:14:15"))`, "13"},
		// Misc.
		{`string(1 = 1)`, "true"},
		{`zero-or-one(())`, ""},
		{`exactly-one(7)`, "7"},
		{`(1,2,3)[2]`, "2"},
		{`(1,2,3)[. > 1]`, "2 3"},
		{`(1 to 10)[position() mod 2 = 0]`, "2 4 6 8 10"},
		{`(1 to 10)[last()]`, "10"},
	}
	for _, tt := range tests {
		got, err := evalStr(t, tt.q, nil)
		if err != nil {
			t.Errorf("query %q: %v", tt.q, err)
			continue
		}
		if got != tt.want {
			t.Errorf("query %q = %q, want %q", tt.q, got, tt.want)
		}
	}
}

func TestPathExpressions(t *testing.T) {
	doc := libraryDoc(t)
	tests := []struct {
		q    string
		want string
	}{
		{`count(//book)`, "3"},
		{`count(/library/book)`, "3"},
		{`/library/book[1]/title/text()`, "The Art of Computer Programming"},
		{`string(//book[2]/author[2])`, "Helm"},
		{`//book[@year="2008"]/title/string()`, "Real World Haskell"},
		{`count(//book[price < 100])`, "2"},
		{`//book[price < 50]/@id/string()`, "b3"},
		{`string(//book[last()]/title)`, "Real World Haskell"},
		{`count(//author)`, "4"},
		{`count(//*)`, "14"},
		{`count(//book/@year)`, "3"},
		{`//book[1]/@year/data(.)`, "2005"},
		{`name(/*)`, "library"},
		{`local-name(//book[1]/@id)`, "id"},
		{`count(/library/book/ancestor::library)`, "1"},
		{`count(//title/parent::book)`, "3"},
		{`count(//book[1]/following-sibling::book)`, "2"},
		{`count(//book[3]/preceding-sibling::book)`, "2"},
		{`string(//book[1]/following-sibling::*[1]/title)`, "Design Patterns"},
		{`count(//book[2]/descendant::*)`, "4"},
		{`count(//book[2]/descendant-or-self::*)`, "5"},
		{`count(//price/following::author)`, "3"},
		{`count(//book[2]/preceding::title)`, "1"},
		{`string(//author[.="Knuth"]/../title)`, "The Art of Computer Programming"},
		{`count(/library/child::node())`, "7"}, // 3 books + 4 whitespace text nodes
		{`string((//book/title)[2])`, "Design Patterns"},
		{`count(//book/self::book)`, "3"},
		{`count(//book/self::title)`, "0"},
		{`//book/@id = "b2"`, "true"},
		{`count(//book[author="Gamma"])`, "1"},
		{`sum(//price)`, "293.85"},
		{`avg(//book/@year)`, "2002.3333333333333"},
		{`max(//price)`, "199"},
		{`string(//*[@id="b2"]/title)`, "Design Patterns"},
		{`count(//book/*)`, "10"},
		{`count(//book/element())`, "10"},
		{`count(//book/element(title))`, "3"},
		{`count(//text())`, "14"}, // 10 content + 4 whitespace
		{`//book[title ftcontains "computer"]/@id/string()`, "b1"},
		{`//book[title ftcontains ("pattern" with stemming)]/@id/string()`, "b2"},
		{`for $b in //book where $b/price > 50 order by $b/price return $b/@id/string()`, "b1 b2"}, // untyped keys order lexically
		{`for $b in //book where $b/price > 50 order by xs:decimal($b/price) return $b/@id/string()`, "b2 b1"},
		{`for $b in //book order by xs:integer($b/@year) return string($b/@year)`, "1994 2005 2008"},
		{`(//book/price)[. > 40][1]/string()`, "199.00"},
		{`//book[position() > 1]/@id/string()`, "b2 b3"},
		{`string-join(//book/@id, ",")`, "b1,b2,b3"},
		{`count(//book union //title)`, "6"},
		{`count(//book | //book)`, "3"},
		{`count(//* intersect //book)`, "3"},
		{`count(//* except //book)`, "11"},
		{`//book[1] << //book[2]`, "true"},
		{`//book[2] is (//book)[2]`, "true"},
		{`//book[1]/.. is /library`, "true"},
		{`count(/descendant-or-self::node())`, "29"},
	}
	for _, tt := range tests {
		got, err := evalStr(t, tt.q, doc)
		if err != nil {
			t.Errorf("query %q: %v", tt.q, err)
			continue
		}
		if got != tt.want {
			t.Errorf("query %q = %q, want %q", tt.q, got, tt.want)
		}
	}
}

func TestPrologAndFunctions(t *testing.T) {
	tests := []struct {
		q    string
		want string
	}{
		{`declare function local:double($x) { $x * 2 }; local:double(21)`, "42"},
		{`declare function local:fact($n as xs:integer) as xs:integer {
			if ($n le 1) then 1 else $n * local:fact($n - 1) }; local:fact(6)`, "720"},
		{`declare variable $x := 10; $x + 5`, "15"},
		{`declare variable $x := 10; declare variable $y := $x * 2; $y`, "20"},
		{`declare namespace my = "urn:my";
		  declare function my:f() { "ok" }; my:f()`, "ok"},
		{`xquery version "1.0"; 1 + 1`, "2"},
		{`declare function local:sum2($a as xs:integer, $b as xs:integer) as xs:integer
			{ $a + $b }; local:sum2(2, 3)`, "5"},
		{`declare function local:first($s as item()*) { $s[1] }; local:first((7,8))`, "7"},
		{`declare function local:greet($n as xs:string) { concat("hi ", $n) };
		  local:greet("bob")`, "hi bob"},
		// Untyped content converts to typed params (function conversion).
		{`declare function local:inc($n as xs:double) { $n + 1 };
		  local:inc(<x>41</x>)`, "42"},
		{`declare default element namespace "urn:d"; name(<foo/>)`, "foo"},
		{`declare boundary-space strip; <a> </a>`, "<a/>"},
	}
	for _, tt := range tests {
		got, err := evalStr(t, tt.q, nil)
		if err != nil {
			t.Errorf("query %q: %v", tt.q, err)
			continue
		}
		if got != tt.want {
			t.Errorf("query %q = %q, want %q", tt.q, got, tt.want)
		}
	}
}

func TestUpdateExpressions(t *testing.T) {
	run := func(t *testing.T, q string) *dom.Node {
		t.Helper()
		doc := libraryDoc(t)
		e := New()
		p, err := e.Compile(q)
		if err != nil {
			t.Fatalf("compile %q: %v", q, err)
		}
		_, err = p.Run(RunConfig{ContextItem: xdm.NewNode(doc)})
		if err != nil {
			t.Fatalf("run %q: %v", q, err)
		}
		return doc
	}

	doc := run(t, `insert node <book id="b4"><title>New</title></book> into /library`)
	if got := mustEval(t, `count(//book)`, doc); got != "4" {
		t.Errorf("after insert: count = %s", got)
	}
	if got := mustEval(t, `string(//book[4]/title)`, doc); got != "New" {
		t.Errorf("after insert: title = %s", got)
	}

	doc = run(t, `insert node <first/> as first into /library`)
	if got := mustEval(t, `name(/library/*[1])`, doc); got != "first" {
		t.Errorf("insert as first: %s", got)
	}

	doc = run(t, `insert node <mid/> after //book[1]`)
	if got := mustEval(t, `name(/library/*[2])`, doc); got != "mid" {
		t.Errorf("insert after: %s", got)
	}

	doc = run(t, `insert node <mid/> before //book[2]`)
	if got := mustEval(t, `name(/library/*[2])`, doc); got != "mid" {
		t.Errorf("insert before: %s", got)
	}

	doc = run(t, `delete node //book[2]`)
	if got := mustEval(t, `string-join(//book/@id, ",")`, doc); got != "b1,b3" {
		t.Errorf("delete: %s", got)
	}

	doc = run(t, `delete nodes //author`)
	if got := mustEval(t, `count(//author)`, doc); got != "0" {
		t.Errorf("delete nodes: %s", got)
	}

	doc = run(t, `replace value of node //book[1]/price with 1500`)
	if got := mustEval(t, `string(//book[1]/price)`, doc); got != "1500" {
		t.Errorf("replace value: %s", got)
	}

	doc = run(t, `replace value of node //book[1]/@year with "2024"`)
	if got := mustEval(t, `string(//book[1]/@year)`, doc); got != "2024" {
		t.Errorf("replace attr value: %s", got)
	}

	doc = run(t, `replace node //book[1]/title with <title>Replaced</title>`)
	if got := mustEval(t, `string(//book[1]/title)`, doc); got != "Replaced" {
		t.Errorf("replace node: %s", got)
	}

	doc = run(t, `rename node //book[1]/title as "heading"`)
	if got := mustEval(t, `count(//book[1]/heading)`, doc); got != "1" {
		t.Errorf("rename: %s", got)
	}

	// Insert of attributes.
	doc = run(t, `insert node attribute lang {"en"} into //book[1]`)
	if got := mustEval(t, `string(//book[1]/@lang)`, doc); got != "en" {
		t.Errorf("insert attribute: %s", got)
	}

	// Snapshot semantics: within one (non-sequential) query, updates are
	// invisible until the end.
	doc = libraryDoc(t)
	e := New()
	p := e.MustCompile(`(insert node <x/> into /library, count(//x))`)
	res, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value[0].String() != "0" {
		t.Errorf("updates must not be visible during evaluation: %v", res.Value)
	}
	if got := mustEval(t, `count(//x)`, doc); got != "1" {
		t.Errorf("updates must be applied at the end: %s", got)
	}
	if res.Updates != 1 {
		t.Errorf("Updates = %d, want 1", res.Updates)
	}
}

func TestTransformExpression(t *testing.T) {
	doc := libraryDoc(t)
	got := mustEval(t, `
		copy $b := //book[1]
		modify replace value of node $b/price with 0
		return string($b/price)`, doc)
	if got != "0" {
		t.Errorf("transform = %q", got)
	}
	// The original must be untouched.
	if orig := mustEval(t, `string(//book[1]/price)`, doc); orig != "199.00" {
		t.Errorf("transform modified the source: %q", orig)
	}
	// Modifying a non-copied node must fail.
	if _, err := evalStr(t, `
		copy $b := //book[1]
		modify delete node //book[2]
		return $b`, doc); err == nil {
		t.Error("transform must reject updates outside the copies")
	}
}

func TestScriptingBlocks(t *testing.T) {
	tests := []struct {
		q    string
		want string
	}{
		{`{ declare variable $x := 1; set $x := $x + 1; $x; }`, "2"},
		{`{ declare variable $x := 0;
		    while ($x < 5) { set $x := $x + 1; };
		    $x; }`, "5"},
		{`{ declare variable $a := 1; declare variable $b := $a + 1; $b; }`, "2"},
		{`{ 1; 2; 3; }`, "3"},
		{`block { "in block"; }`, "in block"},
		{`{ declare variable $x := 1; $x := 42; $x; }`, "42"},
		{`declare sequential function local:f() {
			declare variable $n := 10;
			set $n := $n * 2;
			exit with $n;
		  }; local:f()`, "20"},
		{`declare sequential function local:g() as xs:boolean {
			exit with true();
		  }; local:g()`, "true"},
	}
	for _, tt := range tests {
		got, err := evalStr(t, tt.q, nil)
		if err != nil {
			t.Errorf("query %q: %v", tt.q, err)
			continue
		}
		if got != tt.want {
			t.Errorf("query %q = %q, want %q", tt.q, got, tt.want)
		}
	}
}

func TestScriptingVisibleSideEffects(t *testing.T) {
	// The paper §3.3: a block sees the side effects of earlier
	// statements.
	doc, err := markup.Parse(`<books/>`)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	p := e.MustCompile(`{
		insert node <book title="starwars"/> into /books;
		insert node <comment>6 movies</comment> into //book[@title="starwars"];
	}`)
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)}); err != nil {
		t.Fatal(err)
	}
	got := mustEval(t, `string(//book/comment)`, doc)
	if got != "6 movies" {
		t.Errorf("sequential visibility: %q", got)
	}
}

func TestErrorCases(t *testing.T) {
	bad := []string{
		`1 +`,                // syntax
		`foo(`,               // syntax
		`$undefined`,         // undefined variable
		`unknown-function()`, // unknown function
		`"a" + 1`,            // type error
		`1 div 0`,            // division by zero
		`("a","b") eq "a"`,   // value comparison cardinality
		`<a>{</a>`,           // constructor syntax
		`<a></b>`,            // mismatched tags
		`undefined:prefix()`, // undeclared prefix
		`declare function local:f() { local:f() }; local:f()`, // infinite recursion
		`"5" cast as xs:unknownType`,
		`(1,2) treat as xs:integer`,
		`let $x as xs:integer := "s" return $x`,
		`exactly-one(())`,
	}
	for _, q := range bad {
		if _, err := evalStr(t, q, nil); err == nil {
			t.Errorf("query %q: expected an error", q)
		}
	}
}

func TestPaperExamples(t *testing.T) {
	// §3.1 FLWOR example (adapted: our bill document).
	bill, err := markup.Parse(`<paymentorder><paymentorders>
		<item><name>computer mouse</name><price>10</price></item>
		<item><name>screen</name><price>200</price></item>
	</paymentorders></paymentorder>`)
	if err != nil {
		t.Fatal(err)
	}
	got := mustEval(t, `
		for $x at $i in /paymentorder/paymentorders/item
		let $price := $x/price
		where $x/name ftcontains "computer"
		return <li>{$x/name}<eur>{data($price)}</eur></li>`, bill)
	want := `<li><name>computer mouse</name><eur>10</eur></li>`
	if got != want {
		t.Errorf("FLWOR example = %q, want %q", got, want)
	}

	// §3.1 full-text example.
	books, err := markup.Parse(`<books>
		<book><title>dogs and a cat</title><author>A</author></book>
		<book><title>a cat tale</title><author>B</author></book>
		<book><title>cats</title><author>C</author></book>
	</books>`)
	if err != nil {
		t.Fatal(err)
	}
	got = mustEval(t, `
		for $b in /books/book
		where $b/title ftcontains ("dog" with stemming) ftand "cat"
		return string($b/author)`, books)
	if got != "A" {
		t.Errorf("full-text example = %q, want A", got)
	}

	// §2.2 embedded XPath example, XQuery-style: find divs containing
	// "love" and insert a heart image.
	page, err := markup.ParseHTML(`<html><body><div>all you need is love</div><div>other</div></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	p := e.MustCompile(`
		if (exists(//div[contains(., 'love')]))
		then insert node <img src="http://example.com/heart.gif"/> as first into /html/body
		else ()`)
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(page)}); err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, `name(/html/body/*[1])`, page); got != "img" {
		t.Errorf("heart insertion failed: first child = %s", got)
	}
}

func TestLibraryModuleParses(t *testing.T) {
	e := New()
	_, err := e.Compile(`module namespace ex = "www.example.ch" port:2001;
		declare option fn:webservice "true";
		declare function ex:mul($a, $b) { $a * $b };`)
	if err != nil {
		t.Fatalf("library module: %v", err)
	}
}

func TestCompileErrorsHaveLineNumbers(t *testing.T) {
	e := New()
	_, err := e.Compile("1 +\n+\n@@@")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line") {
		t.Errorf("error should carry a line number: %v", err)
	}
}

func TestNonSequentialUpdateRestriction(t *testing.T) {
	// Two replaces of the same node conflict in one snapshot.
	doc := libraryDoc(t)
	e := New()
	p := e.MustCompile(`(replace value of node //book[1]/price with 1,
		replace value of node //book[1]/price with 2)`)
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)}); err == nil {
		t.Error("conflicting replaces must be rejected")
	}
}
