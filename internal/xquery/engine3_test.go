package xquery

import (
	"strings"
	"testing"

	"repro/internal/markup"
	"repro/internal/xdm"
)

// Third conformance batch: scripting loop control (§3.3 "while loops,
// continue, break"), update edge cases, and error-path coverage.

func TestBreakAndContinue(t *testing.T) {
	tests := []struct {
		q    string
		want string
	}{
		// break exits the loop early.
		{`{ declare variable $i := 0;
		    while (true()) {
		      set $i := $i + 1;
		      if ($i >= 3) then break else ();
		    };
		    $i; }`, "3"},
		// continue skips the rest of the body.
		{`{ declare variable $i := 0;
		    declare variable $sum := 0;
		    while ($i < 10) {
		      set $i := $i + 1;
		      if ($i mod 2 = 0) then continue else ();
		      set $sum := $sum + $i;
		    };
		    $sum; }`, "25"}, // 1+3+5+7+9
		// break inside a nested block still exits the loop.
		{`{ declare variable $i := 0;
		    while ($i < 100) {
		      { set $i := $i + 1; if ($i = 5) then break else (); };
		    };
		    $i; }`, "5"},
		// "break" with a following expression is still a path step.
		{`count(<r><break/></r>/break)`, "1"},
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

func TestBreakOutsideLoopErrors(t *testing.T) {
	for _, q := range []string{
		`{ break; }`,
		`{ continue; }`,
		`declare sequential function local:f() { break; }; { declare variable $i := 0;
			while ($i < 1) { set $i := $i + 1; local:f(); }; }`,
	} {
		if _, err := evalStr(t, q, nil); err == nil {
			t.Errorf("query %q should fail (loop control outside a loop)", q)
		}
	}
}

func TestUpdateEdgeCases(t *testing.T) {
	// Replace the root element.
	doc := libraryDoc(t)
	e := New()
	p := e.MustCompile(`replace node /library with <shelf/>`)
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)}); err != nil {
		t.Fatal(err)
	}
	if got := markup.Serialize(doc); got != `<shelf/>` {
		t.Errorf("root replace = %s", got)
	}

	// Delete an attribute.
	doc = libraryDoc(t)
	p = e.MustCompile(`delete node //book[1]/@year`)
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)}); err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, `count(//book[1]/@year)`, doc); got != "0" {
		t.Errorf("attribute delete: %s", got)
	}

	// Insert atomic values becomes a text node.
	doc = libraryDoc(t)
	p = e.MustCompile(`insert node (1, "and", 2) into //book[1]/title`)
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)}); err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, `string(//book[1]/title)`, doc); !strings.HasSuffix(got, "1 and 2") {
		t.Errorf("atomic insert: %q", got)
	}

	// Rename with a QName value.
	doc = libraryDoc(t)
	p = e.MustCompile(`rename node //book[1] as xs:QName("tome")`)
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)}); err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, `count(/library/tome)`, doc); got != "1" {
		t.Errorf("QName rename: %s", got)
	}

	// Error paths.
	bad := []string{
		`insert node <x/> into //book/title/text()`,      // target not element/doc
		`insert node <x/> before /`,                      // no parent
		`insert node attribute a {"v"} before //book[1]`, // attr before node
		`replace node / with <x/>`,                       // replace doc/ no parent
		`replace value of node / with "x"`,               // replace value of doc
		`replace node //book[1]/@id with <el/>`,          // attr replaced by element
		`rename node //book[1]/title/text() as "x"`,      // rename text
		`delete node "atomic"`,                           // non-node delete
		`insert node <x/> into (//book[1], //book[2])`,   // multi target
	}
	for _, q := range bad {
		doc := libraryDoc(t)
		p, err := e.Compile(q)
		if err != nil {
			continue // a compile error is an acceptable rejection
		}
		if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)}); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestTransformNested(t *testing.T) {
	doc := libraryDoc(t)
	// A transform inside a FLWOR, producing modified copies per book.
	got := mustEval(t, `
		string-join(
		  for $b in //book
		  return copy $c := $b
		         modify replace value of node $c/price with "0"
		         return concat($c/@id, "=", $c/price),
		  " ")`, doc)
	if got != "b1=0 b2=0 b3=0" {
		t.Errorf("transform in FLWOR = %q", got)
	}
	// Sources untouched.
	if orig := mustEval(t, `string-join(//price, ",")`, doc); orig != "199.00,54.90,39.95" {
		t.Errorf("sources modified: %s", orig)
	}
}

func TestSequentialStatementVisibilityMatrix(t *testing.T) {
	// Within one statement: snapshot isolation. Across statements:
	// visible. (§3.2 vs §3.3.)
	doc, _ := markup.Parse(`<counts/>`)
	e := New()
	p := e.MustCompile(`{
		insert node <n>{count(//probe)}</n> into /counts;
		insert node <probe/> into /counts;
		insert node <n>{count(//probe)}</n> into /counts;
	}`)
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)}); err != nil {
		t.Fatal(err)
	}
	got := mustEval(t, `string-join(//n, ",")`, doc)
	if got != "0,1" {
		t.Errorf("visibility = %q, want \"0,1\"", got)
	}
}

// A loop whose body applies updates before the loop ends — here a call
// of a sequential function, whose statements apply as they go — binds
// its variable over its domain as it was before the first item: the
// siblings the body inserts are not visited, and a count in the domain
// is the count before the first insert, for a for clause and a
// quantifier alike.
func TestMidLoopInsertsAreNotVisited(t *testing.T) {
	const fns = `declare sequential function local:add($x) {
		insert node <item id="{$x/@id}b"/> after $x; string($x/@id); };
		declare sequential function local:visit($x) {
		if ($x instance of node()) then local:add($x) else string($x) }; `
	for _, c := range []struct{ src, want string }{
		{`for $x in //item return local:add($x)`, "1 2"},
		{`for $x in (/r/item, count(//item)) return local:visit($x)`, "1 2 2"},
		{`some $x in (/r/item, count(//item)) satisfies local:visit($x) eq "4"`, "false"},
		{`every $x in (/r/item, count(//item)) satisfies local:visit($x) ne "4"`, "true"},
	} {
		got := runOutcome(t, New().MustCompile(fns+c.src), `<r><item id="1"/><item id="2"/></r>`, RunConfig{MaxSteps: 10_000})
		want := c.want + ` | <r><item id="1"/><item id="1b"/><item id="2"/><item id="2b"/></r>`
		// The value and the final document, without the applied
		// primitives between them.
		if value, rest, _ := strings.Cut(got, " | "); value+rest[strings.LastIndex(rest, " | "):] != want {
			t.Errorf("%s = %s, want %s", c.src, got, want)
		}
	}
}

func TestFLWORWithUpdatingReturn(t *testing.T) {
	// An updating expression under a FLWOR accumulates one primitive
	// per tuple.
	doc := libraryDoc(t)
	e := New()
	p := e.MustCompile(`for $b in //book return insert node <tag/> into $b`)
	res, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 3 {
		t.Errorf("updates = %d", res.Updates)
	}
	if got := mustEval(t, `count(//tag)`, doc); got != "3" {
		t.Errorf("tags = %s", got)
	}
}

func TestConditionalUpdate(t *testing.T) {
	doc := libraryDoc(t)
	e := New()
	p := e.MustCompile(`
		for $b in //book
		return if ($b/price > 100)
		       then replace value of node $b/price with "99.99"
		       else ()`)
	if _, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc)}); err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, `string(//book[1]/price)`, doc); got != "99.99" {
		t.Errorf("price capped: %s", got)
	}
	if got := mustEval(t, `string(//book[2]/price)`, doc); got != "54.90" {
		t.Errorf("price untouched: %s", got)
	}
}

func TestStringFunctionsViaEngine(t *testing.T) {
	tests := []struct {
		q    string
		want string
	}{
		{`string-join(for $w in tokenize("a b c", " ") return upper-case($w), "")`, "ABC"},
		{`substring-before("2008-04-20", "-")`, "2008"},
		{`replace("XQuery in the Browser", "Browser", "Go")`, "XQuery in the Go"},
		{`normalize-space(" XQuery   in the	Browser ")`, "XQuery in the Browser"},
		{`string-length(normalize-space("  "))`, "0"},
		{`translate("2008/04/20", "/", "-")`, "2008-04-20"},
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

func TestDeepFLWORNesting(t *testing.T) {
	got := mustEval(t, `
		string-join(
		  for $i in 1 to 3
		  return string-join(
		    for $j in 1 to $i
		    return concat($i, ".", $j), ","),
		  ";")`, nil)
	if got != "1.1;2.1,2.2;3.1,3.2,3.3" {
		t.Errorf("nested FLWOR = %q", got)
	}
}

func TestLargeDocumentQueries(t *testing.T) {
	var b strings.Builder
	b.WriteString("<big>")
	for i := 0; i < 2000; i++ {
		b.WriteString("<row><v>")
		b.WriteString(strings.Repeat("x", i%7))
		b.WriteString("</v></row>")
	}
	b.WriteString("</big>")
	doc, err := markup.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, `count(//row)`, doc); got != "2000" {
		t.Errorf("count = %s", got)
	}
	if got := mustEval(t, `count(//row[string-length(v) = 6])`, doc); got != "285" {
		t.Errorf("filtered = %s", got)
	}
	if got := mustEval(t, `count(//row[position() mod 100 = 0])`, doc); got != "20" {
		t.Errorf("positional = %s", got)
	}
}
