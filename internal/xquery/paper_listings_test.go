package xquery

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
)

var errNoDoc = fmt.Errorf("no such document")

// Every remaining code listing from the paper, executed as close to
// verbatim as the reproduced grammar allows (the browser-dependent
// listings live in internal/core's tests, the web-service ones in
// internal/rest's).

// §3.2: "insert node <book title="Starwars"/> into
// doc("library.xml")/books" and the price replacement.
func TestPaper32UpdateListings(t *testing.T) {
	library, err := markup.Parse(`<books><book title="Old"/></books>`)
	if err != nil {
		t.Fatal(err)
	}
	bill, err := markup.Parse(`<bill><items>
		<item id="computer"><price>2000</price></item>
		<item id="mouse"><price>10</price></item>
	</items></bill>`)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	prog := e.MustCompile(`
		insert node <book title="Starwars"/>
		into doc("library.xml")/books,
		replace value of node
		doc("bill.xml")/bill/items/item[@id="computer"]/price
		with 1500`)
	// §3.2: no scripting construct, so all modifications apply at the end.
	_, err = prog.Run(RunConfig{
		Docs: func(uri string) (*dom.Node, error) {
			switch uri {
			case "library.xml":
				return library, nil
			case "bill.xml":
				return bill, nil
			}
			return nil, errNoDoc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := markup.Serialize(library); !strings.Contains(got, `<book title="Starwars"/>`) {
		t.Errorf("library = %s", got)
	}
	if got := mustEval(t, `string(//item[@id="computer"]/price)`, bill); got != "1500" {
		t.Errorf("price = %s", got)
	}
}

// §3.3: the sequential block inserting a starwars book and commenting
// it, relying on statement-level visibility.
func TestPaper33ScriptingListing(t *testing.T) {
	src, err := markup.Parse(`<catalog><book><title>starwars</title></book></catalog>`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := markup.Parse(`<books/>`)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	prog := e.MustCompile(`
		{ declare variable $b := //book[title="starwars"];
		  insert node $b into doc("lib.xml")/books;
		  set $b := doc("lib.xml")//book[title="starwars"];
		  insert node <comment>6 movies</comment> into $b; }`)
	_, err = prog.Run(RunConfig{
		ContextItem: xdm.NewNode(src),
		Docs: func(uri string) (*dom.Node, error) {
			if uri == "lib.xml" {
				return lib, nil
			}
			return nil, errNoDoc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The inserted copy carries the comment; the original does not.
	if got := mustEval(t, `string(//book/comment)`, lib); got != "6 movies" {
		t.Errorf("lib comment = %q", got)
	}
	if got := mustEval(t, `count(//comment)`, src); got != "0" {
		t.Errorf("source modified: %s comments", got)
	}
}

// §1/§3.1: "XQuery is Turing complete" — a non-trivial computation
// (iterative Fibonacci via the scripting extension, recursive via
// functions) to back the claim operationally.
func TestPaperTuringCompletenessClaims(t *testing.T) {
	got := mustEval(t, `
		declare function local:fib($n as xs:integer) as xs:integer {
			if ($n < 2) then $n
			else local:fib($n - 1) + local:fib($n - 2)
		};
		local:fib(15)`, nil)
	if got != "610" {
		t.Errorf("recursive fib = %s", got)
	}
	got = mustEval(t, `
		{ declare variable $a := 0;
		  declare variable $b := 1;
		  declare variable $i := 0;
		  declare variable $t := 0;
		  while ($i < 15) {
		    set $t := $a + $b;
		    set $a := $b;
		    set $b := $t;
		    set $i := $i + 1;
		  };
		  $a; }`, nil)
	if got != "610" {
		t.Errorf("iterative fib = %s", got)
	}
}

// §2.2 (transliterated): the JavaScript heart-gif program expressed in
// XQuery — the paper's point that "all XPath expressions can be
// executed by an XQuery processor".
func TestPaper22XPathSubset(t *testing.T) {
	page, err := markup.ParseHTML(`<html><body>
		<div>all you need is love</div><div>other</div>
	</body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	// The XPath from the JS listing runs unchanged as XQuery.
	got := mustEval(t, `count(//div[contains(., 'love')])`, page)
	if got != "1" {
		t.Errorf("xpath subset count = %s", got)
	}
}
