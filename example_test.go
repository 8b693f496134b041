package xqib_test

import (
	"context"
	"fmt"

	xqib "repro"
)

// The paper's §4.1 Hello World page, executed through the plug-in
// pipeline of Figure 1.
func Example_helloWorld() {
	h, err := xqib.LoadPage(`<html><head>
		<title>Hello World Page</title>
		<script type="text/xquery">
			browser:alert("Hello, World!")
		</script>
	</head><body/></html>`, "http://www.example.com/hello.html")
	if err != nil {
		panic(err)
	}
	fmt.Println(h.Alerts()[0])
	// Output: Hello, World!
}

// Direct engine evaluation: FLWOR with full-text search (§3.1).
func ExampleEngine_EvalQuery() {
	doc, err := xqib.ParseXML(`<books>
		<book><title>dogs and a cat</title><author>A</author></book>
		<book><title>a cat tale</title><author>B</author></book>
	</books>`)
	if err != nil {
		panic(err)
	}
	e := xqib.NewEngine()
	seq, err := e.EvalQuery(`
		for $b in /books/book
		where $b/title ftcontains ("dog" with stemming) ftand "cat"
		return string($b/author)`, doc)
	if err != nil {
		panic(err)
	}
	fmt.Println(xqib.FormatSequence(seq))
	// Output: A
}

// The §4.3 event grammar: a listener registered by the page script
// fires when the host dispatches a click.
func ExampleHost_Click() {
	h, err := xqib.LoadPage(`<html><head><script type="text/xquery">
		declare updating function local:buy($evt, $obj) {
			insert node <p>{string($obj/@id)}</p> into //div[@id="cart"]
		};
		on event "click" at //input[@type="button"]
		attach listener local:buy
	</script></head><body>
		<input type="button" id="Mouse"/>
		<div id="cart"/>
	</body></html>`, "http://shop.example.com/")
	if err != nil {
		panic(err)
	}
	if err := h.Click("Mouse"); err != nil {
		panic(err)
	}
	fmt.Println(h.Page.ElementByID("cart").StringValue())
	// Output: Mouse
}

// Updating a document with the XQuery Update Facility: no side effects
// until the end of the query (§3.2).
func ExampleProgram_Run() {
	doc, err := xqib.ParseXML(`<library><book title="Starwars"/></library>`)
	if err != nil {
		panic(err)
	}
	e := xqib.NewEngine()
	prog, err := e.Compile(`
		insert node <comment>6 movies</comment>
		into /library/book[@title="Starwars"]`)
	if err != nil {
		panic(err)
	}
	if _, err := prog.Run(xqib.RunConfig{ContextItem: xqib.NewNode(doc)}); err != nil {
		panic(err)
	}
	fmt.Println(xqib.Serialize(doc))
	// Output: <library><book title="Starwars"><comment>6 movies</comment></book></library>
}

// The concurrent serving layer: a bounded session pool sharing one
// engine and one compiled-program cache. Loading the same page twice
// compiles its script once, and repeated queries skip compilation.
func ExamplePool() {
	pool := xqib.NewPool(xqib.PoolConfig{MaxSessions: 8})
	ctx := context.Background()

	page := `<html><head><script type="text/xquery">
		declare updating function local:hit($evt, $obj) {
			replace value of node //span[@id="n"]
			with xs:integer(string(//span[@id="n"])) + 1
		};
		on event "click" at //input[@id="b"] attach listener local:hit
	</script></head><body><input id="b"/><span id="n">0</span></body></html>`

	for i := 0; i < 2; i++ {
		s, err := pool.Load(ctx, page, "http://shop.example.com/")
		if err != nil {
			panic(err)
		}
		if err := s.Click(ctx, "b"); err != nil {
			panic(err)
		}
		s.Close()
	}
	for i := 0; i < 3; i++ {
		if _, err := pool.Eval(ctx, `sum(1 to 10)`, nil); err != nil {
			panic(err)
		}
	}

	// Two sessions + three evals, but the page script compiled once
	// (the second session bound its own browser: functions to the
	// first one's program) and so did the query (evals two and three
	// hit the program cache).
	m := pool.Metrics()
	fmt.Printf("sessions=%d parses=%d compiles=%d program-hits=%d\n",
		m.SessionsLoaded, m.Cache.Parses, m.Cache.Compiles, m.Cache.ProgramHits)
	_ = pool.Shutdown(ctx)
	// Output: sessions=2 parses=2 compiles=2 program-hits=3
}

// Local library modules: factoring shared XQuery (§6.1's application
// modules) without a network hop.
func ExampleNewLocalResolver() {
	resolver := xqib.NewLocalResolver(map[string]string{
		"urn:math": `module namespace m = "urn:math";
			declare function m:square($x) { $x * $x };`,
	})
	e := xqib.NewEngine(xqib.WithModuleResolver(resolver))
	seq, err := e.EvalQuery(`import module namespace m = "urn:math"; m:square(7)`, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(xqib.FormatSequence(seq))
	// Output: 49
}
