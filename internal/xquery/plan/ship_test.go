package plan

import (
	"reflect"
	"testing"

	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// shipOf returns the shipping plan on the body of src, planned.
func shipOf(t *testing.T, src string) *ast.ShipPlan {
	t.Helper()
	_, body := plannedBody(t, src)
	switch x := body.(type) {
	case ast.FLWOR:
		return x.Ship
	case ast.FuncCall:
		return x.Ship
	}
	return nil
}

func TestShipClassifier(t *testing.T) {
	for _, c := range []struct {
		src string
		uri string // the collection, when shipped
		per string // the shipped text; "" = must not be shipped
		sum bool
	}{
		// Shape (a): the benchmark's two FLWOR classes and their kin.
		{src: `for $a in collection("/db/j3")/article where $a/@year = "1990" return string($a/@id)`,
			uri: "/db/j3", per: `for $a in child::article where $a/attribute::year = "1990" return fn:string($a/attribute::id)`},
		{src: `for $a in collection("/db/j3")/article[. ftcontains "xml"] return string($a/@id)`,
			uri: "/db/j3", per: `for $a in child::article[. ftcontains "xml"] return fn:string($a/attribute::id)`},
		{src: `for $d in collection() return count($d//ref)`,
			per: `for $d in . return fn:count($d/descendant::ref)`},
		{src: `for $r in fn:collection("c")//ref[@year = "1999"] let $y := $r/@year, $n := string-length($y) where $n > 3 return (data($y), $n * 2, $y = "1999")`,
			uri: "c", per: `for $r in descendant::ref[attribute::year = "1999"] let $y := $r/attribute::year let $n := fn:string-length($y) where $n > 3 return (fn:data($y), $n * 2, $y = "1999")`},
		{src: `for $a in collection("c")/article return if ($a/@n > 1) then "many" else for $r in $a/ref return string($r)`,
			uri: "c", per: `for $a in child::article return if ($a/attribute::n > 1) then "many" else for $r in $a/child::ref return fn:string($r)`},
		{src: `for $a in collection("c")/a[b[. = "x"]][string-length() > 2] return 1`,
			uri: "c", per: `for $a in child::a[child::b[. = "x"]][fn:string-length() > 2] return 1`},
		{src: `for $a in collection("c")/a return some $b in $a/b satisfies $b = "x"`,
			uri: "c", per: `for $a in child::a return some $b in $a/child::b satisfies $b = "x"`},
		// Shape (b).
		{src: `count(collection("/db/j3")/article/references/ref[@year = "1990"])`,
			uri: "/db/j3", per: `fn:count(child::article/child::references/child::ref[attribute::year = "1990"])`, sum: true},
		{src: `fn:count(fn:collection()//ref)`, per: `fn:count(descendant::ref)`, sum: true},

		// Refused: the map over documents is not provable.
		{src: `for $a at $i in collection("c")/a return $i`},                                // positional variable
		{src: `for $a in collection("c")/a order by $a/@k return string($a)`},               // order by
		{src: `for $a in collection("c")/a, $b in $a/b return string($b)`},                  // second for
		{src: `for $a as element() in collection("c")/a return string($a)`},                 // typed
		{src: `for $a in collection("c")[1]/a return string($a)`},                           // predicate on the collection step
		{src: `for $a in collection("c")[@x]/a return string($a)`},                          // the same, boolean
		{src: `declare variable $u external; for $a in collection($u)/a return string($a)`}, // non-literal URI
		{src: `for $a in collection(concat("c", "d"))/a return string($a)`},
		{src: `for $a in doc("d")/a return string($a)`},                 // not a collection
		{src: `for $a in (collection("c")/a)[1] return string($a)`},     // not a plain path over it
		{src: `for $a in collection("c")/a/string() return string($a)`}, // a filter step among S
		{src: `count(collection("c"))`},                                 // count, n = 0
		{src: `count(doc("d")/a)`},                                      // count of a non-collection path
		{src: `count((collection("c")/a, 1))`},
		{src: `sum(collection("c")/a)`},
		// Refused: the expression is not closed.
		{src: `declare variable $y external; for $a in collection("c")/a where $a/@y = $y return string($a)`},
		{src: `declare variable $y external; for $a in collection("c")/a[@y = $y] return string($a)`},
		{src: `declare variable $y := "1"; for $a in collection("c")/a return concat($y, $a)`},
		{src: `for $o in (1, 2) return for $a in collection("c")/a where $a/@n = $o return string($a)`},
		// Refused: the focus is read outside a step predicate.
		{src: `for $a in collection("c")/a return string(.)`},
		{src: `for $a in collection("c")/a return string()`},
		{src: `for $a in collection("c")/a where b return string($a)`},
		{src: `for $a in collection("c")/a where /x return string($a)`},
		{src: `for $a in collection("c")/a let $n := name() return $n = "a"`},
		// Refused: the return is not atomic by construction.
		{src: `for $a in collection("c")/a return $a/title`},
		{src: `for $a in collection("c")/a return ($a, 1)`},
		{src: `for $a in collection("c")/a return $a`},
		{src: `for $a in collection("c")/a let $n := string($a) return $n`},
		{src: `for $a in collection("c")/a return root($a)`},
		{src: `for $a in collection("c")/a return head($a/b)`},
		{src: `for $a in collection("c")/a return subsequence($a/b, 1, 1)`},
		{src: `for $a in collection("c")/a return exactly-one($a/b)`},
		{src: `for $a in collection("c")/a return reverse($a/b)`},
		{src: `for $a in collection("c")/a return ($a/b | $a/c)`},
		{src: `for $a in collection("c")/a return if ($a/b) then 1 else $a/c`},
		{src: `for $a in collection("c")/a return $a/b/string()`},
		// Refused: effects, constructors, calls off the allowlist.
		{src: `for $a in collection("c")/a return <x>{string($a)}</x>`},
		{src: `for $a in collection("c")/a return string(<x/>)`},
		{src: `for $a in collection("c")/a return (delete node $a, 1)`},
		{src: `for $a in collection("c")/a where $a/@p = position() return 1`},
		{src: `for $a in collection("c")/a return string(doc("d")/x)`},
		{src: `for $a in collection("c")/a return count(collection("d"))`},
		{src: `for $a in collection("c")/a return ft:score($a)`},
		{src: `for $a in collection("c")/a return current-dateTime()`},
		{src: `declare function local:f($x) { string($x) }; for $a in collection("c")/a return local:f($a)`},
		{src: `for $a in collection("c")/a[position() < 3] return string($a)`},
		// A module's own fn: function is the module's: a call to it is not
		// shipped, nor is a count or collection of its own; the library's
		// are, whatever else the module declares.
		{src: `declare function fn:string($x) { "mine" }; for $a in collection("c")/a return string($a)`},
		{src: `declare function fn:count($x) { 0 }; count(collection("c")//r)`},
		{src: `declare function fn:collection($u) { () }; count(collection("c")//r)`},
		{src: `declare function fn:mine() { 1 }; count(collection("c")//r)`,
			uri: "c", per: `fn:count(descendant::r)`, sum: true},
	} {
		got := shipOf(t, c.src)
		if c.per == "" {
			if got != nil {
				t.Errorf("%s\n  shipped as %q, want it refused", c.src, got.Src)
			}
			continue
		}
		if got == nil {
			t.Errorf("%s\n  refused, want %q", c.src, c.per)
			continue
		}
		if got.URI != c.uri || got.Src != c.per || got.Sum != c.sum {
			t.Errorf("%s\n   got {%q %q sum=%v}\n  want {%q %q sum=%v}", c.src, got.URI, got.Src, got.Sum, c.uri, c.per, c.sum)
		}
		// What the planner ships parses, is in the shipped language, and
		// is the text of the expression the plan carries.
		m, err := parser.ParseModule(got.Src)
		if err != nil {
			t.Errorf("%s\n  shipped text does not parse: %v", c.src, err)
			continue
		}
		if !Shippable(m.Body) {
			t.Errorf("%s\n  a source would refuse %q", c.src, got.Src)
		}
		if back, ok := ast.Unparse(got.Expr); !ok || back != got.Src {
			t.Errorf("%s\n  Expr unparses to %q, Src is %q", c.src, back, got.Src)
		}
	}
}

// A nested annotated node is found wherever it sits, and each node is
// annotated for itself.
func TestShipAnnotatesNestedNodes(t *testing.T) {
	_, body := plannedBody(t, `if (count(collection("c")/a) > 2) then "big" else for $a in collection("c")/a return string($a)`)
	x := body.(ast.If)
	if c := x.Cond.(ast.Compare).L.(ast.FuncCall); c.Ship == nil || !c.Ship.Sum {
		t.Errorf("count in the condition: %+v", c.Ship)
	}
	if f := x.Else.(ast.FLWOR); f.Ship == nil || f.Ship.Sum {
		t.Errorf("FLWOR in the else branch: %+v", f.Ship)
	}
	m, _ := plannedBody(t, `declare function local:n() { count(collection("c")//r) }; local:n()`)
	if c := m.Prolog.Functions[0].Body.(ast.FuncCall); c.Ship == nil {
		t.Error("count in a function body was not annotated")
	}
}

// Planning a planned module changes nothing: the annotation is a
// function of the node's own text.
func TestShipPlanningIsIdempotent(t *testing.T) {
	for _, src := range []string{
		`for $a in collection("c")/article where $a/@year = "1990" return string($a/@id)`,
		`count(collection("c")//ref[@year = "1990"])`,
		`for $a in collection("c")/a return $a/title`,
	} {
		m, once := plannedBody(t, src)
		Annotate(m)
		if !reflect.DeepEqual(once, m.Body) {
			t.Errorf("%s: second Annotate changed the body\n once %#v\ntwice %#v", src, once, m.Body)
		}
	}
}

// flatten leaves an annotated level alone — merging would either drop
// the plan or put it on a FLWOR it does not describe — and the
// optimizer's other rewrites carry it along on their copies.
func TestOptimizerKeepsShipPlans(t *testing.T) {
	// Outer annotated, inner not (its return is a FLWOR, atomic).
	_, body := plannedBody(t, `for $a in collection("c")/a return for $b in $a/b return string($b)`)
	plan := body.(ast.FLWOR).Ship
	if plan == nil {
		t.Fatal("outer FLWOR was not annotated")
	}
	opt := Optimize(body, nil).(ast.FLWOR)
	if opt.Ship != plan || len(opt.Clauses) != 1 {
		t.Errorf("outer: Ship %p (want %p), %d clauses (want 1, unmerged)", opt.Ship, plan, len(opt.Clauses))
	}
	// Inner annotated, outer not.
	_, body = plannedBody(t, `for $i in (1, 2) return for $a in collection("c")/a return string($a)`)
	inner := body.(ast.FLWOR).Return.(ast.FLWOR).Ship
	if inner == nil || body.(ast.FLWOR).Ship != nil {
		t.Fatal("want exactly the inner FLWOR annotated")
	}
	opt = Optimize(body, nil).(ast.FLWOR)
	if opt.Ship != nil || len(opt.Clauses) != 1 {
		t.Errorf("outer: Ship %v, %d clauses (want none, 1)", opt.Ship, len(opt.Clauses))
	}
	if got := opt.Return.(ast.FLWOR).Ship; got != inner {
		t.Errorf("inner: Ship %p, want %p", got, inner)
	}
	// Pushdown rewrites the clause list of an annotated FLWOR; the plan
	// rides along.
	var st Stats
	_, body = plannedBody(t, `for $a in collection("c")/a where $a/@k = "v" return string($a)`)
	opt = Optimize(body, &st).(ast.FLWOR)
	if st.Pushdowns != 1 || opt.Where != nil || opt.Ship != body.(ast.FLWOR).Ship {
		t.Errorf("pushdown: %+v, where %v, Ship %p", st, opt.Where, opt.Ship)
	}
	// A count keeps its plan through the optimizer's copy.
	_, body = plannedBody(t, `count(collection("c")//r) + 0`)
	if c := Optimize(body, nil).(ast.Binary).L.(ast.FuncCall); c.Ship == nil {
		t.Error("count lost its plan in the optimizer")
	}
}
