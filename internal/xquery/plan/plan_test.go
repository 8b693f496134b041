package plan

import (
	"reflect"
	"testing"

	"repro/internal/dom"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// plannedBody parses and plans src and returns its body.
func plannedBody(t *testing.T, src string) (*ast.Module, ast.Expr) {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	m.EnsurePlanned(func() { Annotate(m) })
	return m, m.Body
}

// lastStepOf returns the last step of the first path found in e,
// looking through the wrappers the test queries use.
func lastStepOf(t *testing.T, e ast.Expr) ast.Step {
	t.Helper()
	switch x := e.(type) {
	case ast.Path:
		return x.Steps[len(x.Steps)-1]
	case ast.FuncCall:
		return lastStepOf(t, x.Args[0])
	case ast.FLWOR:
		return lastStepOf(t, x.Return)
	case ast.Block:
		return lastStepOf(t, x.Stmts[len(x.Stmts)-1])
	}
	t.Fatalf("no path in %T", e)
	return ast.Step{}
}

func TestClassifyPredicates(t *testing.T) {
	a, pa := dom.Name("a"), dom.QName{Space: "urn:p", Prefix: "p", Local: "a"}
	// A key compares as its source text (ast.Unparse), held in a
	// StringLit: the text has no source positions.
	cmp := func(attr dom.QName, key string, value bool) ast.PredPlan {
		return ast.PredPlan{Kind: ast.PredAttrCmp, Attr: attr, Key: ast.StringLit{Val: key}, Value: value}
	}
	stream, sized := ast.PredPlan{Kind: ast.PredStream}, ast.PredPlan{Kind: ast.PredSized}
	bounded := func(n int64) ast.PredPlan { return ast.PredPlan{Kind: ast.PredBounded, Bound: n} }
	const prolog = `declare namespace p = "urn:p"; declare variable $v external;
		declare function local:f() { "k" }; `
	for _, c := range []struct {
		src  string
		want []ast.PredPlan
	}{
		// The attribute comparison, all four spellings.
		{`x[@a = "k"]`, []ast.PredPlan{cmp(a, `"k"`, false)}},
		{`x["k" = @a]`, []ast.PredPlan{cmp(a, `"k"`, false)}},
		{`x[@a eq "k"]`, []ast.PredPlan{cmp(a, `"k"`, true)}},
		{`x["k" eq @a]`, []ast.PredPlan{cmp(a, `"k"`, true)}},
		{`x[@a = ""]`, []ast.PredPlan{cmp(a, `""`, false)}},
		{`x[@p:a = $v]`, []ast.PredPlan{cmp(pa, `$v`, false)}},
		{`x[$v eq @a]`, []ast.PredPlan{cmp(a, `$v`, true)}},
		// Any key that reads nothing of the candidate, does nothing and
		// names no assigned variable: what it turns out to be at run
		// time is the kernel's to check.
		{`x[@a = 1]`, []ast.PredPlan{cmp(a, `1`, false)}},
		{`x[@a = ("k", "l")]`, []ast.PredPlan{cmp(a, `("k", "l")`, false)}},
		{`x[@a = concat("k", $v)]`, []ast.PredPlan{cmp(a, `fn:concat("k", $v)`, false)}},
		{`x[@a = $v/@id]`, []ast.PredPlan{cmp(a, `$v/attribute::id`, false)}},
		{`x[string($v) eq @a]`, []ast.PredPlan{cmp(a, `fn:string($v)`, true)}},
		{`x[@a = ("k" cast as xs:integer)]`, []ast.PredPlan{cmp(a, `"k" cast as xs:integer`, false)}},
		{`x[@a = ()]`, []ast.PredPlan{cmp(a, `()`, false)}},
		// A key that reads the candidate, resolves a document, builds a
		// node or calls what the library does not vouch for stays generic.
		{`x[@a = string(.)]`, []ast.PredPlan{stream}},
		{`x[@a = string()]`, []ast.PredPlan{stream}},
		{`x[@a = position()]`, []ast.PredPlan{stream}},
		{`x[@a = /r/@k]`, []ast.PredPlan{stream}},
		{`x[@a = doc("u")/r/@k]`, []ast.PredPlan{stream}},
		{`x[@a = <k/>]`, []ast.PredPlan{stream}},
		{`x[@a = local:f()]`, []ast.PredPlan{stream}},
		{`x[@a = xs:integer("k")]`, []ast.PredPlan{stream}},
		// Everything else about the comparison's shape stays generic.
		{`x[@a != "k"]`, []ast.PredPlan{stream}},
		{`x[@a < "k"]`, []ast.PredPlan{stream}},
		{`x[@* = "k"]`, []ast.PredPlan{stream}},
		{`x[@*:a = "k"]`, []ast.PredPlan{stream}},
		{`x[@a[1] = "k"]`, []ast.PredPlan{stream}},
		{`x[./@a = "k"]`, []ast.PredPlan{stream}},
		{`x[y/@a = "k"]`, []ast.PredPlan{stream}},
		{`x[a = "k"]`, []ast.PredPlan{stream}},
		{`x[@a = @b]`, []ast.PredPlan{stream}},
		{`x[$v = $v]`, []ast.PredPlan{stream}},
		{`x[@a = "k" and @b]`, []ast.PredPlan{stream}},
		{`x[@a]`, []ast.PredPlan{stream}},
		// Positions and sizes.
		{`x[1]`, []ast.PredPlan{bounded(1)}},
		{`x[0]`, []ast.PredPlan{bounded(0)}},
		{`x[position() < 4]`, []ast.PredPlan{bounded(3)}},
		{`x[position() le 4]`, []ast.PredPlan{bounded(4)}},
		{`x[4 >= position()]`, []ast.PredPlan{bounded(4)}},
		{`x[position() = 2]`, []ast.PredPlan{bounded(2)}},
		{`x[position() > 2]`, []ast.PredPlan{stream}},
		{`x[$v]`, []ast.PredPlan{stream}},
		{`x[last()]`, []ast.PredPlan{sized}},
		{`x[position() = last() - 1]`, []ast.PredPlan{sized}},
		{`x[@a = "k"][last()][2]`, []ast.PredPlan{cmp(a, `"k"`, false), sized, bounded(2)}},
		// Filter steps are classified like axis steps.
		{`(x, y)[@a = "k"][1]`, []ast.PredPlan{cmp(a, `"k"`, false), bounded(1)}},
	} {
		_, body := plannedBody(t, prolog+c.src)
		got := lastStepOf(t, body).PredPlans
		for i := range got {
			if got[i].Key != nil {
				src, _ := ast.Unparse(got[i].Key)
				got[i].Key = ast.StringLit{Val: src}
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: plans = %+v, want %+v", c.src, got, c.want)
		}
	}
}

// TestAssignedVariableKeysStayGeneric: the kernel reads a variable key
// once per step evaluation, which equals reading it per candidate only
// while nothing can assign the variable — and an assignment anywhere in
// the module, before or after the predicate, in this unit or another,
// might.
func TestAssignedVariableKeysStayGeneric(t *testing.T) {
	for _, c := range []struct {
		src  string
		want ast.PredKind
	}{
		{`declare variable $k := "1"; { //x[@a = $k]; }`, ast.PredAttrCmp},
		{`declare variable $k := "1"; { set $k := "2"; //x[@a = $k]; }`, ast.PredStream},
		{`declare variable $k := "1"; { declare variable $r := //x[@a = $k]; set $k := "2"; //x[@a = $k]; }`, ast.PredStream},
		{`declare variable $k := "1";
		  declare sequential function local:f() { set $k := "2"; };
		  { //x[@a = $k]; }`, ast.PredStream},
		{`declare variable $k := "1"; declare variable $j := "1"; { set $j := "2"; //x[@a = $k]; }`, ast.PredAttrCmp},
		{`declare variable $k := "1"; { set $k := "2"; //x[@a = "lit"]; }`, ast.PredAttrCmp},
		// A computed key is held to the same rule through every variable
		// it names.
		{`declare variable $k := "1"; { //x[@a = concat("i", $k)]; }`, ast.PredAttrCmp},
		{`declare variable $k := "1"; { set $k := "2"; //x[@a = concat("i", $k)]; }`, ast.PredStream},
		{`declare variable $k := "1"; { set $k := "2"; //x[@a = (for $j in 1 to 2 return $k)]; }`, ast.PredStream},
	} {
		_, body := plannedBody(t, c.src)
		step := lastStepOf(t, body)
		if got := step.PredPlan(0).Kind; got != c.want {
			t.Errorf("%s: kind = %d, want %d", c.src, got, c.want)
		}
	}
}

func stepShape(steps []ast.Step) []string {
	var out []string
	for _, s := range steps {
		switch {
		case s.Primary != nil:
			out = append(out, "primary")
		case s.Test.AnyNode:
			out = append(out, s.Axis.String()+"::node()")
		default:
			out = append(out, s.Axis.String()+"::"+s.Test.Name.Local)
		}
	}
	return out
}

// TestVariableIDKeysProbeUnlessAssigned: an [@id = $v] step probes the
// id map while nothing assigns $v; an assignment anywhere turns the
// key generic again, and the step chooses its access again — the name
// index, or a scan for a wildcard.
func TestVariableIDKeysProbeUnlessAssigned(t *testing.T) {
	for _, c := range []struct {
		src  string
		want ast.AccessMethod
	}{
		{`declare variable $k := "1"; { //x[@id = $k]; }`, ast.AccessIndexID},
		{`declare variable $k := "1"; { //x[$k eq @id]; }`, ast.AccessIndexID},
		{`declare variable $k := "1"; { //*[@id = $k]; }`, ast.AccessIndexID},
		{`declare variable $k := "1"; { set $k := "2"; //x[@id = $k]; }`, ast.AccessIndexName},
		{`declare variable $k := "1"; { set $k := "2"; //*[@id = $k]; }`, ast.AccessScan},
		{`declare variable $k := "1";
		  declare sequential function local:f() { set $k := "2"; };
		  { //x[@id = $k]; }`, ast.AccessIndexName},
		{`declare variable $k := "1"; declare variable $j := "1"; { set $j := "2"; //x[@id = $k]; }`, ast.AccessIndexID},
		{`declare variable $k := "1"; { //x[@a = $k]; }`, ast.AccessIndexName},
		{`declare variable $k := "1"; { //x[@a = $k][@id = $k]; }`, ast.AccessIndexName},
	} {
		_, body := plannedBody(t, c.src)
		if got := lastStepOf(t, body).Access; got != c.want {
			t.Errorf("%s: access = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestMergeAtPlanTime: the planned module holds the steps the
// evaluator runs — "//" is one descendant step where X's predicates
// are position-free and the parser's two steps where they are not —
// with the access method chosen on the merged step.
func TestMergeAtPlanTime(t *testing.T) {
	for _, c := range []struct {
		src    string
		steps  []string
		access ast.AccessMethod
	}{
		{`//div`, []string{"descendant::div"}, ast.AccessIndexName},
		{`//div[@id]`, []string{"descendant::div"}, ast.AccessIndexName},
		{`//div[@id = "k"]`, []string{"descendant::div"}, ast.AccessIndexID},
		{`//div["k" eq @id]`, []string{"descendant::div"}, ast.AccessIndexID},
		{`//div[@id = ""]`, []string{"descendant::div"}, ast.AccessIndexID}, // "" finds no id: the run probes the names
		{`//div[@class = "k"]`, []string{"descendant::div"}, ast.AccessIndexName},
		{`//*[@id = "k"]`, []string{"descendant::*"}, ast.AccessIndexID},
		{`//div[1]`, []string{"descendant-or-self::node()", "child::div"}, ast.AccessScan},
		{`//div[last()]`, []string{"descendant-or-self::node()", "child::div"}, ast.AccessScan},
		{`//div[@id = "k"][1]`, []string{"descendant-or-self::node()", "child::div"}, ast.AccessScan},
		{`//div[position() < 3]`, []string{"descendant-or-self::node()", "child::div"}, ast.AccessScan},
		{`/html//div/p//a[@href]`, []string{"child::html", "descendant::div", "child::p", "descendant::a"}, ast.AccessIndexName},
		{`$v//issue[@id = $v]`, []string{"primary", "descendant::issue"}, ast.AccessIndexID},
		{`//@id`, []string{"descendant-or-self::node()", "attribute::id"}, ast.AccessScan},
		{`child::div[@id = "k"]`, []string{"child::div"}, ast.AccessScan},
	} {
		_, body := plannedBody(t, `declare variable $v external; `+c.src)
		p := body.(ast.Path)
		if got := stepShape(p.Steps); !reflect.DeepEqual(got, c.steps) {
			t.Errorf("%s: steps = %v, want %v", c.src, got, c.steps)
		}
		if got := p.Steps[len(p.Steps)-1].Access; got != c.access {
			t.Errorf("%s: access = %v, want %v", c.src, got, c.access)
		}
	}
}

// TestAnnotateReachesEveryPath: paths are planned wherever they sit —
// prolog initialisers, function bodies, predicates of other paths,
// constructors, updates, full-text word sources.
func TestAnnotateReachesEveryPath(t *testing.T) {
	m, _ := plannedBody(t, `
declare variable $g := //a[@id = "g"];
declare updating function local:f($x) { delete nodes //b[@id = $x] };
(<e k="{//c[@id = "c"]}">{//d[@id = "d"]}</e>,
 //e[.//f[@id = "f"]],
 //h[. ftcontains {//i[@id = "i"]/string()} any])`)
	var ids []string
	var visit func(e ast.Expr) ast.Expr
	visit = func(e ast.Expr) ast.Expr {
		if p, ok := e.(ast.Path); ok {
			for i := range p.Steps {
				if pp := p.Steps[i].PredPlan(0); pp.Kind == ast.PredAttrCmp && p.Steps[i].Axis == ast.AxisDescendant {
					ids = append(ids, p.Steps[i].Test.Name.Local)
				}
			}
		}
		return ast.MapChildren(e, visit)
	}
	visit(m.Prolog.Vars[0].Init)
	visit(m.Prolog.Functions[0].Body)
	visit(m.Body)
	if want := []string{"a", "b", "c", "d", "f", "i"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("merged, kernel-planned steps = %v, want %v", ids, want)
	}
}

// TestAnnotateIdempotent: planning a planned module — the harness
// calls Annotate on modules of its own more than once — changes
// nothing, and EnsurePlanned runs the planner once.
func TestAnnotateIdempotent(t *testing.T) {
	const src = `declare variable $v external;
for $a in $v//issue[@id = $v]/article[1] where $a/@year = "2008" return //div[@id = "k"][last()]//p[2]`
	m, once := plannedBody(t, src)
	runs := 0
	m.EnsurePlanned(func() { runs++ })
	if runs != 0 {
		t.Fatal("EnsurePlanned planned a planned module again")
	}
	Annotate(m)
	if !reflect.DeepEqual(m.Body, once) {
		t.Errorf("second Annotate changed the module:\n%+v\nwas\n%+v", m.Body, once)
	}
}

// TestPushdownPlansThePushedPredicate: a where conjunct the optimizer
// moves into a path is classified there, the step's access method is
// chosen again, and the predicates the planner had already classified
// keep their plans.
func TestPushdownPlansThePushedPredicate(t *testing.T) {
	_, body := plannedBody(t, `declare variable $v external;
for $b in //book[@year = $v] where $b/@id = "b2" return $b`)
	opt := Optimize(body, nil).(ast.FLWOR)
	step := lastStepOf(t, opt.Clauses[0].In)
	if len(step.Preds) != 2 || step.PredPlan(0).Kind != ast.PredAttrCmp || step.PredPlan(1).Kind != ast.PredAttrCmp {
		t.Fatalf("pushed step: %d predicates, plans %+v", len(step.Preds), step.PredPlans)
	}
	if _, isVar := step.PredPlan(0).Key.(ast.VarRef); !isVar {
		t.Errorf("the planner's variable-keyed plan did not survive the pushdown: %+v", step.PredPlan(0))
	}

	// Pushed first, an id comparison upgrades the step to an id probe.
	_, body = plannedBody(t, `for $b in //book where $b/@id = "b2" return $b`)
	step = lastStepOf(t, Optimize(body, nil).(ast.FLWOR).Clauses[0].In)
	pp := step.PredPlan(0)
	if key, ok := pp.Key.(ast.StringLit); step.Access != ast.AccessIndexID || pp.Kind != ast.PredAttrCmp ||
		pp.Attr != dom.Name("id") || !ok || key.Val != "b2" {
		t.Errorf("access = %v, first predicate plan %+v", step.Access, pp)
	}

	// A pushed variable key stays generic where no module is in sight:
	// every variable then counts as assigned.
	const pushedVar = `declare variable $v external; for $b in //book where $b/@id = $v return $b`
	_, body = plannedBody(t, pushedVar)
	step = lastStepOf(t, Optimize(body, nil).(ast.FLWOR).Clauses[0].In)
	if len(step.Preds) != 1 || step.PredPlan(0).Kind != ast.PredStream {
		t.Errorf("pushed variable key: plans %+v", step.PredPlans)
	}

	// Prepared with its module, the same key is one the module never
	// assigns, and a computed one reads nothing of the candidate: both
	// probe the id map; an assigned one stays generic.
	for _, c := range []struct {
		src    string
		kind   ast.PredKind
		access ast.AccessMethod
	}{
		{pushedVar, ast.PredAttrCmp, ast.AccessIndexID},
		{`declare variable $v external; for $b in //book where $b/@id = concat("b", $v) return $b`,
			ast.PredAttrCmp, ast.AccessIndexID},
		{`declare variable $v external; declare function local:f() { $v := "b1" };
		  for $b in //book where $b/@id = $v return $b`, ast.PredStream, ast.AccessIndexName},
	} {
		m, err := parser.ParseModule(c.src)
		if err != nil {
			t.Fatal(err)
		}
		Prepare(m)
		step = lastStepOf(t, m.Optimized.(ast.FLWOR).Clauses[0].In)
		if pp := step.PredPlan(0); len(step.Preds) != 1 || pp.Kind != c.kind || step.Access != c.access {
			t.Errorf("%s: prepared: access %v, plans %+v", c.src, step.Access, step.PredPlans)
		}
	}
}

// TestStreamDomain: the planner lets a FLWOR or quantifier stream its
// domains exactly when evaluating it cannot apply an update before it
// ends (the midLoop column): updates that wait for the end do not stop
// it, a sequential or scripted call, an event statement or a call
// nobody can answer for does — in the domain as in the body.
func TestStreamDomain(t *testing.T) {
	const fns = `declare sequential function local:seq() { 1 };
		declare function local:scripted() { exit returning 1 };
		declare function local:pure($x) { $x };
		declare sequential function local:l($evt, $obj) { () }; `
	for _, c := range []struct {
		src    string
		stream bool
	}{
		{`for $x in //a return $x/@id`, true},
		{`for $x in //a let $y := local:pure($x) where $y return $y`, true},
		{`for $x in //a return insert node <b/> into $x`, true},
		{`for $x in //a return local:seq()`, false},
		{`for $x in local:seq() return $x`, false},
		{`for $x in //a order by local:scripted() return $x`, false},
		{`for $x in //a return on event "e" at $x attach listener local:l`, false},
		{`for $x in //a return browser:alert("x")`, false},
		{`some $x in //a satisfies exists($x)`, true},
		{`some $x in //a, $y in $x/b satisfies local:seq()`, false},
		{`every $x in //a satisfies $x/@id = "1"`, true},
		{`every $x in local:scripted() satisfies $x`, false},
		{`every $x in //a satisfies browser:alert("x")`, false},
	} {
		m, body := plannedBody(t, fns+c.src)
		var got bool
		switch x := body.(type) {
		case ast.FLWOR:
			got = x.StreamDomain
		case ast.Quantified:
			got = x.StreamDomain
		default:
			t.Fatalf("%s: planned to %T", c.src, body)
		}
		if clear := newInference(m).infer(body).eff&midLoop == 0; got != c.stream || got != clear {
			t.Errorf("%s: StreamDomain %v, want %v (midLoop clear: %v)", c.src, got, c.stream, clear)
		}
	}
}
