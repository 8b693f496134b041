package parser

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

func parseOne(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestLiteralShapes(t *testing.T) {
	if _, ok := parseOne(t, `"s"`).(ast.StringLit); !ok {
		t.Error("string literal shape")
	}
	if e, ok := parseOne(t, `42`).(ast.IntLit); !ok || e.Val != 42 {
		t.Error("int literal shape")
	}
	if e, ok := parseOne(t, `4.2`).(ast.DecimalLit); !ok || e.Val != "4.2" {
		t.Error("decimal literal shape")
	}
	if _, ok := parseOne(t, `1e2`).(ast.DoubleLit); !ok {
		t.Error("double literal shape")
	}
	if _, ok := parseOne(t, `$x`).(ast.VarRef); !ok {
		t.Error("var ref shape")
	}
	if _, ok := parseOne(t, `.`).(ast.ContextItem); !ok {
		t.Error("context item shape")
	}
	if e, ok := parseOne(t, `()`).(ast.SeqExpr); !ok || len(e.Items) != 0 {
		t.Error("empty sequence shape")
	}
}

func TestPrecedence(t *testing.T) {
	// 1 + 2 * 3 parses as 1 + (2 * 3).
	e := parseOne(t, `1 + 2 * 3`).(ast.Binary)
	if e.Op != "+" {
		t.Fatalf("top op = %s", e.Op)
	}
	if r, ok := e.R.(ast.Binary); !ok || r.Op != "*" {
		t.Errorf("right = %#v", e.R)
	}
	// or binds looser than and.
	o := parseOne(t, `1 or 2 and 3`).(ast.Binary)
	if o.Op != "or" {
		t.Fatalf("top = %s", o.Op)
	}
	if r, ok := o.R.(ast.Binary); !ok || r.Op != "and" {
		t.Errorf("right = %#v", o.R)
	}
	// comparison binds looser than range.
	c := parseOne(t, `1 to 3 = 2`).(ast.Compare)
	if _, ok := c.L.(ast.Range); !ok {
		t.Errorf("left of = should be range: %#v", c.L)
	}
	// unary binds tighter than *.
	u := parseOne(t, `-1 * 2`).(ast.Binary)
	if _, ok := u.L.(ast.Unary); !ok {
		t.Errorf("left of * should be unary: %#v", u.L)
	}
}

func TestComparisonKinds(t *testing.T) {
	tests := []struct {
		src  string
		kind ast.CompareKind
		op   string
	}{
		{`1 = 2`, ast.GeneralComp, "="},
		{`1 != 2`, ast.GeneralComp, "!="},
		{`1 eq 2`, ast.ValueComp, "eq"},
		{`1 lt 2`, ast.ValueComp, "lt"},
		{`$a is $b`, ast.NodeComp, "is"},
		{`$a << $b`, ast.NodeComp, "<<"},
		{`$a >> $b`, ast.NodeComp, ">>"},
	}
	for _, tt := range tests {
		c, ok := parseOne(t, tt.src).(ast.Compare)
		if !ok || c.Kind != tt.kind || c.Op != tt.op {
			t.Errorf("%q = %#v", tt.src, c)
		}
	}
}

func TestPathShapes(t *testing.T) {
	p := parseOne(t, `/a/b`).(ast.Path)
	if !p.Absolute || len(p.Steps) != 2 {
		t.Fatalf("path = %#v", p)
	}
	if p.Steps[0].Axis != ast.AxisChild || p.Steps[0].Test.Name.Local != "a" {
		t.Errorf("step 0 = %#v", p.Steps[0])
	}

	p2 := parseOne(t, `//b`).(ast.Path)
	if !p2.Absolute || len(p2.Steps) != 2 || p2.Steps[0].Axis != ast.AxisDescendantOrSelf {
		t.Errorf("//b = %#v", p2)
	}

	p3 := parseOne(t, `a//@c`).(ast.Path)
	if p3.Absolute || len(p3.Steps) != 3 || p3.Steps[2].Axis != ast.AxisAttribute {
		t.Errorf("a//@c = %#v", p3)
	}

	// Lone slash.
	p4 := parseOne(t, `/`).(ast.Path)
	if !p4.Absolute || len(p4.Steps) != 0 {
		t.Errorf("/ = %#v", p4)
	}
}

func TestAxes(t *testing.T) {
	for name, axis := range map[string]ast.Axis{
		"child": ast.AxisChild, "descendant": ast.AxisDescendant,
		"attribute": ast.AxisAttribute, "self": ast.AxisSelf,
		"descendant-or-self": ast.AxisDescendantOrSelf,
		"following-sibling":  ast.AxisFollowingSibling,
		"following":          ast.AxisFollowing, "parent": ast.AxisParent,
		"ancestor":          ast.AxisAncestor,
		"preceding-sibling": ast.AxisPrecedingSibling,
		"preceding":         ast.AxisPreceding,
		"ancestor-or-self":  ast.AxisAncestorOrSelf,
	} {
		p := parseOne(t, name+`::node()`).(ast.Path)
		if p.Steps[0].Axis != axis {
			t.Errorf("%s axis = %v", name, p.Steps[0].Axis)
		}
	}
	if _, err := ParseExpr(`bogus::x`); err == nil {
		t.Error("unknown axis should fail")
	}
}

func TestNodeTests(t *testing.T) {
	p := parseOne(t, `*`).(ast.Path)
	if !p.Steps[0].Test.IsName || !p.Steps[0].Test.AnySpace || p.Steps[0].Test.Name.Local != "*" {
		t.Errorf("* = %#v", p.Steps[0].Test)
	}
	p = parseOne(t, `text()`).(ast.Path)
	if p.Steps[0].Test.Kind != xdm.TTextNode {
		t.Errorf("text() = %#v", p.Steps[0].Test)
	}
	p = parseOne(t, `element(book)`).(ast.Path)
	tst := p.Steps[0].Test
	if tst.Kind != xdm.TElementNode || !tst.HasName || tst.KindName.Local != "book" {
		t.Errorf("element(book) = %#v", tst)
	}
	p = parseOne(t, `attribute(id)`).(ast.Path)
	if p.Steps[0].Axis != ast.AxisAttribute {
		t.Error("attribute() kind test must default to the attribute axis")
	}
	p = parseOne(t, `processing-instruction(php)`).(ast.Path)
	if p.Steps[0].Test.PITarget != "php" {
		t.Errorf("pi test = %#v", p.Steps[0].Test)
	}
}

func TestPredicates(t *testing.T) {
	p := parseOne(t, `a[1][@x = "v"]`).(ast.Path)
	if len(p.Steps[0].Preds) != 2 {
		t.Errorf("preds = %d", len(p.Steps[0].Preds))
	}
}

func TestFLWORShape(t *testing.T) {
	e := parseOne(t, `for $x at $i in (1,2), $y in (3) let $z := $x + $y
		where $z > 2 stable order by $z descending empty greatest, $x
		return $z`).(ast.FLWOR)
	if len(e.Clauses) != 3 {
		t.Fatalf("clauses = %d", len(e.Clauses))
	}
	if !e.Clauses[0].For || e.Clauses[0].PosVar.Local != "i" {
		t.Errorf("clause 0 = %#v", e.Clauses[0])
	}
	if e.Clauses[2].For {
		t.Error("clause 2 should be let")
	}
	if e.Where == nil || len(e.OrderBy) != 2 {
		t.Error("where/order by missing")
	}
	if !e.OrderBy[0].Descending || !e.OrderBy[0].EmptySet || e.OrderBy[0].EmptyLeast {
		t.Errorf("order spec = %#v", e.OrderBy[0])
	}
}

func TestTypeDeclarations(t *testing.T) {
	e := parseOne(t, `for $x as xs:integer+ in (1,2) return $x`).(ast.FLWOR)
	if e.Clauses[0].Type == nil || e.Clauses[0].Type.Occ != xdm.OneOrMore {
		t.Errorf("typed for = %#v", e.Clauses[0].Type)
	}
}

func TestQuantifiedShape(t *testing.T) {
	q := parseOne(t, `some $x in (1,2), $y in (3,4) satisfies $x > $y`).(ast.Quantified)
	if q.Every || len(q.Vars) != 2 {
		t.Errorf("quantified = %#v", q)
	}
	q2 := parseOne(t, `every $x in () satisfies true()`).(ast.Quantified)
	if !q2.Every {
		t.Error("every flag")
	}
}

func TestConstructorShapes(t *testing.T) {
	e := parseOne(t, `<a x="1" y="{2}">t{3}<b/></a>`).(ast.DirElem)
	if e.Name.Local != "a" || len(e.Attrs) != 2 || len(e.Content) != 3 {
		t.Fatalf("constructor = %#v", e)
	}
	if len(e.Attrs[1].Pieces) != 1 {
		t.Errorf("attr pieces = %#v", e.Attrs[1])
	}
	cc := parseOne(t, `element {$n} {1}`).(ast.CompConstructor)
	if cc.Kind != xdm.TElementNode || cc.NameExpr == nil {
		t.Errorf("computed elem = %#v", cc)
	}
}

func TestConstructorNamespaceScope(t *testing.T) {
	e := parseOne(t, `<p:a xmlns:p="urn:p"><p:b/></p:a>`).(ast.DirElem)
	if e.Name.Space != "urn:p" {
		t.Errorf("element ns = %q", e.Name.Space)
	}
	inner := e.Content[0].(ast.DirElem)
	if inner.Name.Space != "urn:p" {
		t.Errorf("inner ns = %q", inner.Name.Space)
	}
	// The declaration does not leak outside.
	if _, err := ParseExpr(`(<a xmlns:q="urn:q"/>, q:f())`); err == nil {
		t.Error("constructor namespace must not leak")
	}
}

func TestUpdateShapes(t *testing.T) {
	i := parseOne(t, `insert node <x/> as first into $t`).(ast.Insert)
	if i.Pos != ast.IntoFirst {
		t.Errorf("insert pos = %v", i.Pos)
	}
	i2 := parseOne(t, `insert node <x/> into $t as last`).(ast.Insert)
	if i2.Pos != ast.IntoLast {
		t.Errorf("postfix insert pos = %v", i2.Pos)
	}
	r := parseOne(t, `replace value of node $t with 5`).(ast.Replace)
	if !r.ValueOf {
		t.Error("value-of flag")
	}
	if _, ok := parseOne(t, `delete nodes //a`).(ast.Delete); !ok {
		t.Error("delete shape")
	}
	if _, ok := parseOne(t, `rename node $t as "n"`).(ast.Rename); !ok {
		t.Error("rename shape")
	}
	tr := parseOne(t, `copy $a := $x, $b := $y modify delete node $a/z return $a`).(ast.Transform)
	if len(tr.Bindings) != 2 {
		t.Errorf("transform bindings = %d", len(tr.Bindings))
	}
	// "do" prefix is transparent.
	if _, ok := parseOne(t, `do replace value of node $t with 1`).(ast.Replace); !ok {
		t.Error("do replace shape")
	}
}

func TestScriptingShapes(t *testing.T) {
	b := parseOne(t, `{ declare variable $x := 1; set $x := 2; $x; }`).(ast.Block)
	if len(b.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(b.Stmts))
	}
	if _, ok := b.Stmts[0].(ast.BlockDecl); !ok {
		t.Error("decl shape")
	}
	if _, ok := b.Stmts[1].(ast.Assign); !ok {
		t.Error("assign shape")
	}
	if _, ok := parseOne(t, `$x := 5`).(ast.Assign); !ok {
		t.Error("bare assignment shape")
	}
	w := parseOne(t, `while ($x < 3) { set $x := $x + 1; }`).(ast.While)
	if _, ok := w.Body.(ast.Block); !ok {
		t.Error("while body shape")
	}
	if _, ok := parseOne(t, `exit with 5`).(ast.Exit); !ok {
		t.Error("exit shape")
	}
	if _, ok := parseOne(t, `exit returning 5`).(ast.Exit); !ok {
		t.Error("exit returning shape")
	}
}

func TestBrowserExtensionShapes(t *testing.T) {
	a := parseOne(t, `on event "click" at //b attach listener local:f`).(ast.EventAttach)
	if a.Behind || a.Listener.Local != "f" {
		t.Errorf("attach = %#v", a)
	}
	bh := parseOne(t, `on event "x" behind f() attach listener local:g`).(ast.EventAttach)
	if !bh.Behind {
		t.Error("behind flag")
	}
	if _, ok := parseOne(t, `on event "click" at //b detach listener local:f`).(ast.EventDetach); !ok {
		t.Error("detach shape")
	}
	if _, ok := parseOne(t, `trigger event "click" at //b`).(ast.EventTrigger); !ok {
		t.Error("trigger shape")
	}
	if _, ok := parseOne(t, `set style "color" of //d to "red"`).(ast.SetStyle); !ok {
		t.Error("set style shape")
	}
	// "to" ends the target only at the target's own level: inside
	// brackets and argument lists it is the range operator again.
	for _, src := range []string{
		`set style "color" of //div[position() = (1 to 2)] to "red"`,
		`set style "color" of local:f(1 to 2) to "red"`,
		`set style "color" of (//div)[for $i in 1 to 2 return $i] to "red"`,
		`set style "color" of { declare variable $n := 1 to 2; //div[$n] } to "red"`,
	} {
		s, ok := parseOne(t, src).(ast.SetStyle)
		if !ok {
			t.Errorf("%q: not a set style", src)
			continue
		}
		if v, ok := s.Value.(ast.StringLit); !ok || v.Val != "red" {
			t.Errorf("%q: value = %#v", src, s.Value)
		}
	}
	if _, ok := parseOne(t, `get style "color" of //d`).(ast.GetStyle); !ok {
		t.Error("get style shape")
	}
	// behind+detach is rejected.
	if _, err := ParseExpr(`on event "x" behind f() detach listener local:g`); err == nil {
		t.Error("behind detach must fail")
	}
}

func TestFTSelectionShapes(t *testing.T) {
	f := parseOne(t, `. ftcontains ("dog" with stemming) ftand "cat" ftor ftnot "x"`).(ast.FTContains)
	or, ok := f.Sel.(ast.FTOr)
	if !ok {
		t.Fatalf("sel = %#v", f.Sel)
	}
	and, ok := or.L.(ast.FTAnd)
	if !ok {
		t.Fatalf("or.L = %#v", or.L)
	}
	w, ok := and.L.(ast.FTWords)
	if !ok || !w.Opts.Stemming {
		t.Errorf("and.L = %#v", and.L)
	}
	if _, ok := or.R.(ast.FTNot); !ok {
		t.Errorf("or.R = %#v", or.R)
	}
}

func TestKeywordsAsNames(t *testing.T) {
	// XQuery has no reserved words: these parse as paths.
	for _, src := range []string{`for`, `if`, `div`, `return`, `insert`, `delete/node2`} {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("%q should parse as a path: %v", src, err)
		}
	}
	// "div" as operator vs name.
	e := parseOne(t, `div div div`).(ast.Binary)
	if e.Op != "div" {
		t.Errorf("div div div = %#v", e)
	}
}

func TestModuleParsing(t *testing.T) {
	m, err := ParseModule(`xquery version "1.0" encoding "utf-8";
		module namespace ex = "urn:ex" port:2001;
		declare namespace other = "urn:o";
		declare variable $ex:v := 5;
		declare function ex:f($a as xs:integer) as xs:integer { $a };
		declare option fn:webservice "true";`)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsLibrary || m.Prefix != "ex" || m.URI != "urn:ex" || m.Port != 2001 {
		t.Errorf("module header = %+v", m)
	}
	if len(m.Prolog.Vars) != 1 || len(m.Prolog.Functions) != 1 {
		t.Errorf("prolog = %+v", m.Prolog)
	}
	if m.Prolog.Options["fn:webservice"] != "true" {
		t.Errorf("options = %v", m.Prolog.Options)
	}
	if m.Prolog.Namespaces["other"] != "urn:o" {
		t.Errorf("namespaces = %v", m.Prolog.Namespaces)
	}
}

func TestMainModuleStatements(t *testing.T) {
	m, err := ParseModule(`declare variable $x := 1; $x + 1; $x + 2`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Body.(ast.Block); !ok {
		t.Errorf("multi-statement body = %#v", m.Body)
	}
	m2, err := ParseModule(`declare function local:f() { 1 };`)
	if err != nil {
		t.Fatal(err)
	}
	if seq, ok := m2.Body.(ast.SeqExpr); !ok || len(seq.Items) != 0 {
		t.Errorf("empty body = %#v", m2.Body)
	}
}

func TestImportParsing(t *testing.T) {
	m, err := ParseModule(`import module namespace ab = "urn:svc" at "http://h/wsdl", "http://h2/wsdl";
		ab:f()`)
	if err != nil {
		t.Fatal(err)
	}
	imp := m.Prolog.Imports[0]
	if imp.Prefix != "ab" || imp.URI != "urn:svc" || len(imp.Hints) != 2 {
		t.Errorf("import = %+v", imp)
	}
}

func TestFunctionDeclFlags(t *testing.T) {
	m, err := ParseModule(`
		declare updating function local:u() { delete node //x };
		declare sequential function local:s() { exit with 1; };
		declare function local:p() { 1 };`)
	if err != nil {
		t.Fatal(err)
	}
	fns := m.Prolog.Functions
	if !fns[0].Updating || fns[1].Updating {
		t.Error("updating flags wrong")
	}
	if !fns[1].Sequential || fns[0].Sequential {
		t.Error("sequential flags wrong")
	}
	// Unprefixed declared functions land in local:.
	m2, err := ParseModule(`declare function f() { 1 }; 2`)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Prolog.Functions[0].Name.Space != LocalNamespace {
		t.Errorf("unprefixed function ns = %q", m2.Prolog.Functions[0].Name.Space)
	}
}

func TestSequenceTypes(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`$x instance of xs:integer`, "xs:integer"},
		{`$x instance of xs:string?`, "xs:string?"},
		{`$x instance of item()*`, "item()*"},
		{`$x instance of node()+`, "node()+"},
		{`$x instance of element()`, "element()"},
		{`$x instance of element(book)`, "element(book)"},
		{`$x instance of document-node()`, "document-node()"},
		{`$x instance of empty-sequence()`, "empty-sequence()"},
	}
	for _, tt := range cases {
		e := parseOne(t, tt.src).(ast.InstanceOf)
		if got := e.Type.String(); got != tt.want {
			t.Errorf("%q type = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	// Note: the empty string is a VALID module (prolog-only browser
	// scripts have no body, §5.1), so it is not in this list.
	bad := []string{
		`1 +`, `(1`, `for $x return 1`, `if (1) then 2`,
		`let $x = 1 return $x`, // let needs :=
		`<a>`, `<a></b>`, `<a x=5/>`, `<a>{</a>`,
		`some $x satisfies 1`, `typeswitch (1) default return 2`,
		`unknown:prefix`, `$`, `copy $x modify 1 return 1`,
		`on event "x" at //y attach local:f`, // missing "listener"
		`xquery version 1.0; 2`,              // version needs a string
		`declare variable x := 1; 2`,         // missing $
		`1 instance of xs:nosuchtype`,
	}
	for _, src := range bad {
		if _, err := ParseModule(src); err == nil {
			t.Errorf("%q should fail to parse", src)
		}
	}
}

// TestDuplicatePrologDeclarations: a prolog declares a global name once
// (XQST0049) and a function name and arity once (XQST0034). The error
// stands at the second declaration; a same-named function of another
// arity is a declaration of its own.
func TestDuplicatePrologDeclarations(t *testing.T) {
	for _, tc := range []struct {
		src       string
		line, col int
		msg       string
	}{
		{"declare variable $g := 1;\ndeclare variable $g := 2;\n$g", 2, 1,
			"duplicate declaration of variable $g"},
		{"declare variable $g external;\n  declare variable $g as xs:integer := 2; 1", 2, 3,
			"duplicate declaration of variable $g"},
		{"declare function local:f() { 1 };\ndeclare function f() { 2 };\nlocal:f()", 2, 1,
			"duplicate declaration of function local:f#0"},
		{"declare function local:f($a, $b) { 1 };\ndeclare updating function local:f($c, $d) { () };\n1", 2, 1,
			"duplicate declaration of function local:f#2"},
	} {
		_, err := ParseModule(tc.src)
		pe, ok := err.(*Error)
		if !ok {
			t.Errorf("%q: error %v, want a *Error", tc.src, err)
			continue
		}
		if pe.Line != tc.line || pe.Col != tc.col || pe.Msg != tc.msg {
			t.Errorf("%q: error %d:%d %q, want %d:%d %q", tc.src, pe.Line, pe.Col, pe.Msg, tc.line, tc.col, tc.msg)
		}
	}
	for _, src := range []string{
		"declare function local:f() { 1 }; declare function local:f($a) { $a }; local:f(local:f())",
		"declare namespace a = \"urn:a\"; declare variable $g := 1; declare variable $a:g := 2; $g + $a:g",
	} {
		if _, err := ParseModule(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// Property: the parser never panics on arbitrary input (errors are
// returned, not thrown).
func TestParserTotalityProperty(t *testing.T) {
	f := func(src string) bool {
		_, _ = ParseModule(src)
		return true // reaching here means no panic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPathologicalNesting(t *testing.T) {
	// Deeply nested parentheses and constructors must fail cleanly, not
	// blow the stack.
	deep := strings.Repeat("(", 10000) + "1" + strings.Repeat(")", 10000)
	if _, err := ParseExpr(deep); err == nil {
		t.Error("10000-deep parens should be rejected by the depth guard")
	}
	var b strings.Builder
	for i := 0; i < 10000; i++ {
		b.WriteString("<a>")
	}
	if _, err := ParseExpr(b.String()); err == nil {
		t.Error("10000-deep constructors should be rejected")
	}
	// Reasonable nesting still works.
	ok := strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100)
	if _, err := ParseExpr(ok); err != nil {
		t.Errorf("100-deep parens should parse: %v", err)
	}
}

func TestRecoverToWrapsForeignPanics(t *testing.T) {
	// A non-*Error panic is a parser bug; recoverTo must turn it into
	// a positioned parse error rather than re-panic through whatever
	// goroutine called Parse.
	p := newParser("1 +\n  2")
	p.lx.Next() // advance so Peek has a real position
	var err error
	func() {
		defer p.recoverTo(&err)
		panic("boom")
	}()
	if err == nil {
		t.Fatal("foreign panic not converted to error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("want *Error, got %T: %v", err, err)
	}
	if !strings.Contains(pe.Msg, "internal error: boom") {
		t.Errorf("message %q should mention the panic value", pe.Msg)
	}
	if pe.Line == 0 && pe.Col == 0 {
		t.Errorf("error should carry the current token position, got %d:%d", pe.Line, pe.Col)
	}
}

func TestRecoverToPassesParseErrors(t *testing.T) {
	_, err := ParseExpr("1 +")
	if err == nil {
		t.Fatal("want syntax error")
	}
	if _, ok := err.(*Error); !ok {
		t.Fatalf("want *Error, got %T", err)
	}
}
