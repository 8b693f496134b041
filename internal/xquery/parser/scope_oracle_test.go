package parser_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/dom"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// The reference the parser's name resolution (scope.go) is held to: a
// lexical walk over the finished tree, one frame per scope, the way
// xqlint resolved names before the parser did. It knows nothing of the
// parser's bookkeeping — the stack, the globals a function body reads
// ahead — and resolves each reference by looking its name up frame by
// frame, innermost first, with every global in scope of every function
// body.

// oracleFrame is one lexical binding frame.
type oracleFrame struct {
	parent *oracleFrame
	names  []dom.QName
	ids    []ast.VarID
}

func (f *oracleFrame) declare(name dom.QName, id ast.VarID) {
	f.names = append(f.names, name)
	f.ids = append(f.ids, id)
}

// lookup returns the binding name means in f, or 0 for a free name.
func (f *oracleFrame) lookup(name dom.QName) ast.VarID {
	for sc := f; sc != nil; sc = sc.parent {
		for i := len(sc.names) - 1; i >= 0; i-- {
			if sc.names[i].Matches(name) {
				return sc.ids[i]
			}
		}
	}
	return 0
}

// oracle compares the parser's VarIDs with the lexical walk's.
type oracle struct {
	t        *testing.T
	src      string
	declared map[ast.VarID]bool
	free     map[ast.VarID]bool
}

// checkBindings holds every reference and assignment target of m to
// the binding the lexical walk resolves its name to, and every free
// name to a VarID no declaration has.
func checkBindings(t *testing.T, src string, m *ast.Module) {
	t.Helper()
	o := &oracle{t: t, src: src, declared: map[ast.VarID]bool{}, free: map[ast.VarID]bool{}}
	globals := &oracleFrame{}
	for _, v := range m.Prolog.Vars {
		// An initialiser sees the globals before it only.
		o.walk(v.Init, &oracleFrame{parent: globals})
		o.declare(globals, v.Name, v.ID, true)
	}
	for _, f := range m.Prolog.Functions {
		fs := &oracleFrame{parent: globals}
		for _, p := range f.Params {
			o.declare(fs, p.Name, p.ID, false)
		}
		o.walk(f.Body, fs)
	}
	o.walk(m.Body, &oracleFrame{parent: globals})
	for id := range o.free {
		if o.declared[id] {
			t.Errorf("%q: a free name has VarID %d, which a declaration has", src, id)
		}
	}
	if m.NumVars < ast.VarID(len(o.declared)+len(o.free)) {
		t.Errorf("%q: NumVars %d, but %d VarIDs are in use", src, m.NumVars, len(o.declared)+len(o.free))
	}
}

// declare brings a declaration into f; only a global's name may share
// its VarID with another declaration.
func (o *oracle) declare(f *oracleFrame, name dom.QName, id ast.VarID, global bool) {
	if id == 0 {
		o.t.Errorf("%q: $%s declared without a VarID", o.src, name.Local)
	} else if o.declared[id] && !global {
		o.t.Errorf("%q: $%s declared with VarID %d, which another declaration has", o.src, name.Local, id)
	}
	o.declared[id] = true
	f.declare(name, id)
}

// resolve checks the VarID the parser gave a reference or an
// assignment target of name.
func (o *oracle) resolve(f *oracleFrame, name dom.QName, id ast.VarID, at ast.Pos) {
	want := f.lookup(name)
	switch {
	case want == 0 && id == 0:
		o.t.Errorf("%q: free $%s at %d:%d has no VarID", o.src, name.Local, at.Line, at.Col)
	case want == 0:
		o.free[id] = true
	case id != want:
		o.t.Errorf("%q: $%s at %d:%d resolves to VarID %d, the lexical walk to %d", o.src, name.Local, at.Line, at.Col, id, want)
	}
}

func (o *oracle) walk(e ast.Expr, sc *oracleFrame) {
	switch x := e.(type) {
	case nil:
	case ast.VarRef:
		o.resolve(sc, x.Name, x.ID, x.At)
	case ast.Assign:
		o.resolve(sc, x.Var, x.ID, x.At)
		o.walk(x.Val, sc)
	case ast.FLWOR:
		fs := &oracleFrame{parent: sc}
		for _, cl := range x.Clauses {
			o.walk(cl.In, fs)
			o.declare(fs, cl.Var, cl.ID, false)
			if !cl.PosVar.IsZero() {
				o.declare(fs, cl.PosVar, cl.PosID, false)
			}
		}
		o.walk(x.Where, fs)
		for _, os := range x.OrderBy {
			o.walk(os.Key, fs)
		}
		o.walk(x.Return, fs)
	case ast.Quantified:
		qs := &oracleFrame{parent: sc}
		for _, cl := range x.Vars {
			o.walk(cl.In, qs)
			o.declare(qs, cl.Var, cl.ID, false)
		}
		o.walk(x.Satisfies, qs)
	case ast.Typeswitch:
		o.walk(x.Operand, sc)
		for _, cs := range x.Cases {
			ts := &oracleFrame{parent: sc}
			if !cs.Var.IsZero() {
				o.declare(ts, cs.Var, cs.ID, false)
			}
			o.walk(cs.Body, ts)
		}
		ds := &oracleFrame{parent: sc}
		if !x.DefaultVar.IsZero() {
			o.declare(ds, x.DefaultVar, x.DefaultID, false)
		}
		o.walk(x.Default, ds)
	case ast.Transform:
		ts := &oracleFrame{parent: sc}
		for _, b := range x.Bindings {
			o.walk(b.In, ts)
			o.declare(ts, b.Var, b.ID, false)
		}
		o.walk(x.Modify, ts)
		o.walk(x.Return, ts)
	case ast.Block:
		bs := &oracleFrame{parent: sc}
		for _, st := range x.Stmts {
			o.walk(st, bs)
		}
	case ast.BlockDecl:
		// A declaration is in scope to the end of the frame it stands
		// in: the statements after it, for a block's.
		o.walk(x.Init, sc)
		o.declare(sc, x.Var, x.ID, false)
	default:
		ast.EachChild(e, func(c ast.Expr) { o.walk(c, sc) })
	}
}

// shadowingSeeds bind one name at several levels: every way a
// reference can reach past, or stop at, a same-named binding.
var shadowingSeeds = []string{
	`let $x := (1, 2) return for $x in $x return $x`,
	`for $x in (1, 2) for $x in ($x, $x) return $x`,
	`let $x := 1 let $x := $x + 1 return $x`,
	`for $x at $x in (1, 2) return $x`,
	`some $x in (1, 2), $x in ($x, 3) satisfies $x`,
	`let $x := 1 return typeswitch ($x) case $x as xs:integer return $x default $x return $x`,
	`let $x := <a/> return copy $x := $x modify delete node $x/b return $x`,
	`{ declare variable $x := 1; set $x := $x + 1; { declare variable $x := $x; set $x := 3; }; $x; }`,
	`declare variable $g := 1; declare variable $g := $g + 1; $g`,
	`declare variable $a := $b; declare variable $b := 1; $a + $b`,
	`declare function local:f() { $later }; declare variable $later := 1; local:f() + $later`,
	`declare function local:f($p) { let $p := $p return $p }; local:f(1)`,
	`declare function local:f() { $h }; $h + local:f()`,
	`declare variable $i := declare variable $j := 1; $j`,
	`if (1) then declare variable $x := 1 else $x`,
	`$free, set $free := 1, $free`,
	`declare namespace a = "u"; declare namespace b = "u"; let $a:x := 1 return $b:x`,
}

// paperListings are the paper's listings the xquery package runs
// (paper_listings_test.go), as text.
var paperListings = []string{
	`insert node <book title="Starwars"/> into doc("library.xml")/books,
	 replace value of node doc("bill.xml")/bill/items/item[@id="computer"]/price with 1500`,
	`{ declare variable $b := //book[title="starwars"];
	   insert node $b into doc("lib.xml")/books;
	   set $b := doc("lib.xml")//book[title="starwars"];
	   insert node <comment>6 movies</comment> into $b; }`,
	`declare function local:fib($n as xs:integer) as xs:integer {
	   if ($n < 2) then $n else local:fib($n - 1) + local:fib($n - 2) };
	 local:fib(15)`,
	`{ declare variable $a := 0; declare variable $b := 1; declare variable $i := 0; declare variable $t := 0;
	   while ($i < 15) { set $t := $a + $b; set $a := $b; set $b := $t; set $i := $i + 1; };
	   $a; }`,
	`count(//div[contains(., 'love')])`,
}

// bindingCorpus is the parser's fuzz seeds, the shadowing seeds, the
// analyzer's fixtures, the paper's listings and the scripts of the
// paper's applications.
func bindingCorpus(tb testing.TB) []string {
	out := append(append(append([]string(nil), parser.FuzzSeeds...), shadowingSeeds...), paperListings...)
	files, err := filepath.Glob(filepath.Join("..", "analysis", "testdata", "*.xq"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no analyzer fixtures: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, string(b))
	}
	out = append(out, apps.ShoppingCartXQueryServer, apps.SuggestServiceModule)
	for _, srcs := range parseCorpus(tb) {
		out = append(out, srcs...)
	}
	return out
}

// FuzzBindingsMatchScopes: over whatever the fuzzer writes, each
// reference and assignment target resolves to the declaration the
// lexical walk finds for it.
func FuzzBindingsMatchScopes(f *testing.F) {
	for _, src := range bindingCorpus(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		if m, err := parser.ParseModule(src); err == nil {
			checkBindings(t, src, m)
		}
	})
}
