package runtime

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xqerr"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	name := dom.QName{Space: "urn:t", Local: "f"}
	r.Register(&Function{Name: name, MinArgs: 1, MaxArgs: 2})
	if r.Lookup(name, 1) == nil || r.Lookup(name, 2) == nil {
		t.Error("arity range lookup failed")
	}
	if r.Lookup(name, 0) != nil || r.Lookup(name, 3) != nil {
		t.Error("out-of-range arity matched")
	}
	if r.Lookup(dom.QName{Space: "urn:x", Local: "f"}, 1) != nil {
		t.Error("namespace must distinguish")
	}
	// Variadic.
	vn := dom.QName{Space: "urn:t", Local: "v"}
	r.Register(&Function{Name: vn, MinArgs: 2, MaxArgs: -1})
	if r.Lookup(vn, 17) == nil {
		t.Error("variadic lookup failed")
	}
	// Re-registration with identical arity replaces.
	f2 := &Function{Name: name, MinArgs: 1, MaxArgs: 2}
	r.Register(f2)
	if r.Lookup(name, 1) != f2 {
		t.Error("replacement failed")
	}
}

func TestRegistryLayers(t *testing.T) {
	base := NewRegistry()
	a := dom.QName{Space: "u", Local: "a"}
	b := dom.QName{Space: "u", Local: "b"}
	baseA := &Function{Name: a, MinArgs: 0, MaxArgs: 1}
	base.Register(baseA)
	base.Freeze()

	top := base.Layer()
	topB := &Function{Name: b, MinArgs: 0, MaxArgs: 0}
	top.Register(topB)
	if base.Lookup(b, 0) != nil {
		t.Error("a layer leaked into its parent")
	}
	if top.Lookup(a, 0) != baseA {
		t.Error("a layer must answer from its parent")
	}
	if f := top.Lookup(b, 0); f != topB {
		t.Errorf("Lookup(b) = %v, want the writable layer's entry", f)
	}

	// The overlay shadows where its arity range matches and falls
	// through where it does not.
	topA := &Function{Name: a, MinArgs: 1, MaxArgs: 1}
	top.Register(topA)
	if top.Lookup(a, 1) != topA || top.Lookup(a, 0) != baseA {
		t.Error("overlay-first lookup with fall-through by arity failed")
	}
	if got := top.Overloads(a); len(got) != 2 || got[0] != topA || got[1] != baseA {
		t.Errorf("Overloads across layers = %v", got)
	}
	if got := top.Overloads(b); len(got) != 1 || got[0] != topB {
		t.Errorf("Overloads in one layer = %v", got)
	}
	if n := len(top.All()); n != 3 {
		t.Errorf("All = %d functions, want 3", n)
	}
	if base.Lookup(a, 1) != baseA || len(base.All()) != 1 {
		t.Error("registering on a layer changed its parent")
	}
}

func TestRegistryFrozenRejectsRegister(t *testing.T) {
	r := NewRegistry()
	n := dom.QName{Space: "u", Local: "a"}
	if err := r.Register(&Function{Name: n}); err != nil {
		t.Fatal(err)
	}
	r.Freeze()
	shape := r.Shape()
	err := r.Register(&Function{Name: dom.QName{Space: "u", Local: "b"}})
	if !errors.Is(err, xqerr.ErrMisconfigured) {
		t.Fatalf("Register on a frozen layer: err = %v, want ErrMisconfigured", err)
	}
	if len(r.All()) != 1 || r.Shape() != shape {
		t.Error("a refused registration changed the layer")
	}
}

func TestRegistryShape(t *testing.T) {
	fs := []*Function{
		{Name: dom.QName{Space: "u", Local: "a"}, MinArgs: 0, MaxArgs: 1},
		{Name: dom.QName{Space: "u", Local: "b"}, MinArgs: 2, MaxArgs: -1},
		{Name: dom.QName{Space: "v", Local: "a"}, MinArgs: 0, MaxArgs: 1, Updating: true},
	}
	shape := func(fs ...*Function) uint64 {
		r := NewRegistry()
		for _, f := range fs {
			r.Register(f)
		}
		return r.Shape()
	}
	want := shape(fs[0], fs[1], fs[2])
	if got := shape(fs[2], fs[0], fs[1]); got != want {
		t.Error("shape depends on registration order")
	}
	// Different closures, same signatures: same shape. A replaced
	// registration counts once.
	cp := *fs[0]
	cp.Invoke = func(*Context, []xdm.Sequence) (xdm.Sequence, error) { return nil, nil }
	if got := shape(fs[0], fs[1], fs[2], &cp); got != want {
		t.Error("shape depends on the implementation or double-counts a replacement")
	}
	// Every signature field is in the shape.
	for name, mut := range map[string]func(*Function){
		"local":      func(f *Function) { f.Name.Local = "z" },
		"space":      func(f *Function) { f.Name.Space = "z" },
		"min":        func(f *Function) { f.MinArgs = 1 },
		"max":        func(f *Function) { f.MaxArgs = 2 },
		"updating":   func(f *Function) { f.Updating = true },
		"sequential": func(f *Function) { f.Sequential = true },
		"stream":     func(f *Function) { f.Stream = func(*Context, []xdm.Iter) (xdm.Iter, error) { return nil, nil } },
	} {
		cp := *fs[0]
		mut(&cp)
		if shape(&cp, fs[1], fs[2]) == want {
			t.Errorf("shape ignores %s", name)
		}
	}
	if shape(fs[0], fs[1]) == want || shape() == want {
		t.Error("shape ignores a missing function")
	}
}

func TestRegistryLookupAllocs(t *testing.T) {
	lib := NewRegistry()
	n := dom.QName{Space: "http://www.w3.org/2005/xpath-functions", Prefix: "fn", Local: "count"}
	lib.Register(&Function{Name: n, MinArgs: 1, MaxArgs: 1})
	lib.Freeze()
	host := lib.Layer()
	host.Register(&Function{Name: dom.QName{Space: "urn:h", Local: "alert"}, MinArgs: 1, MaxArgs: 1})
	user := host.Layer()
	user.Register(&Function{Name: dom.QName{Space: "urn:l", Local: "f"}, MinArgs: 0, MaxArgs: 0})
	var f *Function
	if a := testing.AllocsPerRun(100, func() { f = user.Lookup(n, 1) }); a != 0 {
		t.Errorf("Lookup through three layers allocates %.0f times, want 0", a)
	}
	if f == nil {
		t.Fatal("lookup through three layers failed")
	}
}

func TestBindFlagsImportsOutsideTheirNamespace(t *testing.T) {
	m, err := parser.ParseModule(`import module namespace x = "urn:x" at "hint"; 1`)
	if err != nil {
		t.Fatal(err)
	}
	for _, space := range []string{"urn:x", "urn:other"} {
		helper := &Function{Name: dom.QName{Space: space, Local: "f"}}
		p, err := Compile(m, CompileConfig{
			Resolver: func(imp ast.ModuleImport, reg *Registry) error { return reg.Register(helper) },
		})
		if err != nil {
			t.Fatalf("resolver registering {%s}f: %v", space, err)
		}
		if p.Reg.Lookup(helper.Name, 0) != helper {
			t.Errorf("{%s}f is not callable from the importing program", space)
		}
		if want := space != "urn:x"; p.StrayImports != want {
			t.Errorf("resolver registering {%s}f: StrayImports = %v, want %v", space, p.StrayImports, want)
		}
	}
}

func mustSeqType(t *testing.T, src string) xdm.SeqType {
	t.Helper()
	e, err := parser.ParseExpr("$x instance of " + src)
	if err != nil {
		t.Fatal(err)
	}
	return e.(ast.InstanceOf).Type
}

func TestConvertValue(t *testing.T) {
	intPlus := mustSeqType(t, "xs:integer+")
	dbl := mustSeqType(t, "xs:double")
	str := mustSeqType(t, "xs:string")
	anyNode := mustSeqType(t, "node()")

	// Untyped content converts to the expected atomic type.
	el := dom.NewElement(dom.Name("n"))
	_ = el.AppendChild(dom.NewText("42"))
	out, err := ConvertValue(xdm.Sequence{xdm.NewNode(el)}, intPlus)
	if err != nil || out[0].Type() != xdm.TInteger {
		t.Errorf("untyped→integer: %v %v", out, err)
	}
	// Numeric promotion integer→double.
	out, err = ConvertValue(xdm.Sequence{xdm.Integer(3)}, dbl)
	if err != nil || out[0].Type() != xdm.TDouble {
		t.Errorf("integer→double: %v %v", out, err)
	}
	// anyURI→string promotion.
	out, err = ConvertValue(xdm.Sequence{xdm.AnyURI("u")}, str)
	if err != nil || out[0].Type() != xdm.TString {
		t.Errorf("anyURI→string: %v %v", out, err)
	}
	// Type mismatch errors.
	if _, err := ConvertValue(xdm.Sequence{xdm.String("x")}, dbl); err == nil {
		t.Error("string→double without cast should fail")
	}
	// Cardinality errors.
	if _, err := ConvertValue(nil, intPlus); err == nil {
		t.Error("empty for + should fail")
	}
	// Node types pass through unatomized.
	out, err = ConvertValue(xdm.Sequence{xdm.NewNode(el)}, anyNode)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := xdm.IsNode(out[0]); !ok {
		t.Error("node argument atomized for node() type")
	}
	// empty-sequence().
	est := xdm.SeqType{Empty: true}
	if _, err := ConvertValue(xdm.Sequence{xdm.Integer(1)}, est); err == nil {
		t.Error("non-empty for empty-sequence() should fail")
	}
}

func compileModule(t *testing.T, src string) *Program {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, CompileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestContextBindAndVar(t *testing.T) {
	p := compileModule(t, `$ext + 1`)
	ctx := NewContext(p)
	ctx.Bind(dom.Name("ext"), xdm.Sequence{xdm.Integer(41)})
	res, err := ctx.RunModule()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].String() != "42" {
		t.Errorf("res = %v", res)
	}
	if v, ok := ctx.Var(dom.Name("ext")); !ok || v[0].String() != "41" {
		t.Error("Var lookup failed")
	}
	if _, ok := ctx.Var(dom.Name("missing")); ok {
		t.Error("missing var reported bound")
	}
}

func TestExternalVariableRequired(t *testing.T) {
	p := compileModule(t, `declare variable $x external; $x`)
	ctx := NewContext(p)
	if _, err := ctx.RunModule(); err == nil {
		t.Error("unbound external variable must fail")
	}
	ctx2 := NewContext(p)
	ctx2.Bind(dom.Name("x"), xdm.Sequence{xdm.String("ok")})
	res, err := ctx2.RunModule()
	if err != nil || res[0].String() != "ok" {
		t.Errorf("bound external: %v %v", res, err)
	}
}

func TestExternalFunctionRequiresImpl(t *testing.T) {
	m, err := parser.ParseModule(`declare function local:ext() external; local:ext()`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(m, CompileConfig{}); err == nil {
		t.Error("external function without implementation must fail to compile")
	}
	// With an implementation pre-registered it compiles and runs.
	reg := NewRegistry()
	reg.Register(&Function{
		Name:    dom.QName{Space: parser.LocalNamespace, Local: "ext"},
		MinArgs: 0, MaxArgs: 0,
		Invoke: func(ctx *Context, args []xdm.Sequence) (xdm.Sequence, error) {
			return xdm.Sequence{xdm.String("native")}, nil
		},
	})
	p, err := Compile(m, CompileConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewContext(p).RunModule()
	if err != nil || res[0].String() != "native" {
		t.Errorf("external call: %v %v", res, err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	p := compileModule(t, `declare function local:loop() { local:loop() }; local:loop()`)
	_, err := NewContext(p).RunModule()
	if err == nil {
		t.Fatal("infinite recursion must error, not crash")
	}
}

func TestModuleResolverInvoked(t *testing.T) {
	m, err := parser.ParseModule(`import module namespace x = "urn:x" at "hint"; 1`)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	_, err = Compile(m, CompileConfig{
		Resolver: func(imp ast.ModuleImport, reg *Registry) error {
			called = true
			if imp.URI != "urn:x" || imp.Hints[0] != "hint" {
				t.Errorf("import = %+v", imp)
			}
			return nil
		},
	})
	if err != nil || !called {
		t.Errorf("resolver: called=%v err=%v", called, err)
	}
	// No resolver → import fails.
	if _, err := Compile(m, CompileConfig{}); err == nil {
		t.Error("import without resolver must fail")
	}
}

func TestAmbientFocusInFunctions(t *testing.T) {
	// Note: this package compiles without the fn: library, so the body
	// uses a bare path rather than count().
	p := compileModule(t, `declare function local:f() { //item }; local:f()`)
	doc := dom.NewDocument()
	root := dom.NewElement(dom.Name("r"))
	_ = doc.AppendChild(root)
	_ = root.AppendChild(dom.NewElement(dom.Name("item")))
	_ = root.AppendChild(dom.NewElement(dom.Name("item")))

	// Without ambient: functions have no focus.
	ctx := NewContext(p)
	ctx.Item = xdm.NewNode(doc)
	ctx.Pos, ctx.Size = 1, 1
	if _, err := ctx.RunModule(); err == nil {
		t.Error("function body without ambient focus should fail on //item")
	}
	// With ambient: the browser-host behaviour.
	ctx2 := NewContext(p)
	ctx2.Item = xdm.NewNode(doc)
	ctx2.Pos, ctx2.Size = 1, 1
	ctx2.Ambient = ctx2.Item
	res, err := ctx2.RunModule()
	if err != nil || len(res) != 2 {
		t.Errorf("ambient focus: %v %v", res, err)
	}
}

func TestHooksRequired(t *testing.T) {
	// Event/style expressions error without a browser host.
	for _, src := range []string{
		`on event "click" at <a/> attach listener local:f`,
		`trigger event "click" at <a/>`,
		`set style "c" of <a/> to "red"`,
		`get style "c" of <a/>`,
	} {
		p := compileModule(t, `declare updating function local:f($a,$b){()}; `+src)
		if _, err := NewContext(p).RunModule(); err == nil {
			t.Errorf("%q must require hooks", src)
		}
	}
}

func TestUpdatingWithoutPUL(t *testing.T) {
	p := compileModule(t, `delete node <a/>`)
	ctx := NewContext(p).Derive(func(r *Run) { r.PUL = nil })
	if _, err := ctx.RunModule(); err == nil {
		t.Error("updating expression without a PUL must fail")
	}
}

func TestCallFunctionByName(t *testing.T) {
	p := compileModule(t, `declare function local:add($a, $b) { $a + $b }; ()`)
	ctx := NewContext(p)
	if err := ctx.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	res, err := ctx.CallFunction(
		dom.QName{Space: parser.LocalNamespace, Local: "add"},
		[]xdm.Sequence{{xdm.Integer(20)}, {xdm.Integer(22)}})
	if err != nil || res[0].String() != "42" {
		t.Errorf("CallFunction: %v %v", res, err)
	}
	if _, err := ctx.CallFunction(dom.Name("nosuch"), nil); err == nil {
		t.Error("unknown function must fail")
	}
}

// A Context is copied on every focus change, let binding and loop
// entry, so its size is an allocation cost of every path step. The run
// it points at holds the rest: the frame is 72 bytes, in the 80-byte
// size class, and two more words would cost every copy sixteen.
func TestContextFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Context{}); got > 80 {
		t.Errorf("runtime.Context is %d bytes, over the 80-byte size class it fitted", got)
	}
}

// TestStepStreamFitsItsSizeClass pins the layout of a step's one
// object: the stream, with its axis cursor, node test and budget
// filter inline, is no larger than the candidate closure, axis walker
// and stream it replaced for a single focus node (32 + 32 + 80 bytes),
// and a predicate stage, with an attribute comparison's key slot
// inline, no larger than the stage and key slots it replaced.
func TestStepStreamFitsItsSizeClass(t *testing.T) {
	for _, c := range []struct {
		what      string
		got, want uintptr
	}{
		{"a step's stream", unsafe.Sizeof(stepStream{}), 128},
		{"its axis cursor", unsafe.Sizeof(axisCursor{}), 64},
		{"a predicate stage", unsafe.Sizeof(predIter{}), 128},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, over the %d-byte size class it fitted", c.what, c.got, c.want)
		}
	}
}

// TestUnreadParams: a user function leaves unbound, and lets its
// callers pass () for, exactly the untyped parameters its body never
// names — not in a VarRef, not as an assignment's target, wherever
// either sits; a local binding of the same name counts as a read.
func TestUnreadParams(t *testing.T) {
	m, err := parser.ParseModule(`
declare function local:none($a, $b) { 1 };
declare function local:first($a, $b) { $a };
declare function local:typed($a as element(), $b) { () };
declare function local:nested($a, $b) { for $x in (1, 2) return <r>{ $b/@x }</r> };
declare function local:shadowed($a, $b) { let $a := 1 return $a };
declare sequential function local:assigned($a, $b) { set $b := 1; };
declare function local:predicate($a, $b) { //x[@id = $b] };
1`)
	if err != nil {
		t.Fatal(err)
	}
	reg := CompileFunctions(m)
	for _, tt := range []struct {
		name  string
		reads [2]bool
	}{
		{"none", [2]bool{false, false}},
		{"first", [2]bool{true, false}},
		{"typed", [2]bool{true, false}},
		{"nested", [2]bool{false, true}},
		{"shadowed", [2]bool{true, false}},
		{"assigned", [2]bool{false, true}},
		{"predicate", [2]bool{false, true}},
	} {
		f := reg.Lookup(dom.QName{Space: "http://www.w3.org/2005/xquery-local-functions", Local: tt.name}, 2)
		if f == nil {
			t.Fatalf("local:%s not compiled", tt.name)
		}
		if got := [2]bool{f.Reads(0), f.Reads(1)}; got != tt.reads {
			t.Errorf("local:%s reads its parameters %v, want %v", tt.name, got, tt.reads)
		}
	}
}
