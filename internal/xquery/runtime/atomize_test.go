package runtime

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// A singleton operand — of an arithmetic or comparison operator, or an
// order key — is atomized as it is: no copy of its one-item sequence.
func TestAtomizedSingletonAllocatesNothing(t *testing.T) {
	ctx := NewContext(&Program{})
	ctx.Bind(dom.Name("x"), xdm.Sequence{xdm.Integer(41)})
	var e ast.Expr = ast.VarRef{Name: dom.Name("x")}
	var it xdm.Item
	if n := testing.AllocsPerRun(100, func() { it, _ = ctx.evalAtomizedOne(e) }); n != 0 {
		t.Errorf("atomizing a bound singleton allocates %v times, want 0", n)
	}
	if it != xdm.Integer(41) {
		t.Errorf("atomized %v, want 41", it)
	}
	ctx.Bind(dom.Name("x"), xdm.Sequence{xdm.Integer(1), xdm.Integer(2)})
	if _, err := ctx.evalAtomizedOne(e); err == nil {
		t.Error("a two-item operand atomized without an error")
	}
}

// An untyped order key becomes a string once, when its tuple collects
// it, so the sort's comparisons convert nothing.
func TestOrderKeysConvertOnce(t *testing.T) {
	a, b := orderKey(xdm.UntypedAtomic("pear")), orderKey(xdm.UntypedAtomic("apple"))
	if a.Type() != xdm.TString || b.Type() != xdm.TString {
		t.Fatalf("order keys typed %s and %s, want strings", a.Type(), b.Type())
	}
	if orderKey(nil) != nil {
		t.Error("the empty key is not kept empty")
	}
	var c int
	if n := testing.AllocsPerRun(100, func() { c, _ = compareOrderKeys(a, b, ast.OrderSpec{}) }); n != 0 {
		t.Errorf("comparing two order keys allocates %v times, want 0", n)
	}
	if c <= 0 {
		t.Errorf("pear compares %d to apple, want > 0", c)
	}
}
