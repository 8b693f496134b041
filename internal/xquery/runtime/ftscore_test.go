package runtime

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/parser"
)

// scoreRegistry holds ft:score, as the library registers it, and a
// host function h:ping, for the programs below.
func scoreRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(&Function{
		Name: dom.QName{Space: parser.FTNamespace, Local: "score"}, MinArgs: 1, MaxArgs: 1,
		Invoke: func(ctx *Context, args []xdm.Sequence) (xdm.Sequence, error) {
			n, _ := xdm.IsNode(args[0][0])
			return xdm.Singleton(xdm.Double(ctx.FTScoreFor(n))), nil
		},
	})
	reg.Register(&Function{
		Name:   dom.QName{Space: "urn:h", Local: "ping"},
		Invoke: func(*Context, []xdm.Sequence) (xdm.Sequence, error) { return nil, nil },
	})
	reg.Freeze()
	return reg
}

func compileWith(t *testing.T, reg *Registry, src string) *Program {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, CompileConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestScoresRecordedOnlyForAReader: an ftcontains records the scores of
// its matches in a run whose program can read them — one that calls
// ft:score, or a function only a binding knows, or declares a function
// that does (a host may call it by name) — and in no other, so a
// shipped per-document ftcontains, evaluated in a run of its own under a
// caller that may read scores, tokenizes each document once: for the
// match, with no document statistics for a score.
func TestScoresRecordedOnlyForAReader(t *testing.T) {
	doc, err := markup.Parse(`<r><p>apple pie</p><p>pear</p><p>apple</p></r>`)
	if err != nil {
		t.Fatal(err)
	}
	reg := scoreRegistry()
	run := func(ctx *Context) *Context {
		t.Helper()
		ctx.Item, ctx.Pos, ctx.Size, ctx.NoIndex = xdm.NewNode(doc), 1, 1, true
		if _, err := ctx.RunModule(); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	for _, tc := range []struct {
		src    string
		scores bool
	}{
		{`//p[. ftcontains "apple"]`, false},
		{`for $p in //p[. ftcontains "apple"] return ft:score($p)`, true},
		{`declare namespace h = "urn:h"; (//p[. ftcontains "apple"], h:ping())`, true}, // a host function
		{`declare function local:f($p) { ft:score($p) }; //p[. ftcontains "apple"]`, true},
		{`declare namespace h = "urn:h"; declare function local:f() { h:ping() }; //p[. ftcontains "apple"]`, true},
		{`declare function local:f($p) { $p }; local:f(//p[. ftcontains "apple"])`, false},
	} {
		ctx := run(NewContext(compileWith(t, reg, tc.src)))
		if got := ctx.memo.ft != nil; got != tc.scores {
			t.Errorf("%s: scores recorded = %v, want %v", tc.src, got, tc.scores)
		}
	}

	// The shape of a shipped expression's run (xquery.EvalPerDocument):
	// derived in the caller's run from the shipped program.
	caller := NewContext(compileWith(t, reg, `for $p in //p return ft:score($p)`))
	if !caller.scores {
		t.Fatal("a program that calls ft:score does not record scores")
	}
	inner := caller.ContextFor(compileWith(t, reg, `.//p[. ftcontains "apple"]`))
	shipped := run(inner.Derive(func(*Run) {}))
	if shipped.memo.ft != nil || caller.memo.ft != nil {
		t.Errorf("a shipped ftcontains recorded scores (its run %v, its caller's %v): each document is tokenized twice",
			shipped.memo.ft != nil, caller.memo.ft != nil)
	}

	// A run that shares its caller's full-text state (a detached
	// evaluation, a modify clause) keeps its caller's rule, whatever
	// program it runs.
	if !inner.Derive(func(r *Run) { r.memo = caller.memo }).scores {
		t.Error("a run sharing its caller's memo stopped recording scores its caller reads")
	}
	if !inner.Derive(func(r *Run) { r.memo.ft = caller.memo.fullText() }).scores {
		t.Error("a run sharing its caller's full-text state stopped recording scores its caller reads")
	}
}
