package xquery

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xqerr"
)

// perDocFixture is an expression engine, a cache, a parent context to
// evaluate under and three one-element documents.
func perDocFixture(t *testing.T) (*Engine, *Cache, *Program, xdm.Sequence) {
	t.Helper()
	e := New(WithBrowserProfile())
	host, err := New().Compile(`1`)
	if err != nil {
		t.Fatal(err)
	}
	var docs xdm.Sequence
	for _, src := range []string{`<a n="1"><b/></a>`, `<a n="2"/>`, `<a n="3"><b/><b/></a>`} {
		d, err := markup.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, xdm.NewNode(d))
	}
	return e, NewCache(4), host, docs
}

func TestEvalPerDocument(t *testing.T) {
	e, c, host, docs := perDocFixture(t)
	parent := host.NewContext(RunConfig{})
	var got []string
	err := c.EvalPerDocument(e, `for $a in child::a return (fn:string($a/attribute::n), fn:count($a/child::b))`, parent, docs,
		func(doc *dom.Node, vals xdm.Sequence) error {
			got = append(got, doc.DocumentElement().AttrValue("n")+"="+FormatSequence(vals, markup.AppendXML))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := "1=1 1|2=2 0|3=3 2"; strings.Join(got, "|") != want {
		t.Errorf("got %q, want %q", strings.Join(got, "|"), want)
	}
	// The second call hits the program the first compiled, admission
	// check included.
	if err := c.EvalPerDocument(e, `for $a in child::a return (fn:string($a/attribute::n), fn:count($a/child::b))`, parent, docs,
		func(*dom.Node, xdm.Sequence) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Compiles != 1 || s.ProgramHits != 1 {
		t.Errorf("compiles %d, hits %d; want 1 and 1", s.Compiles, s.ProgramHits)
	}
	// A refused text never becomes a program.
	err = c.EvalPerDocument(e, `delete node child::a`, parent, docs, func(*dom.Node, xdm.Sequence) error { return nil })
	if !errors.Is(err, ErrNotShippable) || c.Len() != 1 {
		t.Errorf("refusal: err %v, %d programs cached (want ErrNotShippable, 1)", err, c.Len())
	}
	// A program that came in through the front door is checked before
	// its first per-document use, and refused all the same.
	if _, err := c.Compile(e, `<x/>`); err != nil {
		t.Fatal(err)
	}
	err = c.EvalPerDocument(e, `<x/>`, parent, docs, func(*dom.Node, xdm.Sequence) error { return nil })
	if !errors.Is(err, ErrNotShippable) {
		t.Errorf("cached constructor: %v, want ErrNotShippable", err)
	}
}

// The documents of one call draw on the parent's one budget.
func TestEvalPerDocumentSharesTheBudget(t *testing.T) {
	e, c, host, docs := perDocFixture(t)
	const expr = `fn:sum(for $i in 1 to 100 return $i)`
	steps := func(n int, max int64) error {
		parent := host.NewContext(RunConfig{MaxSteps: max})
		return c.EvalPerDocument(e, expr, parent, docs[:n], func(*dom.Node, xdm.Sequence) error { return nil })
	}
	if err := steps(1, 250); err != nil {
		t.Fatalf("one document in 250 steps: %v", err)
	}
	if err := steps(3, 250); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("three documents in 250 steps: %v, want ErrBudgetExceeded", err)
	}
	if err := steps(3, 0); err != nil {
		t.Errorf("three documents, unlimited: %v", err)
	}
}

// A panic under EvalPerDocument comes back as an internal error, and a
// text that keeps panicking is quarantined like any program the cache
// runs.
func TestEvalPerDocumentIsolatesAndQuarantinesPanics(t *testing.T) {
	e, c, host, docs := perDocFixture(t)
	parent := host.NewContext(RunConfig{})
	boom := func(*dom.Node, xdm.Sequence) error { panic("emit blew up") }
	for i := 0; i < QuarantineThreshold; i++ {
		if err := c.EvalPerDocument(e, `1`, parent, docs, boom); !errors.Is(err, xqerr.ErrInternal) {
			t.Fatalf("panic %d: %v, want ErrInternal", i, err)
		}
	}
	err := c.EvalPerDocument(e, `1`, parent, docs, func(*dom.Node, xdm.Sequence) error { return nil })
	if !errors.Is(err, ErrQuarantined) {
		t.Errorf("after %d panics: %v, want ErrQuarantined", QuarantineThreshold, err)
	}
	// Another text is not affected.
	if err := c.EvalPerDocument(e, `2`, parent, docs, func(*dom.Node, xdm.Sequence) error { return nil }); err != nil {
		t.Errorf("a healthy text beside a quarantined one: %v", err)
	}
}
