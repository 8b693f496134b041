package xquery

import (
	"errors"
	"fmt"
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

// TestEvalPerDocumentAllocs pins what a shipped expression allocates
// per document: the three per-document forms the planner ships for the
// fed_collection query classes (a where filter, a counted keyed path,
// a full-text filter), over 16 articles of that corpus's shape. A step
// evaluation is one object however many focus nodes it walks, a path
// starts from its document without an iterator around it, and a
// literal — a string key, a full-text selection — is built at plan
// time, so what is left per document is the evaluation's own frames,
// the result and, for ftcontains, the scan's tokens: 3.6, 8.1 and 15.3
// objects a document (11.8, 20.1 and 23.7 before that).
func TestEvalPerDocumentAllocs(t *testing.T) {
	e, c, host, _ := perDocFixture(t)
	var docs xdm.Sequence
	for n := 0; n < 16; n++ {
		var src strings.Builder
		fmt.Fprintf(&src, `<article id="a%03d" journal="j1" year="%d"><title>Article %d</title>`+
			`<abstract>summary0 word%d note0 of1 common note1 of1 babeki note2 of1</abstract><references>`, n, 1985+n%8, n, n%5)
		for r := 0; r < 40; r++ {
			fmt.Fprintf(&src, `<ref year="%d" title="Ref %d of a%03d"/>`, 1985+(n+r)%8, r, n)
		}
		src.WriteString(`</references></article>`)
		d, err := markup.Parse(src.String())
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, xdm.NewNode(d))
	}
	parent := host.NewContext(RunConfig{})
	for _, c2 := range []struct {
		class, src, want string
		perDoc           float64
	}{
		{"where", `for $a in child::article where $a/attribute::year = "1990" return fn:string($a/attribute::id)`,
			"a005 a013", 4.5},
		{"aggregate", `fn:count(child::article/child::references/child::ref[attribute::year = "1990"])`,
			"5 5 5 5 5 5 5 5 5 5 5 5 5 5 5 5", 9},
		{"ftfilter", `for $a in child::article[. ftcontains "word3"] return fn:string($a/attribute::id)`,
			"a003 a008 a013", 16.5},
	} {
		var got []string
		run := func() {
			got = got[:0]
			err := c.EvalPerDocument(e, c2.src, parent, docs, func(_ *dom.Node, vals xdm.Sequence) error {
				if len(vals) > 0 {
					got = append(got, FormatSequence(vals, nil))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		run()
		if s := strings.Join(got, " "); s != c2.want {
			t.Fatalf("%s: got %q, want %q", c2.class, s, c2.want)
		}
		if perDoc := testing.AllocsPerRun(20, run) / float64(len(docs)); perDoc > c2.perDoc {
			t.Errorf("%s: %.1f allocations per document, want at most %.1f", c2.class, perDoc, c2.perDoc)
		} else {
			t.Logf("%s: %.1f allocations per document", c2.class, perDoc)
		}
	}
}
