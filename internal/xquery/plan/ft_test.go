package plan

import (
	"reflect"
	"testing"

	ftindex "repro/internal/fulltext/index"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// ftPlanned parses and plans a single-path query and returns the steps
// the evaluator will run.
func ftPlanned(t *testing.T, src string) []ast.Step {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	Annotate(m)
	p, ok := m.Body.(ast.Path)
	if !ok {
		t.Fatalf("body of %q is %T, want Path", src, m.Body)
	}
	return p.Steps
}

func TestPlanStepFTProbe(t *testing.T) {
	cases := []struct {
		src  string
		want ast.AccessMethod
	}{
		// The canonical probed shape: descendant step, context-item
		// ftcontains, literal words.
		{`//article[. ftcontains "marlin"]`, ast.AccessFT},
		// Phrases, sequences, and boolean combinations of literals
		// still plan; ftnot at the top bounds nothing and scans — the
		// element-name index still answers the step itself.
		{`//article[. ftcontains "coral reef"]`, ast.AccessFT},
		{`//article[. ftcontains { ("a", "b") } any]`, ast.AccessFT},
		{`//article[. ftcontains "a" ftand "b"]`, ast.AccessFT},
		{`//article[. ftcontains "a" ftor "b"]`, ast.AccessFT},
		{`//article[. ftcontains ftnot "a"]`, ast.AccessIndexName},
		// Dynamic sources must wait for evaluation.
		{`//article[. ftcontains { string(@q) }]`, ast.AccessIndexName},
		// A non-context search context is an ordinary predicate.
		{`//article[p ftcontains "a"]`, ast.AccessIndexName},
	}
	for _, c := range cases {
		steps := ftPlanned(t, c.src)
		if len(steps) != 1 {
			t.Fatalf("%q merged to %d steps, want 1", c.src, len(steps))
		}
		if steps[0].Access != c.want {
			t.Errorf("%q planned %v, want %v", c.src, steps[0].Access, c.want)
		}
	}
}

func TestPlanStepFTProbeKindTests(t *testing.T) {
	// text() and element() tests may probe; node() and comment() match
	// kinds the index never ranges and must scan.
	for src, want := range map[string]ast.AccessMethod{
		`//text()[. ftcontains "a"]`:    ast.AccessFT,
		`//node()[. ftcontains "a"]`:    ast.AccessScan,
		`//comment()[. ftcontains "a"]`: ast.AccessScan,
	} {
		steps := ftPlanned(t, src)
		if steps[0].Access != want {
			t.Errorf("%q planned %v, want %v", src, steps[0].Access, want)
		}
	}
}

func TestFTProbeSelectionRoundTrip(t *testing.T) {
	steps := ftPlanned(t, `//article[. ftcontains { ("b", "c") } ftand "a"]`)
	if steps[0].Access != ast.AccessFT {
		t.Fatalf("planned %v, want AccessFT", steps[0].Access)
	}
	ftc, ok := FTProbe(steps[0].Preds[0])
	if !ok {
		t.Fatal("FTProbe rejected the planned predicate")
	}
	and, ok := ftc.Sel.(ast.FTAnd)
	if !ok {
		t.Fatalf("selection is %T, want FTAnd", ftc.Sel)
	}
	if ph, _ := FTStaticPhrases(and.L.(ast.FTWords).Source); len(ph) != 2 {
		t.Errorf("left phrases = %v, want [b c]", ph)
	}
	if ph, _ := FTStaticPhrases(and.R.(ast.FTWords).Source); len(ph) != 1 || ph[0] != "a" {
		t.Errorf("right phrases = %v, want [a]", ph)
	}
	// The planner resolved the literal selection once, for every
	// evaluation and probe.
	want := ftindex.And{L: ftindex.Words{Phrases: []string{"b", "c"}}, R: ftindex.Words{Phrases: []string{"a"}}}
	if !reflect.DeepEqual(ftc.LitSel, want) {
		t.Errorf("resolved selection = %#v, want %#v", ftc.LitSel, want)
	}
	// A computed word source leaves the selection to each evaluation,
	// and the step to another access method.
	steps = ftPlanned(t, `//article[. ftcontains { concat("b", "c") }]`)
	if _, ok := FTProbe(steps[0].Preds[0]); ok || steps[0].Access == ast.AccessFT {
		t.Errorf("computed source: probe-able %v, access %v; want neither", ok, steps[0].Access)
	}
}

// TestOptimizerRewritesWordSources: the optimizer reaches the word
// sources of a full-text selection through ast.MapChildren like every
// other child, so a constant condition there is decided at compile
// time.
func TestOptimizerRewritesWordSources(t *testing.T) {
	var st Stats
	_, body := plannedBody(t, `//a[. ftcontains {if (1 = 1) then "marlin" else "reef"} any]`)
	p := Optimize(body, &st).(ast.Path)
	ft := p.Steps[len(p.Steps)-1].Preds[0].(ast.FTContains)
	if src, ok := ft.Sel.(ast.FTWords).Source.(ast.StringLit); !ok || src.Val != "marlin" || st.Folds != 2 { // the comparison, then the branch
		t.Errorf("word source %+v, %d folds; want \"marlin\", 2", ft.Sel, st.Folds)
	}
}
