package xquery

import (
	"errors"
	"testing"

	"repro/internal/xquery/analysis"
)

// TestAnalyzeFacade covers Engine.Analyze end to end: a browser-profile
// engine statically rejects fn:put and reports warnings on clean-ish
// programs.
func TestAnalyzeFacade(t *testing.T) {
	e := New(WithBrowserProfile())
	res, err := e.Analyze(`fn:put(<a/>, "out.xml")`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasErrors() {
		t.Fatalf("fn:put not rejected: %+v", res.Diagnostics)
	}
	if res.Diagnostics[0].Code != analysis.CodePutBlocked {
		t.Errorf("code = %s, want %s", res.Diagnostics[0].Code, analysis.CodePutBlocked)
	}

	res, err = e.Analyze(`let $unused := 1 return 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.HasErrors() || len(res.Diagnostics) != 1 || res.Diagnostics[0].Code != analysis.CodeUnusedVar {
		t.Errorf("diagnostics = %+v, want one %s warning", res.Diagnostics, analysis.CodeUnusedVar)
	}

	if _, err := e.Analyze(`let $x :=`); err == nil {
		t.Error("syntax error did not fail Analyze")
	}
}

// TestRunStrict checks RunConfig.Strict on a compiled program: errors
// block the run with an AnalysisError, warnings ride along on the
// Result.
func TestRunStrict(t *testing.T) {
	e := New()
	prog := e.MustCompile(`1 + (delete node /a)`)
	if _, err := prog.Run(RunConfig{Strict: true}); !errors.Is(err, ErrAnalysisFailed) {
		t.Fatalf("err = %v, want ErrAnalysisFailed", err)
	}
	var ae *AnalysisError
	_, err := prog.Run(RunConfig{Strict: true})
	if !errors.As(err, &ae) || len(ae.Diagnostics) == 0 || ae.Diagnostics[0].Code != analysis.CodeMisplacedUpdate {
		t.Fatalf("err = %v, want AnalysisError with %s", err, analysis.CodeMisplacedUpdate)
	}

	warn := e.MustCompile(`let $unused := 1 return 42`)
	res, err := warn.Run(RunConfig{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Code != analysis.CodeUnusedVar {
		t.Errorf("Diagnostics = %+v, want one %s warning", res.Diagnostics, analysis.CodeUnusedVar)
	}
	if len(res.Value) != 1 {
		t.Errorf("result length = %d", len(res.Value))
	}

	// Without Strict the same program runs silently.
	res, err = warn.Run(RunConfig{})
	if err != nil || len(res.Diagnostics) != 0 {
		t.Errorf("non-strict run: err = %v, diagnostics = %+v", err, res.Diagnostics)
	}
}

// TestCacheStrictRejection is the acceptance check that Strict keeps
// bad programs out of the shared cache: after a strict rejection the
// cache holds no program for that source.
func TestCacheStrictRejection(t *testing.T) {
	e := New(WithBrowserProfile())
	c := NewCache(8)
	bad := `fn:put(<a/>, "out.xml")`

	for i := 0; i < 2; i++ {
		_, err := c.EvalQuery(e, bad, RunConfig{Strict: true})
		if !errors.Is(err, ErrAnalysisFailed) {
			t.Fatalf("attempt %d: err = %v, want ErrAnalysisFailed", i, err)
		}
	}
	if got := c.Stats().Compiles; got != 0 {
		t.Errorf("%d compilations after strict rejections, want 0 (program kept out of the cache)", got)
	}

	// The same source is admitted when Strict is off...
	if _, err := c.Compile(e, bad); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Compiles; got != 1 {
		t.Fatalf("%d compilations, want 1", got)
	}
	// ...but strict callers still refuse to run the now-cached program.
	if _, _, err := c.CompileStrict(e, bad); !errors.Is(err, ErrAnalysisFailed) {
		t.Errorf("cached program not rejected: %v", err)
	}
}

// TestCacheStrictMemoisation checks that warnings survive caching and
// analysis happens once per entry, not once per run.
func TestCacheStrictMemoisation(t *testing.T) {
	e := New()
	c := NewCache(8)
	src := `let $unused := 1 return 7`

	for i := 0; i < 3; i++ {
		res, err := c.EvalQuery(e, src, RunConfig{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Diagnostics) != 1 || res.Diagnostics[0].Code != analysis.CodeUnusedVar {
			t.Fatalf("run %d: Diagnostics = %+v", i, res.Diagnostics)
		}
	}
	st := c.Stats()
	if st.Compiles != 1 || st.ProgramHits < 2 {
		t.Errorf("stats = %+v, want one compile then hits", st)
	}
}

// TestCacheStrictBudgetDiagnostic: a tiny MaxSteps budget surfaces the
// XQ0301 estimate warning without failing the run (the run itself stays
// under the real step budget).
func TestCacheStrictBudgetDiagnostic(t *testing.T) {
	e := New()
	c := NewCache(8)
	res, err := c.EvalQuery(e, `for $i in 1 to 50 return $i`, RunConfig{Strict: true, MaxSteps: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("unexpected diagnostic under a generous budget: %v", d)
	}

	res2, err := c.EvalQuery(e, `for $i in 1 to 40 return $i`, RunConfig{Strict: true, MaxSteps: 30})
	if err == nil {
		// The estimate warning must be present whether or not the run
		// itself survived the budget.
		found := false
		for _, d := range res2.Diagnostics {
			if d.Code == analysis.CodeCostBudget {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s diagnostic: %+v", analysis.CodeCostBudget, res2.Diagnostics)
		}
	} else if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v", err)
	}
}
