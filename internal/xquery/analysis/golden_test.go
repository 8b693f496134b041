package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/browser"
	"repro/internal/xquery/analysis"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

var update = flag.Bool("update", false, "rewrite the golden .diag files")

// goldenConfig is the analyzer configuration fixtures run under: full
// registry (funclib + browser:), browser profile on, and a small step
// budget so the cost fixture can trip XQ0301.
func goldenConfig() analysis.Config {
	return analysis.Config{Registry: browser.Functions(), BrowserProfile: true, MaxSteps: 1000}
}

func renderDiags(res *analysis.Result) string {
	var b strings.Builder
	for _, d := range res.Diagnostics {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGolden checks every testdata/*.xq fixture against its expected
// .diag file. Run with -update to regenerate expectations.
func TestGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.xq"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden fixtures found: %v", err)
	}
	cfg := goldenConfig()
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			m, err := parser.ParseModule(string(src))
			if err != nil {
				t.Fatalf("fixture must parse: %v", err)
			}
			got := renderDiags(analysis.Analyze(m, cfg))
			golden := strings.TrimSuffix(f, ".xq") + ".diag"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s:\n--- got ---\n%s--- want ---\n%s", f, got, want)
			}
		})
	}
}

// TestGoldenIsOrderIndependent: compiling a module installs optimized
// roots beside the planned ones, and the analyzer reads the planned
// ones — so xqlint says the same thing, at the same positions, whether
// the module was compiled first or analysed first. XQ0006 is the case
// with teeth: the optimizer folds `if (1 = 1)` away.
func TestGoldenIsOrderIndependent(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("testdata", "*.xq"))
	cfg := goldenConfig()
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(strings.TrimSuffix(f, ".xq") + ".diag")
		if err != nil {
			t.Fatal(err)
		}
		parse := func() *ast.Module {
			m, err := parser.ParseModule(string(src))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			return m
		}
		compiledFirst := parse()
		runtime.CompileFunctions(compiledFirst)
		if got := renderDiags(analysis.Analyze(compiledFirst, cfg)); got != string(want) {
			t.Errorf("%s, compiled first:\n--- got ---\n%s--- want ---\n%s", f, got, want)
		}
		analysedFirst := parse()
		analysis.Analyze(analysedFirst, cfg)
		runtime.CompileFunctions(analysedFirst)
		if got := renderDiags(analysis.Analyze(analysedFirst, cfg)); got != string(want) {
			t.Errorf("%s, analysed, compiled, analysed again:\n--- got ---\n%s--- want ---\n%s", f, got, want)
		}
		if strings.Contains(f, "XQ0006") {
			if compiledFirst.Rewrites.Folds == 0 || analysedFirst.Rewrites.Folds == 0 {
				t.Errorf("%s: the optimizer folded nothing, so this test shows nothing", f)
			}
			if !strings.Contains(string(want), analysis.CodeConstCond) {
				t.Errorf("%s: golden file has no %s", f, analysis.CodeConstCond)
			}
		}
	}
}

// TestGoldenCoversAllCodes asserts that every implemented rule code has
// at least one fixture producing it — the corpus is the rule registry's
// regression net.
func TestGoldenCoversAllCodes(t *testing.T) {
	implemented := []string{
		analysis.CodeUnboundVar, analysis.CodeUnknownFunc, analysis.CodeArity,
		analysis.CodeDuplicateLet, analysis.CodeUnusedVar, analysis.CodeConstCond,
		analysis.CodeAssignUndeclared, analysis.CodeMisplacedUpdate,
		analysis.CodeUpdateInPure, analysis.CodeDocBlocked, analysis.CodePutBlocked,
		analysis.CodeReadOnlyWindow, analysis.CodeWindowUpdateKind,
		analysis.CodeCostBudget,
		analysis.CodeDeadUpdate, analysis.CodeDeadDelete,
		analysis.CodeUpdateConflict,
		analysis.CodeShipped, analysis.CodeCopiedLet,
	}
	files, _ := filepath.Glob(filepath.Join("testdata", "*.diag"))
	seen := map[string]bool{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range implemented {
			if strings.Contains(string(b), code+":") {
				seen[code] = true
			}
		}
	}
	for _, code := range implemented {
		if !seen[code] {
			t.Errorf("no golden fixture produces %s", code)
		}
	}
}

// TestAnalyzeEstimate sanity-checks the cost pass: a bigger constant
// range must estimate strictly more steps.
func TestAnalyzeEstimate(t *testing.T) {
	cfg := goldenConfig()
	est := func(src string) int64 {
		m, err := parser.ParseModule(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return analysis.Analyze(m, cfg).EstimatedSteps
	}
	small := est("for $i in 1 to 10 return $i * 2")
	big := est("for $i in 1 to 10000 return $i * 2")
	if small <= 0 || big <= small {
		t.Errorf("estimates not monotone: small=%d big=%d", small, big)
	}
}
