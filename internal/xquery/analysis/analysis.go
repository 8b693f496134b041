// Package analysis is the compile-time static analyzer for the extended
// XQuery dialect: the stage between parser and runtime that the rest of
// the pipeline was missing. It runs over the AST after parse and before
// a program is admitted to the engine's program cache, and reports
// diagnostics in four passes:
//
//  1. semantic checks — unbound variables, unknown functions and arity
//     mismatches against the funclib signature table, duplicate FLWOR
//     bindings, unused variables, dead if-branches;
//  2. update-facility placement — updating expressions in positions the
//     Update Facility forbids are rejected statically instead of
//     failing mid-PUL at runtime;
//  3. browser-policy lint — fn:doc/fn:put under the browser profile,
//     and window-tree writes that can only fail with
//     ErrReadOnlyWindowProperty / ErrWindowUpdateUnsupported;
//  4. cost annotation — constant folding plus a saturating
//     per-expression step estimate comparable to the runtime's
//     MaxSteps budget.
//
// Every diagnostic carries a 1-based source position, a severity and a
// stable XQ0001-style code (see diag.go for the registry).
package analysis

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/funclib"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/plan"
	"repro/internal/xquery/runtime"
)

// Config parameterises one analysis.
type Config struct {
	// Registry supplies the callable built-in signatures. Nil uses the
	// plain funclib table (no browser: functions).
	Registry *runtime.Registry
	// BrowserProfile enables the browser-policy pass (pass 3): fn:doc
	// and fn:put become errors, matching WithBrowserProfile engines.
	BrowserProfile bool
	// MaxSteps, when positive, adds an XQ0301 warning if the estimated
	// step count exceeds it (the same unit RunConfig.MaxSteps uses).
	MaxSteps int64
}

// Result is the outcome of one analysis.
type Result struct {
	// Diagnostics is sorted by position, then code.
	Diagnostics []Diagnostic
	// EstimatedSteps is the saturating static step estimate for the
	// module body plus global initialisers, in the same unit as the
	// runtime budget (runtime.ErrBudgetExceeded fires on MaxSteps of
	// these).
	EstimatedSteps int64
}

// HasErrors reports whether any diagnostic is error-severity.
func (r *Result) HasErrors() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity diagnostics.
func (r *Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// BudgetDiagnostic builds the XQ0301 warning for an estimate that
// exceeds a budget, or ok=false when it fits. It is exposed separately
// from Analyze because the budget varies per run while the estimate is
// a property of the program: the cache stores the estimate once and
// derives this diagnostic per request.
func BudgetDiagnostic(estimated, maxSteps int64) (Diagnostic, bool) {
	if maxSteps <= 0 || estimated <= maxSteps {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Code:     CodeCostBudget,
		Severity: SevWarning,
		Line:     1,
		Col:      1,
		Msg: fmt.Sprintf("estimated cost %d steps exceeds the budget of %d steps",
			estimated, maxSteps),
	}, true
}

// Analyze runs all passes over a parsed module and returns the
// diagnostics plus the cost estimate. Its only mutation of the module
// is the Once-guarded planning pass (plan.Prepare via
// Module.EnsurePlanned) — the same pass runtime.Compile applies — so
// the cost estimator sees the access methods the evaluator will use,
// and one parsed AST may still be analyzed and evaluated concurrently.
// The passes read the planned roots (Module.Body, FuncDecl.Body), never
// the optimized ones, so what they report does not depend on whether
// the module was compiled first.
func Analyze(m *ast.Module, cfg Config) *Result {
	m.EnsurePlanned(func() { plan.Prepare(m) })
	reg := cfg.Registry
	if reg == nil {
		reg = funclib.Library() // signatures only: the process-wide library layer
	}
	c := &checker{
		vars:    m.Bindings,
		reg:     reg,
		browser: cfg.BrowserProfile,
		funcs:   map[string][]*ast.FuncDecl{},
		imports: map[string]bool{},
		estMemo: map[*ast.FuncDecl]int64{},
		estBusy: map[*ast.FuncDecl]bool{},
	}
	for _, imp := range m.Prolog.Imports {
		c.imports[imp.URI] = true
	}
	for i := range m.Prolog.Functions {
		f := &m.Prolog.Functions[i]
		c.funcs[fnKey(f.Name)] = append(c.funcs[fnKey(f.Name)], f)
	}

	if c.vars == nil {
		c.vars = plan.Bind(m) // planned by Annotate alone, or no variables
	}

	var est int64
	for i := range m.Prolog.Vars {
		if v := &m.Prolog.Vars[i]; v.Init != nil {
			c.walk(v.Init, updExpr)
			est = satAdd(est, c.estimate(v.Init))
		}
	}

	for _, fd := range c.funcs {
		for _, f := range fd {
			if f.Body == nil {
				continue
			}
			upd := updFunc
			if f.Updating || f.Sequential {
				upd = updAllowed
			}
			c.walk(f.Body, upd)
			if f.Updating || f.Sequential {
				c.checkUpdateSnapshots(f.Body)
			}
		}
	}

	if m.Body != nil {
		c.walk(m.Body, updAllowed)
		est = satAdd(est, c.estimate(m.Body))
		c.checkUpdateSnapshots(m.Body)
	}
	for _, b := range c.vars {
		// Parameters are part of the declared interface (listeners receive
		// the event even when they ignore it), external globals are bound
		// by the host and a library's globals may be read by importers.
		unused := b.Refs == 0 && !b.Assigned && b.Kind != ast.VarFree && b.Kind != ast.VarParam &&
			b.Kind != ast.VarExternal && !(b.Kind == ast.VarGlobal && m.IsLibrary)
		if unused {
			c.report(CodeUnusedVar, SevWarning, b.At, "unused variable $%s", varDisplay(b.Name))
		}
	}
	c.noteCopiedLets(m)

	if d, ok := BudgetDiagnostic(est, cfg.MaxSteps); ok {
		c.diags = append(c.diags, d)
	}
	sortDiags(c.diags)
	return &Result{Diagnostics: c.diags, EstimatedSteps: est}
}

// checker carries the state shared by the passes.
type checker struct {
	vars    ast.Bindings // the module's binding table (plan.Bind)
	reg     *runtime.Registry
	browser bool
	diags   []Diagnostic
	funcs   map[string][]*ast.FuncDecl
	imports map[string]bool

	estMemo map[*ast.FuncDecl]int64
	estBusy map[*ast.FuncDecl]bool
}

func (c *checker) report(code string, sev Severity, at ast.Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Code:     code,
		Severity: sev,
		Line:     at.Line,
		Col:      at.Col,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// --- name display ---------------------------------------------------------

func varDisplay(q dom.QName) string {
	if q.Prefix != "" {
		return q.Prefix + ":" + q.Local
	}
	return q.Local
}

func fnDisplay(q dom.QName) string {
	if q.Prefix != "" {
		return q.Prefix + ":" + q.Local
	}
	if q.Space == parser.FnNamespace || q.Space == "" {
		return q.Local
	}
	return "Q{" + q.Space + "}" + q.Local
}

func fnKey(q dom.QName) string { return q.Space + "#" + q.Local }
