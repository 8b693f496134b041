// Package xquery is the engine façade: it wires the parser, the
// built-in function library and the runtime into a compile-and-run API,
// playing the role Zorba plays for the paper's plug-in (§5.2). The same
// engine object serves all tiers: the browser host (internal/core), the
// web-service server (internal/rest) and the command line (cmd/xq).
package xquery

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xqerr"
	"repro/internal/xquery/analysis"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/funclib"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/plan"
	"repro/internal/xquery/runtime"
	"repro/internal/xquery/update"
)

// Engine is one host's binding of the query language: its own
// functions (the host layer: WithFunctions extras) stacked on a frozen
// process-wide parent — the fn:/xs:/ft: library, or for a page engine
// the browser: layer above it — plus the module resolver and the
// default document resolvers. What a compilation produces does not depend on any of
// the closures in there, only on the engine's shape (see Fingerprint),
// so engines are cheap to build — one per page — and share compiled
// programs through a Cache.
//
// An Engine's configuration is immutable after New returns (options
// apply only during construction), so one engine may be shared by any
// number of goroutines calling Compile, EvalQuery and Program.Run
// concurrently: each compilation adds layers above the engine's
// registry, never entries to it, and each run gets its own dynamic
// Context. The one thing that changes afterwards is the memo of the
// engine's bindings of cached programs (bound), which synchronises
// itself. The concurrent serving layer (internal/serve) relies on this
// to share one engine across all requests.
type Engine struct {
	// host is the engine's own registry layer; its parent is the
	// frozen layer New or NewAbove named.
	host            *runtime.Registry
	resolver        runtime.ModuleResolver
	blockDoc        bool
	resolverRetries int
	resolverBackoff time.Duration
	// Engine-level default doc resolver and collection source (a bound
	// document store or federation). A RunConfig that sets its own
	// overrides them per run.
	docs        runtime.DocResolver
	collections runtime.CollectionSource
	// bound memoises the engine's bindings of cached programs.
	bound bindings
}

// Option configures an Engine.
type Option func(*Engine)

// ModuleResolver materialises module imports into a registry (alias of
// the runtime type, so the facade need not import the runtime).
type ModuleResolver = runtime.ModuleResolver

// Registry is the engine's function registry (alias for facade use).
type Registry = runtime.Registry

// WithModuleResolver installs the module-import resolver (the REST
// substrate registers web-service proxies through it).
func WithModuleResolver(r runtime.ModuleResolver) Option {
	return func(e *Engine) { e.resolver = r }
}

// WithResolverRetry retries failed module-resolver loads up to retries
// additional times per import, waiting backoff before the first retry
// and doubling it each further attempt. Module resolvers reach over
// process boundaries (the REST substrate fetches service
// descriptions), so transient load failures degrade to a bounded
// retry instead of failing the compile outright.
func WithResolverRetry(retries int, backoff time.Duration) Option {
	return func(e *Engine) {
		e.resolverRetries = retries
		e.resolverBackoff = backoff
	}
}

// WithBrowserProfile blocks fn:doc/fn:put, per the paper's §4.2.1
// security rule for in-browser execution.
func WithBrowserProfile() Option {
	return func(e *Engine) { e.blockDoc = true }
}

// WithDocResolver installs an engine-level default fn:doc resolver:
// every run without its own RunConfig.Docs reads documents through it.
// This is how a document store binds to an engine (see xqib.WithStore).
func WithDocResolver(r runtime.DocResolver) Option {
	return func(e *Engine) { e.docs = r }
}

// WithCollections installs an engine-level default fn:collection
// source: every run without its own RunConfig.Collections reads
// collections through it (a store's shard-merge scan, a federation's
// scatter-gather). A source that can also ship (a federation's,
// runtime.CollectionShipper) answers the expressions the planner
// annotated as per-document maps over a collection
// (runtime.Context.EvalShipped).
func WithCollections(src runtime.CollectionSource) Option {
	return func(e *Engine) { e.collections = src }
}

// WithFunctions registers extra built-in functions on the engine's host
// layer. A registration shadows a function of the same name and arity
// in the layers below for this engine only.
func WithFunctions(register func(*runtime.Registry)) Option {
	return func(e *Engine) { register(e.host) }
}

// New builds an engine: an empty host layer above the shared fn:
// library, then the options.
func New(opts ...Option) *Engine { return NewAbove(funclib.Library(), opts...) }

// NewAbove builds an engine whose host layer sits on parent, a frozen
// layer shared by every engine that names it (the browser host names
// browser.Functions(), which sits on the library), then the options.
func NewAbove(parent *runtime.Registry, opts ...Option) *Engine {
	e := &Engine{host: parent.Layer()}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Registry exposes the engine's registry (its host layer, answering
// for the library below it too) for host extensions.
func (e *Engine) Registry() *runtime.Registry { return e.host }

// Fingerprint identifies the shape of this engine's static context for
// program-cache keying: the browser profile plus an order-independent
// hash of the signatures (name, arity range, Updating, Sequential,
// whether it streams) of the host layer and every layer below it, down
// to the library. Everything a compilation reads of an engine is in
// there, and nothing else is: not the closures behind the signatures,
// not the module resolver, not the document resolvers — those belong
// to a binding (see Program). So two engines built the same way —
// every page engine of one application, each with its own extras
// closures — have one fingerprint and share one compiled program,
// while an engine that adds, drops or re-declares a host function,
// stands on another parent (a page engine beside a plain one), or
// differs in the browser profile, gets a different one.
func (e *Engine) Fingerprint() uint64 {
	fp := e.host.Shape()
	if e.blockDoc {
		fp ^= 0x9e3779b97f4a7c15
	}
	return fp
}

// sharedProgram is the host-independent part of a compilation, built
// once per (module, engine shape) and immutable afterwards: every
// engine of that shape binds to it, concurrently, without locks.
type sharedProgram struct {
	// mod is the module, planned and optimized (plan.Prepare).
	mod *ast.Module
	// user is the frozen layer of the module's own functions.
	user *runtime.Registry
}

// Program is a compiled, runnable XQuery program: a shared compilation
// bound to one engine. Compilation is parse → plan (path access
// methods, adoption and shipping marks) → optimize (algebraic FLWOR
// rewrites, installed as the module's second set of roots); one
// evaluator, the tree walker in runtime, runs the result. The binding
// is the cheap part — the registry chain user functions → this engine's
// imports → its host layer → library, and the engine whose resolvers a
// run defaults to — and the only part that refers to a host.
type Program struct {
	engine *Engine
	shared *sharedProgram
	prog   *runtime.Program
}

// Compile parses and compiles a main or library module.
func (e *Engine) Compile(src string) (*Program, error) {
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, err
	}
	return e.CompileModule(m)
}

// CompileModule compiles an already-parsed module. The AST is read-only
// to both compilation and evaluation, so one parsed module may be
// compiled by many engines concurrently — the program cache uses this
// to share parse work across engines of different shapes.
func (e *Engine) CompileModule(m *ast.Module) (*Program, error) {
	return e.bind(e.compileShared(m))
}

// compileShared does the host-independent work: planning, optimizing
// and the module's functions, once per program — cached programs (see
// Cache) never recompile. It cannot fail: what can (imports, external
// functions) is checked per binding.
func (e *Engine) compileShared(m *ast.Module) *sharedProgram {
	return &sharedProgram{mod: m, user: runtime.CompileFunctions(m)}
}

// bind attaches a shared compilation — this engine's own or one
// compiled by another engine of the same shape — to this engine:
// imports resolve through its resolver, host functions are its own.
func (e *Engine) bind(sh *sharedProgram) (*Program, error) {
	rp, err := runtime.Bind(sh.mod, sh.user, runtime.CompileConfig{
		Registry:        e.host,
		Resolver:        e.resolver,
		BlockDoc:        e.blockDoc,
		ResolverRetries: e.resolverRetries,
		ResolverBackoff: e.resolverBackoff,
	})
	if err != nil {
		return nil, err
	}
	return &Program{engine: e, shared: sh, prog: rp}, nil
}

// bindCached is bind for a compilation that lives in a Cache: the
// engine binds each such program once and hands the same binding to
// every later lookup, so a warm cache hit allocates nothing and — what
// matters more — resolves the program's imports once per engine, not
// once per lookup (a rest.Client resolver fetches a service description
// over HTTP). Concurrent first lookups of one program share one bind,
// and with it one round of resolver calls. A failed bind is not
// remembered: the next lookup tries again.
func (e *Engine) bindCached(sh *sharedProgram) (*Program, error) {
	b := e.bound.slot(sh)
	b.once.Do(func() {
		b.err = errBindAborted // what waiters see if bind panics
		b.prog, b.err = e.bind(sh)
	})
	if b.err != nil {
		e.bound.drop(sh, b)
	}
	return b.prog, b.err
}

var errBindAborted = fmt.Errorf("%w: xquery: binding a cached program panicked", xqerr.ErrInternal)

// maxBindings bounds an engine's binding memo. A page engine binds the
// handful of scripts of its page; an engine shared by a serving pool
// sees every source the pool does, so the memo is bounded like the
// program cache it mirrors.
const maxBindings = DefaultCacheCapacity

// bindings is an engine's memo of its bindings, keyed by the shared
// compilation bound: the Engine state that changes after New, behind a
// lock of its own.
type bindings struct {
	mu sync.Mutex
	m  map[*sharedProgram]*binding
}

// binding is one memoised bind; once guards prog and err.
type binding struct {
	once sync.Once
	prog *Program
	err  error
}

// slot returns the memo slot for sh, creating it (and, at capacity,
// dropping an arbitrary other one: a dropped program is bound again
// when it is next asked for) on first use.
func (bs *bindings) slot(sh *sharedProgram) *binding {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[sh]
	if b == nil {
		if bs.m == nil {
			bs.m = map[*sharedProgram]*binding{}
		}
		if len(bs.m) >= maxBindings {
			for k := range bs.m {
				delete(bs.m, k)
				break
			}
		}
		b = &binding{}
		bs.m[sh] = b
	}
	return b
}

// drop forgets b if it still is sh's slot.
func (bs *bindings) drop(sh *sharedProgram, b *binding) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if bs.m[sh] == b {
		delete(bs.m, sh)
	}
}

// RewriteStats returns the optimizer's rewrite counts for this
// program: how many constant folds, predicate pushdowns, loop
// hoistings and hash-join detections shaped the optimized roots.
func (p *Program) RewriteStats() plan.Stats { return p.shared.mod.Rewrites }

// Diagnostic and Severity are the static analyzer's finding types,
// re-exported so facade users need not import the analysis package.
type (
	Diagnostic = analysis.Diagnostic
	Severity   = analysis.Severity
)

// The analyzer severities and the update-independence diagnostic codes,
// re-exported alongside Diagnostic so facade callers can filter
// Result.Diagnostics without importing the analysis package.
const (
	SevWarning = analysis.SevWarning
	SevError   = analysis.SevError
	SevNote    = analysis.SevNote

	CodeDeadUpdate     = analysis.CodeDeadUpdate
	CodeDeadDelete     = analysis.CodeDeadDelete
	CodeUpdateConflict = analysis.CodeUpdateConflict
)

// ErrAnalysisFailed matches (via errors.Is) every *AnalysisError: a
// program rejected by the static analyzer under Strict mode.
var ErrAnalysisFailed = errors.New("xquery: static analysis failed")

// AnalysisError reports a program rejected by the static analyzer. It
// carries the full diagnostic list (warnings included) so callers can
// render everything, and wraps ErrAnalysisFailed for errors.Is.
type AnalysisError struct {
	Diagnostics []Diagnostic
}

func (e *AnalysisError) Error() string {
	nerr := 0
	first := ""
	for _, d := range e.Diagnostics {
		if d.Severity == analysis.SevError {
			if nerr == 0 {
				first = d.String()
			}
			nerr++
		}
	}
	if nerr == 1 {
		return fmt.Sprintf("xquery: static analysis failed: %s", first)
	}
	return fmt.Sprintf("xquery: static analysis failed: %d errors, first: %s", nerr, first)
}

// Unwrap makes errors.Is(err, ErrAnalysisFailed) true.
func (e *AnalysisError) Unwrap() error { return ErrAnalysisFailed }

// analysisConfig derives the analyzer configuration matching this
// engine's static context: its registry (so host extensions like
// browser: resolve) and its browser profile. The analyzer reads
// signatures only, so its result is a function of (Fingerprint, module).
func (e *Engine) analysisConfig(maxSteps int64) analysis.Config {
	return analysis.Config{Registry: e.host, BrowserProfile: e.blockDoc, MaxSteps: maxSteps}
}

// Analyze parses src and runs the static analyzer without compiling or
// evaluating it. Parse failures return the parser error; an analyzed
// module always returns a result, whatever its diagnostics say.
func (e *Engine) Analyze(src string) (*analysis.Result, error) {
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, err
	}
	return e.AnalyzeModule(m), nil
}

// AnalyzeModule runs the static analyzer over an already-parsed module
// against this engine's static context.
func (e *Engine) AnalyzeModule(m *ast.Module) *analysis.Result {
	return analysis.Analyze(m, e.analysisConfig(0))
}

// MustCompile compiles or panics; for tests and fixed queries.
func (e *Engine) MustCompile(src string) *Program {
	p, err := e.Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Module returns the compiled module's AST (the REST server inspects
// the prolog's options and function declarations).
func (p *Program) Module() *ast.Module { return p.prog.Module }

// Runtime returns the underlying runtime program (host integration).
func (p *Program) Runtime() *runtime.Program { return p.prog }

// RunConfig parameterises one evaluation.
type RunConfig struct {
	// Context, when non-nil, cancels the run cooperatively: evaluation
	// polls it alongside the step/time budget and aborts with an error
	// matching Context.Err() (errors.Is(err, context.Canceled) or
	// context.DeadlineExceeded). Cancellation discards pending updates
	// like any other failed run.
	Context context.Context
	// ContextItem is the initial focus (e.g. the page document in the
	// browser: paper §4.2.3 "the document in browser:self() is the
	// context item").
	ContextItem xdm.Item
	// AmbientFocus additionally makes ContextItem the focus inside user
	// function bodies (the browser host's processing model).
	AmbientFocus bool
	// Docs resolves fn:doc calls. Nil falls back to the engine's
	// WithDocResolver default (if any).
	Docs runtime.DocResolver
	// Collections is the source fn:collection reads. Nil falls back to
	// the engine's WithCollections default. A source that can ship
	// (runtime.CollectionShipper, a federation's) also answers a FLWOR
	// or fn:count the planner annotated as a per-document map over a
	// collection (ast.ShipPlan) by handing it the per-document
	// expression, so the holder of the documents evaluates it and only
	// values come back; DisableIndexes switches that off.
	Collections runtime.CollectionSource
	// Hooks provides the browser extension points.
	Hooks runtime.Hooks
	// Variables are external variable bindings.
	Variables map[dom.QName]xdm.Sequence
	// OnUpdate is called for each applied update primitive. A run
	// applies its pending updates after every block statement and while
	// iteration, and once at its end (DESIGN.md §5w).
	OnUpdate func(update.Primitive)
	// Now fixes the evaluation's current dateTime (defaults to
	// time.Now).
	Now time.Time
	// Profiler, when non-nil, collects per-expression evaluation
	// statistics (the §7 "performance profiler" tooling).
	Profiler *runtime.Profiler
	// MaxSteps bounds the evaluation steps (expression evaluations plus
	// streamed items) of this run; <= 0 is unlimited. Exceeding it
	// fails the run with an error matching ErrBudgetExceeded.
	MaxSteps int64
	// Timeout bounds the run's wall-clock time; <= 0 is unlimited.
	Timeout time.Duration
	// DisableIndexes turns off the per-document indexes for this run:
	// planned path steps scan the axis and fn:id walks the tree — and
	// nothing is shipped to a collection's source (EvalShipped): the
	// run ignores the planner's access and shipping annotations (not its
	// adoption marks, which use no index: their oracle is the unplanned
	// tree). It does not change how document-order sorts run: they read
	// the labels package dom keeps, with or without it. It is the scan
	// baseline in benchmarks and the oracle side of the index and
	// shipping differential tests.
	DisableIndexes bool
	// Strict runs the static analyzer before evaluation: error-severity
	// diagnostics abort the run with an *AnalysisError (matching
	// ErrAnalysisFailed) before any expression evaluates, and the
	// remaining warnings are attached to Result.Diagnostics. Under
	// Cache.EvalQuery, Strict additionally keeps rejected programs out
	// of the program cache.
	Strict bool
}

// ErrBudgetExceeded matches (via errors.Is) the error returned when a
// run exceeds its MaxSteps or Timeout budget.
var ErrBudgetExceeded = runtime.ErrBudgetExceeded

// ErrNoResolver matches a module import attempted with no resolver
// installed; ErrUnknownFunction matches a call to an undeclared
// function.
var (
	ErrNoResolver      = runtime.ErrNoResolver
	ErrUnknownFunction = runtime.ErrUnknownFunction
)

// Result is the outcome of an evaluation.
type Result struct {
	Value xdm.Sequence
	// Updates counts the update primitives applied during the run.
	Updates int
	// Diagnostics holds the analyzer's warnings when the run was
	// Strict (errors never reach a Result — they abort the run).
	Diagnostics []Diagnostic
}

// NewContext prepares a reusable evaluation context (the browser host
// keeps one per page so listener invocations share global state).
func (p *Program) NewContext(cfg RunConfig) *runtime.Context {
	ctx := runtime.NewContext(p.prog)
	ctx.Item = cfg.ContextItem
	if cfg.ContextItem != nil {
		ctx.Pos, ctx.Size = 1, 1
	}
	if cfg.AmbientFocus {
		ctx.Ambient = cfg.ContextItem
	}
	ctx.Profiler, ctx.Hooks, ctx.IO, ctx.NoIndex = cfg.Profiler, cfg.Hooks, cfg.Context, cfg.DisableIndexes
	ctx.Budget = runtime.NewBudgetContext(cfg.Context, cfg.MaxSteps, cfg.Timeout)
	ctx.Docs, ctx.Collections = cfg.Docs, cfg.Collections
	// The binding engine's defaults (a bound store or federation) fill
	// whatever the run left unset. A run's own collection source
	// replaces the engine's whole, so only a source that can ship
	// itself ships.
	if ctx.Docs == nil {
		ctx.Docs = p.engine.docs
	}
	if ctx.Collections == nil {
		ctx.Collections = p.engine.collections
	}
	if !cfg.Now.IsZero() {
		ctx.Now = cfg.Now
	}
	for name, val := range cfg.Variables {
		ctx.Bind(name, val)
	}
	ctx.Observe(cfg.OnUpdate)
	return ctx
}

// Run evaluates the module body (after initialising globals) and applies
// any pending updates.
func (p *Program) Run(cfg RunConfig) (*Result, error) {
	var diags []Diagnostic
	if cfg.Strict {
		ares := analysis.Analyze(p.prog.Module, p.engine.analysisConfig(cfg.MaxSteps))
		if ares.HasErrors() {
			return nil, &AnalysisError{Diagnostics: ares.Diagnostics}
		}
		diags = ares.Diagnostics
	}
	ctx := p.NewContext(cfg)
	// A binding whose imports reach outside their namespaces evaluates
	// the planned roots, so no rewrite shaped what it runs.
	if cfg.Profiler != nil && !p.prog.StrayImports {
		st := p.RewriteStats()
		cfg.Profiler.AddRewrites("fold", int64(st.Folds))
		cfg.Profiler.AddRewrites("pushdown", int64(st.Pushdowns))
		cfg.Profiler.AddRewrites("hoist", int64(st.Hoists))
		cfg.Profiler.AddRewrites("join", int64(st.Joins))
	}
	// The engine's panic-isolation boundary: a panic anywhere in
	// evaluation or PUL application comes back as an error matching
	// xqerr.ErrInternal instead of unwinding into the host.
	val, applied, err := ctx.Finish("xquery.Run", ctx.RunModule)
	if err != nil {
		return nil, err
	}
	return &Result{Value: val, Updates: applied, Diagnostics: diags}, nil
}

// seqHasNodes reports whether any item of s is a node.
func seqHasNodes(s xdm.Sequence) bool {
	for _, it := range s {
		if _, ok := xdm.IsNode(it); ok {
			return true
		}
	}
	return false
}

// EvalQuery is a convenience: compile and run a query against an
// optional context document.
func (e *Engine) EvalQuery(src string, contextDoc *dom.Node) (xdm.Sequence, error) {
	return e.EvalQueryContext(context.Background(), src, contextDoc)
}

// EvalQueryContext is EvalQuery with cooperative cancellation: the run
// aborts (with an error matching ctx.Err()) when ctx is cancelled or
// its deadline passes. It is a panic-isolation boundary: compile- or
// run-time panics come back as errors matching xqerr.ErrInternal.
func (e *Engine) EvalQueryContext(ctx context.Context, src string, contextDoc *dom.Node) (seq xdm.Sequence, err error) {
	defer xqerr.RecoverInto(&err, "xquery.EvalQuery")
	p, err := e.Compile(src)
	if err != nil {
		return nil, err
	}
	cfg := RunConfig{Context: ctx}
	if contextDoc != nil {
		cfg.ContextItem = xdm.NewNode(contextDoc)
	}
	res, err := p.Run(cfg)
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

// FormatSequence renders a sequence the way cmd/xq prints results:
// nodes serialized as XML, atomics by their lexical form, separated by
// spaces. appendNode appends one node's serialization to the buffer the
// whole result is built in (markup.AppendXML).
func FormatSequence(s xdm.Sequence, appendNode func(dst []byte, n *dom.Node) []byte) string {
	var buf []byte
	for i, it := range s {
		if i > 0 {
			buf = append(buf, ' ')
		}
		if n, ok := xdm.IsNode(it); ok {
			buf = appendNode(buf, n)
		} else {
			buf = append(buf, it.String()...)
		}
	}
	return string(buf)
}

// Err formats an error chain for user display.
func Err(err error) string {
	if err == nil {
		return ""
	}
	return fmt.Sprintf("%v", err)
}
