// Package runtime evaluates compiled XQuery modules: the dynamic
// context, variable environments, the function registry, and a
// tree-walking evaluator for the full extended dialect (XQuery 1.0 +
// Update Facility + Scripting + full-text + the paper's browser
// extensions). The runtime is host-agnostic: browser behaviour enters
// through the Hooks interface and the DocResolver, which is how the
// same engine runs in the browser plug-in, on the server (internal/rest)
// and on the command line (cmd/xq) — the "XQuery on all tiers" property
// the paper argues for.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dom"
	"repro/internal/faultpoint"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/plan"
	"repro/internal/xquery/update"
)

// Sentinel errors for the resolver machinery; applications match them
// with errors.Is (the facade re-exports them).
var (
	// ErrNoResolver reports a module import with no resolver installed.
	ErrNoResolver = errors.New("xquery: no module resolver installed")
	// ErrUnknownFunction reports a call to an undeclared function.
	ErrUnknownFunction = errors.New("xquery: unknown function")
)

// maxCallDepth bounds recursion so runaway user functions produce an
// error instead of a stack overflow.
const maxCallDepth = 4096

// DocResolver resolves fn:doc URIs to document nodes.
type DocResolver func(uri string) (*dom.Node, error)

// CollectionResolver resolves fn:collection URIs to document lists
// ("" is the default collection).
type CollectionResolver func(uri string) ([]*dom.Node, error)

// CollectionIterResolver is the streaming form of CollectionResolver:
// it resolves fn:collection URIs to lazy document iterators, so a
// store that scans shards incrementally can hand the merge to the
// engine one document at a time. When a Context carries both resolvers
// the streaming fn:collection prefers this one.
type CollectionIterResolver func(uri string) (xdm.Iter, error)

// Hooks are the browser extension points (paper §4). A nil Hooks makes
// the event/style expressions and browser: functions unavailable, which
// is the correct server-side behaviour.
type Hooks interface {
	// AttachListener registers listener for the event type on each
	// target node (paper §4.3.1).
	AttachListener(ctx *Context, event string, targets xdm.Sequence, listener dom.QName) error
	// AttachBehind binds the listener to the asynchronous evaluation of
	// call: the host starts the evaluation, fires readyState events, and
	// invokes the listener on each (paper §4.4).
	AttachBehind(ctx *Context, event string, call func() (xdm.Sequence, error), listener dom.QName) error
	// DetachListener removes a registration.
	DetachListener(ctx *Context, event string, targets xdm.Sequence, listener dom.QName) error
	// TriggerEvent synthesises an event at the targets.
	TriggerEvent(ctx *Context, event string, targets xdm.Sequence) error
	// SetStyle / GetStyle implement the CSS grammar (paper §4.5).
	SetStyle(ctx *Context, prop string, targets xdm.Sequence, value string) error
	GetStyle(ctx *Context, prop string, targets xdm.Sequence) (xdm.Sequence, error)
}

// Function is a callable: a built-in, an imported web-service proxy, or
// a compiled user function.
type Function struct {
	Name       dom.QName
	MinArgs    int
	MaxArgs    int // -1 for variadic
	Updating   bool
	Sequential bool
	Invoke     func(ctx *Context, args []xdm.Sequence) (xdm.Sequence, error)
	// Stream, when non-nil, is the lazy entry point: arguments arrive
	// as unevaluated iterators, so a function that only needs a prefix
	// (fn:exists, fn:head, fn:zero-or-one) decides without forcing the
	// rest. A function with a Stream must still provide Invoke, which
	// the evaluator uses when Context.NoStream is set.
	Stream func(ctx *Context, args []xdm.Iter) (xdm.Iter, error)
}

// ModuleResolver materialises a module import by registering its
// functions into reg, the importing program's import layer. The REST
// substrate registers web-service proxies here (paper §3.4). A resolver
// may register any function, and whatever it registers shadows the
// host and library functions of the same name for the importing program
// ("imports may shadow"); one that stays inside the imported module's
// namespace keeps the program on its optimized roots, one that does not
// makes that binding evaluate the planned ones (see
// Program.StrayImports).
type ModuleResolver func(imp ast.ModuleImport, reg *Registry) error

// CompileConfig parameterises the host half of compilation: what a
// module is bound against.
type CompileConfig struct {
	// Registry is the binding engine's function chain (host layer above
	// the library). It is never written: imports and the module's own
	// functions go into layers above it.
	Registry *Registry
	// Resolver handles module imports; nil rejects imports.
	Resolver ModuleResolver
	// BlockDoc disables fn:doc and fn:put — the browser profile's
	// security rule (paper §4.2.1).
	BlockDoc bool
	// ResolverRetries is the number of additional resolver attempts
	// after a failed module load (0: fail on the first error, the
	// pre-retry behaviour). Module resolvers reach over process
	// boundaries — the REST substrate fetches service descriptions —
	// so transient failures deserve bounded retry before the compile
	// gives up.
	ResolverRetries int
	// ResolverBackoff is the wait before the first retry; each further
	// retry doubles it. 0 retries immediately.
	ResolverBackoff time.Duration
}

// Program is a module bound to one engine's functions, ready for
// evaluation. Reg is the whole chain the evaluator resolves calls in:
// user functions, then this binding's imports, then the engine's host
// layer, then the library.
type Program struct {
	Module   *ast.Module
	Reg      *Registry
	BlockDoc bool
	// StrayImports reports that a module resolver registered a function
	// outside the namespaces the module imports. The optimizer worked on
	// the module once, for every binding, taking the library's names for
	// the library's functions (it folds fn:concat, hoists fn:count), and
	// this binding may shadow one of them: it evaluates the planned roots,
	// which assume nothing about any function.
	StrayImports bool
}

// root chooses which of a unit's two roots this binding evaluates: the
// optimized one where the module has it and nothing is shadowed.
func (p *Program) root(planned, optimized ast.Expr) ast.Expr {
	if optimized == nil || p.StrayImports {
		return planned
	}
	return optimized
}

// resolverRetries counts module-resolver load attempts retried after a
// failure, process-wide (surfaced in serve.Metrics.Failures).
var resolverRetries atomic.Int64

// ResolverRetries returns the process-wide resolver-retry count.
func ResolverRetries() int64 { return resolverRetries.Load() }

// resolveWithRetry runs one module import through the resolver with
// the configured bounded retry-with-backoff. The resolver.load fault
// point fires inside each attempt, so injected faults are retried like
// real ones. Registry.Register replaces same-name/arity entries, so a
// half-registered failed attempt is safely overwritten by the retry.
func resolveWithRetry(cfg CompileConfig, imp ast.ModuleImport, reg *Registry) error {
	attempt := func() error {
		if err := faultpoint.Hit(faultpoint.PointResolverLoad); err != nil {
			return err
		}
		return cfg.Resolver(imp, reg)
	}
	err := attempt()
	backoff := cfg.ResolverBackoff
	for retry := 0; err != nil && retry < cfg.ResolverRetries; retry++ {
		if backoff > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		resolverRetries.Add(1)
		err = attempt()
	}
	return err
}

// Compile is CompileFunctions followed by Bind: the whole compilation
// of a module for one engine.
func Compile(m *ast.Module, cfg CompileConfig) (*Program, error) {
	return Bind(m, CompileFunctions(m), cfg)
}

// CompileFunctions is the host-independent half of compilation: it
// runs the planner and the optimizer (once per module, however often it
// is compiled: the annotations and the optimized roots must be in place
// before any evaluation reads them) and compiles the prolog's function
// declarations into a frozen layer of their own. Nothing in the result
// refers to an engine, so every binding of the module shares it.
func CompileFunctions(m *ast.Module) *Registry {
	m.EnsurePlanned(func() { plan.Prepare(m) })
	user := NewRegistry()
	for i := range m.Prolog.Functions {
		if decl := &m.Prolog.Functions[i]; !decl.External {
			// A fresh unfrozen layer accepts every registration.
			_ = user.Register(userFunction(decl))
		}
	}
	user.Freeze()
	return user
}

// Bind is the per-engine half: it resolves the module's imports
// through cfg.Resolver into an import layer of this binding's own,
// stacks the shared user layer (from CompileFunctions) on top, and
// checks that every external function declaration has an
// implementation somewhere in the chain. Imports bind here and not in
// the shared half because a resolver's proxies close over its session
// (its HTTP client, its context).
func Bind(m *ast.Module, user *Registry, cfg CompileConfig) (*Program, error) {
	reg, stray := cfg.Registry, false
	if len(m.Prolog.Imports) > 0 {
		if cfg.Resolver == nil {
			return nil, fmt.Errorf("%w for import of %q", ErrNoResolver, m.Prolog.Imports[0].URI)
		}
		reg = reg.Layer()
		for _, imp := range m.Prolog.Imports {
			if err := resolveWithRetry(cfg, imp, reg); err != nil {
				return nil, fmt.Errorf("xquery: importing %q: %w", imp.URI, err)
			}
		}
		for key := range reg.funcs {
			stray = stray || !m.Imports(key.Space)
		}
	}
	if len(user.funcs) > 0 || reg == nil {
		reg = user.over(reg)
	}
	for i := range m.Prolog.Functions {
		decl := &m.Prolog.Functions[i]
		if decl.External && reg.Lookup(decl.Name, len(decl.Params)) == nil {
			return nil, fmt.Errorf("xquery: external function %s/%d has no implementation",
				decl.Name, len(decl.Params))
		}
	}
	return &Program{Module: m, Reg: reg, BlockDoc: cfg.BlockDoc, StrayImports: stray}, nil
}

// userFunction compiles one prolog function declaration: an evaluation
// of the declared body in whatever context invokes it.
func userFunction(decl *ast.FuncDecl) *Function {
	d := decl
	return &Function{
		Name:       d.Name,
		MinArgs:    len(d.Params),
		MaxArgs:    len(d.Params),
		Updating:   d.Updating,
		Sequential: d.Sequential,
		Invoke: func(ctx *Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if ctx.depth >= maxCallDepth {
				return nil, fmt.Errorf("xquery: call depth limit exceeded in %s", d.Name)
			}
			// A fresh frame rooted at the globals: user functions do not
			// see the caller's local variables or context item.
			callee := *ctx
			callee.depth = ctx.depth + 1
			callee.env = ctx.globals
			callee.Item = ctx.Ambient
			callee.Pos, callee.Size = 0, 0
			if callee.Item != nil {
				callee.Pos, callee.Size = 1, 1
			}
			for i, prm := range d.Params {
				v := args[i]
				if prm.Type != nil {
					cv, err := ConvertValue(v, *prm.Type)
					if err != nil {
						return nil, fmt.Errorf("xquery: argument $%s of %s: %w", prm.Name.Local, d.Name, err)
					}
					v = cv
				}
				callee.env = callee.env.bind(prm.Name, v)
			}
			res, err := callee.Eval(ctx.Prog.root(d.Body, d.Optimized))
			if ex, ok := err.(*exitError); ok {
				res, err = ex.val, nil
			}
			if err == errBreak || err == errContinue {
				// Loop control must not cross a function boundary.
				return nil, fmt.Errorf("%w (in function %s)", err, d.Name)
			}
			if err != nil {
				return nil, err
			}
			if d.ReturnType != nil {
				res, err = ConvertValue(res, *d.ReturnType)
				if err != nil {
					return nil, fmt.Errorf("xquery: result of %s: %w", d.Name, err)
				}
			}
			return res, nil
		},
	}
}

// --- environments ------------------------------------------------------------

// Box is a mutable variable cell (needed by the scripting extension's
// assignment statement).
type Box struct{ Val xdm.Sequence }

// env is one frame of the variable chain. The box is held by value — a
// binding is one allocation — and handed out by address, so a closure or
// an assignment statement that keeps the *Box keeps its frame alive.
type env struct {
	parent *env
	name   dom.QName
	box    Box
}

func (e *env) bind(name dom.QName, val xdm.Sequence) *env {
	return &env{parent: e, name: name, box: Box{Val: val}}
}

func (e *env) lookup(name dom.QName) *Box {
	for f := e; f != nil; f = f.parent {
		if f.name.Matches(name) {
			return &f.box
		}
	}
	return nil
}

// --- dynamic context ------------------------------------------------------------

// Context is the dynamic evaluation context. Copies are cheap; pointer
// fields (environment chain, PUL, hooks) are shared intentionally.
type Context struct {
	Prog *Program

	// Focus.
	Item xdm.Item
	Pos  int
	Size int

	// Ambient, when set, is installed as the context item inside user
	// function bodies (which per XQuery 1.0 have an undefined focus).
	// The browser host sets it to the page document so listeners can
	// write //div[@id=...] directly — §4.2.3: "accessing any node in
	// the document is easy and straightforward".
	Ambient xdm.Item

	// External interfaces. CollectionsIter, when set, is the streaming
	// source fn:collection pulls from; Collections stays the eager
	// fallback (and the form the NoStream evaluator uses).
	// CollectionsShip, when set, answers the nodes the planner annotated
	// as per-document maps over a collection (see EvalShipped).
	Docs            DocResolver
	Collections     CollectionResolver
	CollectionsIter CollectionIterResolver
	CollectionsShip CollectionShipResolver
	Hooks           Hooks
	Now             time.Time

	// PUL accumulates update primitives; nil forbids updating
	// expressions. SnapshotApply, when non-nil, is called after every
	// sequential statement to make side effects visible (scripting
	// semantics); when nil the PUL just accumulates (pure XQuery +
	// Update semantics: apply at end of query).
	PUL           *update.PUL
	SnapshotApply func(*update.PUL) error

	// Profiler, when non-nil, collects per-expression statistics (§7
	// future-work tooling); nil costs nothing.
	Profiler *Profiler

	// Budget, when non-nil, bounds this query's evaluation (steps and
	// wall clock). It is shared by design across context copies and
	// behind-call goroutines: one budget per query invocation.
	Budget *Budget

	// IO, when non-nil, is the run's cancellation context for outbound
	// I/O performed by host functions (REST calls, federation
	// sub-requests): cancelling the run stops those calls from burning
	// sockets, not just the evaluation loop. Program.NewContext sets it
	// from RunConfig.Context; hosts read it through IOContext.
	IO context.Context

	// NoStream forces the materializing evaluator everywhere: EvalIter
	// degrades to a deferred Eval and streaming built-ins use their
	// eager Invoke. Used as the baseline in benchmarks and as an
	// escape hatch.
	NoStream bool

	// NoIndex disables every use of the per-document indexes: planned
	// steps scan and fn:id walks. Document-order sorts are the same
	// either way (dom.SortDedup). It is the scan baseline in benchmarks
	// and the oracle side of the index differential tests.
	NoIndex bool

	// NoIndexBuild lets the evaluation read a per-document index that is
	// already built and fresh but never build one: index probes that
	// find none scan instead. It is set for expressions evaluated on
	// behalf of a remote caller (xquery.Cache.EvalPerDocument), who may
	// use what the owner of the documents has built and must not make
	// the owner's memory grow.
	NoIndexBuild bool

	// depth counts user-function frames (bounded by maxCallDepth). It
	// sits here, in the word the flags leave empty: a Context is copied
	// on every focus change and binding, and 208 bytes is exactly an
	// allocator size class.
	depth int32

	// ft carries full-text scoring state (the scores ftcontains
	// recorded, the scan side's per-document statistics cache). A
	// pointer so every context copy shares one state per query
	// invocation, like PUL and Budget.
	ft *ftState

	env     *env
	globals *env
}

// NewContext builds a root context for the program.
func NewContext(p *Program) *Context {
	ctx := &Context{Prog: p, Now: time.Now(), PUL: &update.PUL{}, ft: newFTState()}
	ctx.env = nil
	ctx.globals = nil
	return ctx
}

// IOContext returns the run's context for outbound I/O (never nil):
// the RunConfig.Context the evaluation was started under, or
// context.Background() when the run is unbounded. Host functions that
// issue network calls (rest:get, remote proxies, federation scatters)
// build their requests with it so a cancelled query stops burning
// sockets.
func (ctx *Context) IOContext() context.Context {
	if ctx == nil || ctx.IO == nil {
		return context.Background()
	}
	return ctx.IO
}

// Bind adds a variable binding (used by the host to inject external
// variables) and returns the box.
func (ctx *Context) Bind(name dom.QName, val xdm.Sequence) *Box {
	ctx.env = ctx.env.bind(name, val)
	if ctx.globals == nil {
		ctx.globals = ctx.env
	}
	return &ctx.env.box
}

// Var returns the current value of a variable, if bound.
func (ctx *Context) Var(name dom.QName) (xdm.Sequence, bool) {
	if b := ctx.env.lookup(name); b != nil {
		return b.Val, true
	}
	return nil, false
}

// InitGlobals evaluates the prolog's global variable declarations in
// order and installs them in the context.
func (ctx *Context) InitGlobals() error {
	for i := range ctx.Prog.Module.Prolog.Vars {
		v := &ctx.Prog.Module.Prolog.Vars[i]
		if ctx.env.lookup(v.Name) != nil {
			continue // externally bound (or duplicate) — keep existing
		}
		var val xdm.Sequence
		if v.Init != nil {
			var err error
			val, err = ctx.Eval(v.Init)
			if err != nil {
				return fmt.Errorf("xquery: initialising $%s: %w", v.Name.Local, err)
			}
		} else if v.External {
			return fmt.Errorf("xquery: external variable $%s was not bound", v.Name.Local)
		}
		if v.Type != nil {
			cv, err := ConvertValue(val, *v.Type)
			if err != nil {
				return fmt.Errorf("xquery: variable $%s: %w", v.Name.Local, err)
			}
			val = cv
		}
		ctx.Bind(v.Name, val)
	}
	ctx.globals = ctx.env
	return nil
}

// Run initialises globals and evaluates the module body. Pending
// updates are left in ctx.PUL for the host to apply (unless
// SnapshotApply consumed them along the way).
func (ctx *Context) Run() (xdm.Sequence, error) {
	if err := ctx.InitGlobals(); err != nil {
		return nil, err
	}
	return ctx.RunBody()
}

// RunBody evaluates the module body (nothing, for a library module) in
// a context whose globals are initialised: the second half of Run, for
// a host that does the first on its own.
func (ctx *Context) RunBody() (xdm.Sequence, error) {
	m := ctx.Prog.Module
	if m.Body == nil {
		return nil, nil
	}
	res, err := ctx.Eval(ctx.Prog.root(m.Body, m.Optimized))
	if ex, ok := err.(*exitError); ok {
		return ex.val, nil
	}
	return res, err
}

// CallFunction invokes a named function with the given arguments — the
// plug-in host uses this to run event listeners (paper Figure 1: "Zorba
// is called with the XQuery prolog followed by the listener call").
func (ctx *Context) CallFunction(name dom.QName, args []xdm.Sequence) (xdm.Sequence, error) {
	f := ctx.Prog.Reg.Lookup(name, len(args))
	if f == nil {
		return nil, fmt.Errorf("%w: %s/%d", ErrUnknownFunction, name, len(args))
	}
	res, err := f.Invoke(ctx, args)
	if ex, ok := err.(*exitError); ok {
		return ex.val, nil
	}
	return res, err
}

// withFocus returns a copy of the context with a new focus.
func (ctx *Context) withFocus(item xdm.Item, pos, size int) *Context {
	c := *ctx
	c.Item = item
	c.Pos = pos
	c.Size = size
	return &c
}

// withEnv returns a copy of the context with a new variable frame.
func (ctx *Context) withBinding(name dom.QName, val xdm.Sequence) *Context {
	c := *ctx
	c.env = ctx.env.bind(name, val)
	return &c
}

// exitError implements the scripting "exit with" non-local return.
type exitError struct{ val xdm.Sequence }

func (e *exitError) Error() string { return "xquery: exit outside of a function" }

// ConvertValue applies the function conversion rules to a sequence for
// the given expected type: atomization for atomic expected types,
// untypedAtomic casting, numeric promotion, and a final instance check.
func ConvertValue(s xdm.Sequence, st xdm.SeqType) (xdm.Sequence, error) {
	if st.Empty {
		if len(s) != 0 {
			return nil, fmt.Errorf("expected empty-sequence(), got %d items", len(s))
		}
		return s, nil
	}
	if st.Item.Atomic != 0 {
		out := make(xdm.Sequence, 0, len(s))
		for _, it := range s {
			a := xdm.Atomize(it)
			a, err := promoteAtomic(a, st.Item.Atomic)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		s = out
	}
	if !st.Matches(s) {
		return nil, fmt.Errorf("value does not match required type %s", st)
	}
	return s, nil
}

func promoteAtomic(a xdm.Item, target xdm.Type) (xdm.Item, error) {
	t := a.Type()
	if t == target {
		return a, nil
	}
	switch {
	case t == xdm.TUntypedAtomic:
		return xdm.Cast(a, target)
	case t == xdm.TInteger && (target == xdm.TDecimal || target == xdm.TDouble):
		return xdm.Cast(a, target)
	case t == xdm.TDecimal && target == xdm.TDouble:
		return xdm.Cast(a, target)
	case t == xdm.TAnyURI && target == xdm.TString:
		return xdm.String(a.String()), nil
	}
	return a, nil // leave as-is; the instance check decides
}
