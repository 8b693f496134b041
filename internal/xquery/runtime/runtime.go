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

// CollectionSource is where fn:collection reads its documents:
// Documents answers fn:collection(uri) ("" is the default collection)
// as a stream, so a store that scans its shards incrementally hands the
// merge to the engine one document at a time. A source may also ship
// per-document expressions to where the documents are; that capability
// is CollectionShipper, which the evaluator asserts on the source.
type CollectionSource interface {
	Documents(uri string) (xdm.Iter, error)
}

// CollectionResolver is a CollectionSource that answers each URI with a
// document list (a fixed collection, a test's documents).
type CollectionResolver func(uri string) ([]*dom.Node, error)

// Documents streams the resolved list.
func (r CollectionResolver) Documents(uri string) (xdm.Iter, error) {
	docs, err := r(uri)
	if err != nil {
		return nil, err
	}
	out := make(xdm.Sequence, len(docs))
	for i, d := range docs {
		out[i] = xdm.NewNode(d)
	}
	return xdm.FromSlice(out), nil
}

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
	// Stream, when non-nil, is the lazy entry point the evaluator calls:
	// arguments arrive as unevaluated iterators, so a function that only
	// needs a prefix (fn:exists, fn:head, fn:zero-or-one) decides without
	// forcing the rest. Invoke stays the entry point for callers holding
	// materialized arguments (CallFunction); the library's streamed
	// built-ins derive it from Stream.
	Stream func(ctx *Context, args []xdm.Iter) (xdm.Iter, error)
	// Unread has bit i set when the function never reads its parameter
	// i (a user function's untyped parameter its body never names, see
	// unreadParams): a caller may pass nil for it, and Invoke neither
	// converts nor binds it.
	Unread uint64
}

// Reads reports whether f may read its parameter i, so that a caller
// must build the argument.
func (f *Function) Reads(i int) bool { return reads(f.Unread, i) }

// reads reports whether bit i of an Unread mask leaves parameter i read.
func reads(unread uint64, i int) bool { return i >= 64 || unread&(1<<i) == 0 }

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

	// scores: an evaluation that starts in this binding can read the
	// full-text scores it records, so its run records them (Run.scores).
	// Its module's code can (plan.ReadsScores); or the module is a
	// library, whose functions run in their callers' runs but may start
	// one of their own (a listener they attach); or a resolver
	// registered functions the plan knows nothing of.
	scores bool
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
			_ = user.Register(userFunction(decl, m.Bindings))
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
	return &Program{Module: m, Reg: reg, BlockDoc: cfg.BlockDoc, StrayImports: stray,
		scores: m.IsLibrary || stray || plan.ReadsScores(m)}, nil
}

// userFunction compiles one prolog function declaration of a module
// whose binding table is vars: an evaluation of the declared body in
// whatever context invokes it.
func userFunction(decl *ast.FuncDecl, vars ast.Bindings) *Function {
	d, unread := decl, unreadParams(decl, vars)
	return &Function{
		Name:       d.Name,
		MinArgs:    len(d.Params),
		MaxArgs:    len(d.Params),
		Updating:   d.Updating,
		Sequential: d.Sequential,
		Unread:     unread,
		Invoke: func(ctx *Context, args []xdm.Sequence) (xdm.Sequence, error) {
			if ctx.depth >= maxCallDepth {
				return nil, fmt.Errorf("xquery: call depth limit exceeded in %s", d.Name)
			}
			// A fresh frame rooted at the globals: user functions do not
			// see the caller's local variables or context item.
			callee := Context{Prog: ctx.Prog, Item: ctx.Ambient, Run: ctx.Run,
				env: ctx.globals, globals: ctx.globals, depth: ctx.depth + 1}
			if callee.Item != nil {
				callee.Pos, callee.Size = 1, 1
			}
			for i, prm := range d.Params {
				if !reads(unread, i) {
					continue
				}
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

// unreadParams returns the parameters of d that no call needs to bind,
// one bit each (parameters 0 to 63): by the module's binding table
// vars, those with no declared type, so that no conversion can fail,
// that nothing reads or assigns and whose name the body does not bind
// again (Shadowed). Without a table every parameter is bound.
func unreadParams(d *ast.FuncDecl, vars ast.Bindings) uint64 {
	var unread uint64
	for i, prm := range d.Params {
		b := vars.Of(prm.ID)
		if i < 64 && prm.Type == nil && b != nil && b.Refs == 0 && !b.Assigned && !b.Shadowed {
			unread |= 1 << i
		}
	}
	return unread
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

// copyChain copies the frames of e, and returns the copy of the frame
// mark within it (nil when e does not reach mark).
func copyChain(e, mark *env) (cp, markCp *env) {
	if e == nil {
		return nil, nil
	}
	parent, markCp := copyChain(e.parent, mark)
	cp = parent.bind(e.name, e.box.Val)
	if e == mark {
		markCp = cp
	}
	return cp, markCp
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

// Context is one frame of an evaluation: the program, focus and
// variables in scope over the run, which every copy of the frame shares
// and whose fields read through it (ctx.PUL, ctx.Budget).
type Context struct {
	Prog *Program

	// Focus.
	Item xdm.Item
	Pos  int
	Size int

	*Run

	env     *env
	globals *env

	// depth counts user-function frames (bounded by maxCallDepth).
	depth int32
}

// Run is what one evaluation owns: the interfaces it reads through, its
// clock, pending updates, budget and switches, its apply state and its
// memo. NewContext makes one and Derive derives one from another; no
// other code writes its fields (the frames pass of tools/analyzers), so
// a write never reaches a run another evaluation shares.
type Run struct {
	// Ambient, when set, is installed as the context item inside user
	// function bodies (which per XQuery 1.0 have an undefined focus).
	// The browser host sets it to the page document so listeners can
	// write //div[@id=...] directly — §4.2.3: "accessing any node in
	// the document is easy and straightforward".
	Ambient xdm.Item

	// External interfaces. Collections is the source fn:collection
	// reads; when it is also a CollectionShipper it answers the nodes
	// the planner annotated as per-document maps over a collection (see
	// EvalShipped).
	Docs        DocResolver
	Collections CollectionSource
	Hooks       Hooks
	Now         time.Time

	// PUL accumulates update primitives; nil forbids updating
	// expressions. applyPending applies it.
	PUL *update.PUL

	// Profiler, when non-nil, collects per-expression statistics (§7
	// future-work tooling); nil costs nothing.
	Profiler *Profiler

	// Budget, when non-nil, bounds this query's evaluation (steps and
	// wall clock). Frames on the same goroutine share it; a behind call,
	// which runs on a goroutine of its own, steps a fork of it (detach):
	// one budget per query invocation.
	Budget *Budget

	// IO, when non-nil, is the run's cancellation context for outbound
	// I/O performed by host functions (REST calls, federation
	// sub-requests): cancelling the run stops those calls from burning
	// sockets, not just the evaluation loop. Program.NewContext sets it
	// from RunConfig.Context; hosts read it through IOContext.
	IO context.Context

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

	// apply is the run's apply state; nil where the list waits for
	// someone else (the modify clause of a copy-modify expression).
	apply *applier

	// memo is the run's memo of fn:doc and fn:collection and its
	// full-text state (memo.go); nil resolves every call and scores
	// nothing.
	memo *runMemo

	// scores: the run records the full-text score of every node an
	// ftcontains matches, because the program it started in can read
	// them (Program.scores). A run that shares its caller's full-text
	// state shares this too (Derive).
	scores bool
}

// runAlloc is a run's one allocation: its first frame, the run, its
// memo and, made by NewContext, its apply state (Derive shares it).
type runAlloc struct {
	c Context
	r Run
	a applier
	m runMemo
}

// NewContext builds a root context for the program in a new run.
func NewContext(p *Program) *Context {
	a := &runAlloc{}
	a.r = Run{Now: time.Now(), PUL: &update.PUL{}, apply: &a.a, memo: &a.m, scores: p.scores}
	a.c = Context{Prog: p, Run: &a.r}
	return &a.c
}

// Derive starts an evaluation inside ctx's: a copy of ctx's frame in a
// run of its own, which begins as a copy of ctx's run with a memo of its
// own (documents and full-text state), and which edit then changes.
// A run that keeps a full-text state of its own records scores if the
// frame's program can read them (Program.scores); one that edit gives
// its caller's keeps its caller's rule. Every evaluation that is not
// the host's first starts here: a listener turn, a behind call, the
// modify clause of a copy-modify expression and a per-document
// expression.
func (ctx *Context) Derive(edit func(r *Run)) *Context {
	d := &runAlloc{c: *ctx, r: *ctx.Run}
	d.c.Run, d.r.memo = &d.r, &d.m
	edit(&d.r)
	if d.r.memo == &d.m && d.m.ft == nil {
		d.r.scores = ctx.Prog.scores
	}
	return &d.c
}

// ContextFor builds a root context for p inside ctx's run (an imported
// library's function, a per-document expression): the run and the call
// depth are ctx's, the frame is empty.
func (ctx *Context) ContextFor(p *Program) *Context {
	return &Context{Prog: p, Run: ctx.Run, depth: ctx.depth}
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
			continue // externally bound — keep it
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

// RunModule initialises globals and evaluates the module body. What the
// last statement left pending stays in ctx.PUL, for Finish to apply.
func (ctx *Context) RunModule() (xdm.Sequence, error) {
	if err := ctx.InitGlobals(); err != nil {
		return nil, err
	}
	return ctx.RunBody()
}

// RunBody evaluates the module body (nothing, for a library module) in
// a context whose globals are initialised: the second half of
// RunModule, for a host that does the first on its own.
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

// withBinding returns a copy of the context with a new variable frame.
func (ctx *Context) withBinding(name dom.QName, val xdm.Sequence) *Context {
	c := *ctx
	c.env = ctx.env.bind(name, val)
	return &c
}

// loopFrame binds a loop variable (and a for clause's positional
// variable) for the items of one loop entry: the first item gets a
// Context copy and a frame per variable, every later item overwrites
// the frames' values in place. That is sound because everything the
// body evaluates under one item is materialized before the next item
// is bound — a FLWOR with order by, whose tuples keep their contexts
// until the sort, binds with withBinding instead, and a behind call,
// which outlives its item, runs on a copy of the chain (detach). The
// values themselves are never overwritten: each item's is a cell of
// its own (loopDomain).
type loopFrame struct {
	c        *Context // the body's context; nil until the first item
	val, pos *env     // the frames of the variable and of its positional variable
}

// bind binds name to val for the loop's next item and returns the
// context the body runs in.
func (lf *loopFrame) bind(outer *Context, name dom.QName, val xdm.Sequence) *Context {
	return lf.bindAt(outer, name, val, dom.QName{}, nil)
}

// bindAt is bind that also binds posName, when it is not zero, to pos.
func (lf *loopFrame) bindAt(outer *Context, name dom.QName, val xdm.Sequence, posName dom.QName, pos xdm.Sequence) *Context {
	if lf.c == nil {
		c := *outer
		lf.val = outer.env.bind(name, val)
		c.env = lf.val
		if !posName.IsZero() {
			lf.pos = lf.val.bind(posName, pos)
			c.env = lf.pos
		}
		lf.c = &c
		return lf.c
	}
	lf.val.box.Val = val
	if lf.pos != nil {
		lf.pos.box.Val = pos
	}
	return lf.c
}

// maxCellChunk is the most cells loopDomain allocates at once.
const maxCellChunk = 64

// loopDomain hands a loop its domain one item at a time, each as a
// one-item sequence of its own, without allocating one per item. A
// domain that is a slice already (a variable's value, a materialized
// domain) lends its own slots: item k is s[k:k+1:k+1]. The items of a
// stream go into cells, taken from chunks that double from one cell up
// to maxCellChunk, so a one-item loop allocates what xdm.Singleton
// would and a long loop one chunk per 64 items. No slot is handed out
// twice or written after it is handed out: an order by tuple, a behind
// call's copy of the chain or an assigned variable that keeps an item's
// binding keeps that item, and the capacity of one makes an append onto
// it copy. That rests on DESIGN.md §5b's rule that nobody writes into a
// sequence it was returned (the seqwrite pass of tools/analyzers).
type loopDomain struct {
	it    xdm.Iter
	s     xdm.Sequence // the domain's own slice, when it has one
	k     int          // the slots of s handed out
	cells xdm.Sequence // the current chunk's cells not yet handed out
	chunk int          // the current chunk's size
}

// newLoopDomain starts a loop over it.
func newLoopDomain(it xdm.Iter) loopDomain {
	if s, ok := xdm.Unpulled(it); ok {
		return loopDomain{s: s}
	}
	return loopDomain{it: it}
}

// nextCell returns the next item as a one-item sequence; nil when the
// domain is done.
func (d *loopDomain) nextCell() (xdm.Sequence, error) {
	if d.it == nil {
		if d.k == len(d.s) {
			return nil, nil
		}
		d.k++
		return d.s[d.k-1 : d.k : d.k], nil
	}
	item, ok, err := d.it.Next()
	if err != nil || !ok {
		return nil, err
	}
	return d.holdCell(item), nil
}

// holdCell returns a fresh cell holding it.
func (d *loopDomain) holdCell(it xdm.Item) xdm.Sequence {
	if len(d.cells) == 0 {
		d.chunk = min(max(2*d.chunk, 1), maxCellChunk)
		d.cells = make(xdm.Sequence, d.chunk)
	}
	one := d.cells[:1:1]
	one[0] = it
	d.cells = d.cells[1:]
	return one
}

// detach returns a copy of the context for an evaluation on another
// goroutine that may outlive the current one's frames: the variable
// chain, locals and globals, is copied as it is now (the globals are
// the chain's oldest frames: every binding goes on top of them), and
// the run is derived with a forked budget. Later assignments and loop
// rebinding are not seen by, and do not race with, the copy. It has no
// pending update list, so an updating expression in it fails: the
// caller's list goes on filling and applying on the caller's goroutine.
// Its memo is its own; its full-text scores, under a lock, the caller's.
func (ctx *Context) detach() *Context {
	c := ctx.Derive(func(r *Run) {
		r.Budget, r.PUL = ctx.Budget.Fork(), nil
		r.memo.ft = ctx.memo.fullText()
	})
	c.env, c.globals = copyChain(ctx.env, ctx.globals)
	return c
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
