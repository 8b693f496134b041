package runtime

import (
	"repro/internal/dom"
	"repro/internal/xdm"
)

// Stable documents. XQuery F&O defines fn:doc and fn:collection as
// stable within one execution: doc("u") is doc("u"), and two calls of
// collection("c") answer the same nodes. A resolver need not be stable —
// one that parses per call hands out new trees every time — so the run
// keeps a memo and resolves each URI once: the first fn:doc(u) asks
// Context.Docs and every later one, fn:doc-available(u) included,
// answers from the memo (an error too, so the two always agree); the
// first fn:collection(u) streams Context.Collections through a replay
// buffer, and a later call replays what was pulled and then streams the
// rest, so collection(u)[1] still costs one step of the source.
//
// The memo lives as long as one evaluation, which is one run: every
// frame of the run shares it (ContextFor too), a run Derive makes has
// one of its own (a listener turn, a behind call on a goroutine of its
// own, a per-document expression; the modify clause of a copy-modify
// takes its caller's), and Finish drops it at the end, since a host may
// reuse a context for the next evaluation. Until then the memo keeps
// every document it answered alive: a collection scanned once holds all
// its documents to the end of the evaluation, not only while the scan
// runs. A scripting statement's apply keeps it: the updates applied to
// the trees the memo holds, so the next statement's fn:doc(u) answers
// the tree as the apply left it — which a resolver that parses per call
// would not. What this buys is that the optimizer may move, memoise and
// join-build doc and collection calls (ast.EffResolves, DESIGN.md §5y).
//
// The memo is the only caller of Context.Docs and
// Context.Collections.Documents (the frames pass of tools/analyzers
// holds the rest of the runtime and funclib to that).

// runMemo is a run's memo of the URIs it resolved, its full-text state
// (ftmatch.go), made on the first score, and the globals of the library
// modules it called into (LibraryContext).
type runMemo struct {
	docs  map[string]resolvedDoc
	colls map[string]*replay
	ft    *ftState
	libs  map[*Program]*env
}

// resolvedDoc is what fn:doc(uri) answered.
type resolvedDoc struct {
	node *dom.Node
	err  error
}

// drop forgets everything resolved and scored so far.
func (m *runMemo) drop() {
	if m != nil {
		*m = runMemo{}
	}
}

// fullText returns the run's full-text state, made on the first call;
// nil for a run without a memo.
func (m *runMemo) fullText() *ftState {
	if m == nil {
		return nil
	}
	if m.ft == nil {
		m.ft = &ftState{}
	}
	return m.ft
}

// Doc resolves fn:doc(uri) through ctx.Docs, which must be set, once
// per run.
func (ctx *Context) Doc(uri string) (*dom.Node, error) {
	m := ctx.memo
	if m == nil {
		return ctx.Docs(uri)
	}
	if r, ok := m.docs[uri]; ok {
		return r.node, r.err
	}
	n, err := ctx.Docs(uri)
	if m.docs == nil {
		m.docs = make(map[string]resolvedDoc)
	}
	m.docs[uri] = resolvedDoc{n, err}
	return n, err
}

// Collection resolves fn:collection(uri) through ctx.Collections, which
// must be set, once per run: the first call streams the source through
// the replay buffer, a later call replays it and streams on from where
// the buffer ends. A source that fails to resolve fails every call.
func (ctx *Context) Collection(uri string) (xdm.Iter, error) {
	m := ctx.memo
	if m == nil {
		return ctx.Collections.Documents(uri)
	}
	r := m.colls[uri]
	if r == nil {
		r = &replay{}
		r.src, r.err = ctx.Collections.Documents(uri)
		r.unresolved = r.err != nil
		if s, whole := xdm.Unpulled(r.src); whole {
			r.items, r.src = s, nil // a materialized source is its own buffer
		}
		if m.colls == nil {
			m.colls = make(map[string]*replay)
		}
		m.colls[uri] = r
		if r.src != nil {
			r.first.r = r
			return &r.first, nil
		}
	}
	switch {
	case r.unresolved:
		return nil, r.err
	case r.src == nil && r.err == nil:
		return xdm.FromSlice(r.items), nil // drained: the buffer is the collection
	}
	return &cursor{r: r}, nil
}

// replay is one collection's buffer: the items pulled from src so far
// and, once src is done, how it ended.
type replay struct {
	src   xdm.Iter // nil once it has ended
	items xdm.Sequence
	err   error  // src's error, after items, or the source's refusal to resolve
	first cursor // the first call's reader, allocated with the buffer
	// unresolved: err is what Documents answered, so there is no src
	unresolved bool
}

// cursor reads a replay: the buffer, then whatever src has left.
type cursor struct {
	r *replay
	i int
}

func (c *cursor) Next() (xdm.Item, bool, error) {
	r := c.r
	if c.i < len(r.items) {
		c.i++
		return r.items[c.i-1], true, nil
	}
	if r.src == nil {
		return nil, false, r.err
	}
	it, ok, err := r.src.Next()
	switch {
	case err != nil:
		r.src, r.err = nil, err
		return nil, false, err
	case !ok:
		r.src = nil
		return nil, false, nil
	}
	if r.items == nil {
		r.items = make(xdm.Sequence, 0, 16)
	}
	r.items = append(r.items, it)
	c.i++
	return it, true, nil
}

// LibraryContext returns a root context for the library program p
// inside ctx's run (an imported function's proxy calls through it) with
// p's globals initialised once per run: the first call evaluates the
// library's global initialisers, charged to the run's budget, and every
// later call of the run shares those variables; a new run initialises
// them again. A run without a memo initialises them per call.
func (ctx *Context) LibraryContext(p *Program) (*Context, error) {
	m := ctx.memo
	if m != nil {
		if g, ok := m.libs[p]; ok {
			return &Context{Prog: p, Run: ctx.Run, env: g, globals: g, depth: ctx.depth}, nil
		}
	}
	lctx := ctx.ContextFor(p)
	if err := lctx.InitGlobals(); err != nil {
		return nil, err
	}
	if m != nil {
		if m.libs == nil {
			m.libs = make(map[*Program]*env)
		}
		m.libs[p] = lctx.globals
	}
	return lctx, nil
}
