// Package serve is the concurrent serving layer: it turns the
// single-page plug-in host (internal/core) and the shared engine
// (internal/xquery) into a subsystem that serves many pages, sessions
// and queries at once — the production-scale posture the ROADMAP's
// north star asks for.
//
// The architecture is compile-once/run-many (after Tout-XML-style
// mediation): one program cache is shared by every request, and what
// it holds is independent of any host, so a repeated query and a
// revisited page both skip parse/compile — Eval runs everything on the
// pool's one engine, and every session builds a thin engine of its own
// (its browser: functions close over its page) that binds to the
// programs the application's other sessions already compiled. Every
// session keeps its own DOM, browser state and update application, so
// evaluation is shared while side effects stay transactional per
// session (FLUX-style separation). A bounded session pool gives
// backpressure, per-session event dispatch keeps each page's event
// loop single-threaded, and everything honors context cancellation end
// to end.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/dom/index"
	"repro/internal/faultpoint"
	"repro/internal/fed"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/xdm"
	"repro/internal/xmldb"
	"repro/internal/xqerr"
	"repro/internal/xquery"
	"repro/internal/xquery/runtime"
	"repro/internal/xquery/update"
)

// Sentinel errors; applications match them with errors.Is (the facade
// re-exports them).
var (
	// ErrPoolClosed reports an operation on a pool after Shutdown.
	ErrPoolClosed = errors.New("serve: pool is shut down")
	// ErrSessionClosed reports an event sent to a closed session.
	ErrSessionClosed = errors.New("serve: session is closed")
	// ErrOverloaded reports an event-loop turn shed because the
	// session's queue was already at Config.MaxQueue — the load-shedding
	// alternative to unbounded blocking: the caller hears "back off"
	// immediately instead of piling onto a stuck session.
	ErrOverloaded = errors.New("serve: session overloaded")
)

// Config parameterises a Pool. The zero value is usable: 64 sessions,
// a default-capacity cache, unlimited per-query budgets and a fresh
// shared engine.
type Config struct {
	// MaxSessions bounds concurrently loaded sessions; Load blocks (or
	// fails on context cancellation) when the pool is full. <= 0 uses
	// 64.
	MaxSessions int
	// CacheCapacity sizes the shared compiled-program cache; <= 0 uses
	// xquery.DefaultCacheCapacity.
	CacheCapacity int
	// MaxSteps / Timeout are the per-query budget applied to every
	// session script, listener invocation and Eval call (<= 0:
	// unlimited), on top of cooperative context cancellation.
	MaxSteps int64
	Timeout  time.Duration
	// Engine, when non-nil, is the shared query engine for Eval;
	// nil builds one with the full fn: library.
	Engine *xquery.Engine
	// Strict gates Pool.Eval behind the static analyzer: programs with
	// error-severity diagnostics are rejected with an error matching
	// xquery.ErrAnalysisFailed, never enter the shared program cache,
	// and are counted in Metrics.QueriesRejected.
	Strict bool
	// MaxQueue bounds each session's event-loop queue: a Do (or
	// Click/Keyup/Dispatch) arriving while MaxQueue turns are already
	// running or waiting on that session is shed immediately with
	// ErrOverloaded and counted in Metrics.Failures.Shed. <= 0 keeps
	// the pre-shedding behaviour: callers block until the loop frees.
	MaxQueue int
	// HostOptions are applied to every session's LoadPage (policies,
	// loaders, extra functions ...).
	HostOptions []core.Option
	// Store, when non-nil, is the pool's document store: fn:doc and
	// fn:collection route to it in every session script and Eval call,
	// and its counters join the Metrics snapshot. Binding a store lifts
	// the §4.2.1 browser profile from session engines (trusted storage
	// instead of blocked network fetch); fn:put stays blocked.
	Store *xmldb.Store
	// Fed, when non-nil, is the pool's federated document source:
	// fn:collection scatter-gathers over its backends in every session
	// script and Eval call (a per-document FLWOR or count over a
	// collection is shipped to them: fed.Executor.Ship), and its
	// counters join Metrics.Failures. A
	// local Store wins over Fed for the resolvers both provide (fn:doc
	// is always store-or-default: the federation serves collections,
	// not single-document fetches).
	Fed *fed.Executor
}

// Pool is the serving subsystem: a bounded set of live page sessions
// plus a shared engine and program cache for direct query evaluation.
// All methods are safe for concurrent use.
type Pool struct {
	cfg     Config
	engine  *xquery.Engine
	cache   *xquery.Cache
	slots   chan struct{}
	closing chan struct{}

	mu       sync.Mutex
	closed   bool
	sessions map[*Session]struct{}

	active        atomic.Int64
	peak          atomic.Int64
	loaded        atomic.Int64
	rejected      atomic.Int64
	events        atomic.Int64
	evalsRejected atomic.Int64
	shed          atomic.Int64

	loads      hist
	queries    hist
	dispatches hist
}

// NewPool builds a serving pool from cfg.
func NewPool(cfg Config) *Pool {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	e := cfg.Engine
	if e == nil {
		e = xquery.New()
	}
	return &Pool{
		cfg:      cfg,
		engine:   e,
		cache:    xquery.NewCache(cfg.CacheCapacity),
		slots:    make(chan struct{}, cfg.MaxSessions),
		closing:  make(chan struct{}),
		sessions: map[*Session]struct{}{},
	}
}

// Engine returns the pool's shared query engine.
func (p *Pool) Engine() *xquery.Engine { return p.engine }

// Cache returns the pool's shared program cache (the REST substrate
// compiles its service modules through it).
func (p *Pool) Cache() *xquery.Cache { return p.cache }

// Session is one live page within the pool: a host plus the session's
// serialised event loop. A session's queries run under the context
// given to Load, so cancelling it aborts them cooperatively.
type Session struct {
	p      *Pool
	h      *core.Host
	cancel context.CancelFunc
	sem    chan struct{} // the session's single-threaded event loop
	closed atomic.Bool
	// pending counts turns running or waiting on this session's loop;
	// Config.MaxQueue sheds arrivals beyond it.
	pending atomic.Int64
}

// Load boots a page session, blocking while the pool is at
// MaxSessions. ctx bounds both the wait and the session's whole
// lifetime: every script and listener on the session aborts when it is
// cancelled. The per-call opts extend the pool's HostOptions.
func (p *Pool) Load(ctx context.Context, pageSrc, href string, opts ...core.Option) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-p.closing:
		p.rejected.Add(1)
		return nil, ErrPoolClosed
	default:
	}
	select {
	case p.slots <- struct{}{}:
	case <-p.closing:
		p.rejected.Add(1)
		return nil, ErrPoolClosed
	case <-ctx.Done():
		p.rejected.Add(1)
		return nil, ctx.Err()
	}

	sctx, cancel := context.WithCancel(ctx)
	hostOpts := []core.Option{
		core.WithProgramCache(p.cache),
		core.WithQueryBudget(p.cfg.MaxSteps, p.cfg.Timeout),
	}
	if st := p.cfg.Store; st != nil {
		hostOpts = append(hostOpts, core.WithStoreResolvers(st.Resolver(), st.CollectionSource()))
	} else if fx := p.cfg.Fed; fx != nil {
		// Collections resolve over the federation, bounded by the
		// session's lifetime context.
		hostOpts = append(hostOpts, core.WithStoreResolvers(nil, fx.CollectionSource(sctx)))
	}
	hostOpts = append(hostOpts, p.cfg.HostOptions...)
	hostOpts = append(hostOpts, opts...)

	t0 := time.Now()
	h, err := core.LoadPageContext(sctx, pageSrc, href, hostOpts...)
	if err != nil {
		cancel()
		<-p.slots
		p.rejected.Add(1)
		return nil, err
	}
	p.loads.observe(time.Since(t0))

	s := &Session{p: p, h: h, cancel: cancel, sem: make(chan struct{}, 1)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		cancel()
		<-p.slots
		p.rejected.Add(1)
		return nil, ErrPoolClosed
	}
	p.sessions[s] = struct{}{}
	p.mu.Unlock()

	n := p.active.Add(1)
	for {
		peak := p.peak.Load()
		if n <= peak || p.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	p.loaded.Add(1)
	return s, nil
}

// Host exposes the session's underlying plug-in host. Touch it only
// through Do (or before handing the session to other goroutines): the
// host itself assumes a single event-loop thread.
func (s *Session) Host() *core.Host { return s.h }

// Do runs fn on the session's event loop: turns are serialised per
// session (the browser's single-threaded dispatch, §6.2) while
// different sessions proceed in parallel. It blocks while another turn
// is in flight, honouring ctx — unless Config.MaxQueue is set, in
// which case arrivals beyond the queue bound are shed immediately with
// ErrOverloaded. Each turn runs behind a panic-isolation boundary: a
// panicking listener or script comes back as an error matching
// xqerr.ErrInternal and the session stays serviceable.
func (s *Session) Do(ctx context.Context, fn func(*core.Host) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.closed.Load() {
		return ErrSessionClosed
	}
	if mq := s.p.cfg.MaxQueue; mq > 0 {
		if s.pending.Add(1) > int64(mq) {
			s.pending.Add(-1)
			s.p.shed.Add(1)
			return ErrOverloaded
		}
		defer s.pending.Add(-1)
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-s.sem }()
	if s.closed.Load() {
		return ErrSessionClosed
	}
	t0 := time.Now()
	err := s.runTurn(fn)
	s.p.dispatches.observe(time.Since(t0))
	s.p.events.Add(1)
	return err
}

// runTurn executes one event-loop turn behind the serve.dispatch fault
// point and the session's panic-isolation boundary.
func (s *Session) runTurn(fn func(*core.Host) error) (err error) {
	defer xqerr.RecoverInto(&err, "serve.Session.Do")
	if err := faultpoint.Hit(faultpoint.PointServeDispatch); err != nil {
		return err
	}
	return fn(s.h)
}

// Click dispatches a click at the element with the given id on the
// session's event loop.
func (s *Session) Click(ctx context.Context, id string) error {
	return s.Do(ctx, func(h *core.Host) error { return h.Click(id) })
}

// Keyup dispatches a keyup carrying key at the element with the given
// id on the session's event loop.
func (s *Session) Keyup(ctx context.Context, id, key string) error {
	return s.Do(ctx, func(h *core.Host) error { return h.Keyup(id, key) })
}

// Dispatch sends an arbitrary event at a target node on the session's
// event loop.
func (s *Session) Dispatch(ctx context.Context, ev *dom.Event, target *dom.Node) error {
	return s.Do(ctx, func(h *core.Host) error {
		h.Dispatch(ev, target)
		return nil
	})
}

// Close ends the session: in-flight queries are cancelled, the event
// loop drains, and the pool slot frees. Close is idempotent and safe
// to call concurrently with Do.
func (s *Session) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.cancel()
	// Wait out an in-flight event turn (cancellation above unsticks
	// budgeted queries), then hold the loop so no new turn starts.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	p := s.p
	p.mu.Lock()
	delete(p.sessions, s)
	p.mu.Unlock()
	p.active.Add(-1)
	<-p.slots
}

// Eval evaluates a query on the pool's shared engine through the
// program cache, under the pool's per-query budget and ctx. This is
// the high-volume serving path: repeated sources skip parse/compile.
// Eval is a panic-isolation boundary (panics come back as errors
// matching xqerr.ErrInternal) and sits behind the cache's quarantine
// gate: programs that keep panicking are refused with an error
// matching xquery.ErrQuarantined.
func (p *Pool) Eval(ctx context.Context, src string, contextDoc *dom.Node) (seq xdm.Sequence, err error) {
	defer xqerr.RecoverInto(&err, "serve.Pool.Eval")
	select {
	case <-p.closing:
		return nil, ErrPoolClosed
	default:
	}
	cfg := xquery.RunConfig{
		Context:  ctx,
		MaxSteps: p.cfg.MaxSteps,
		Timeout:  p.cfg.Timeout,
		Strict:   p.cfg.Strict,
	}
	if st := p.cfg.Store; st != nil {
		cfg.Docs = st.Resolver()
		cfg.Collections = st.CollectionSource()
	} else if fx := p.cfg.Fed; fx != nil {
		cfg.Collections = fx.CollectionSource(ctx)
	}
	if contextDoc != nil {
		cfg.ContextItem = xdm.NewNode(contextDoc)
	}
	t0 := time.Now()
	res, err := p.cache.EvalQuery(p.engine, src, cfg)
	p.queries.observe(time.Since(t0))
	if err != nil {
		if errors.Is(err, xquery.ErrAnalysisFailed) {
			p.evalsRejected.Add(1)
		}
		return nil, err
	}
	return res.Value, nil
}

// Shutdown gracefully stops the pool: new loads and evals fail with
// ErrPoolClosed, every live session is cancelled and closed, and the
// call returns when all sessions have drained (or ctx is cancelled, in
// which case the remaining drains continue in the background).
func (p *Pool) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	p.closed = true
	close(p.closing)
	sessions := make([]*Session, 0, len(p.sessions))
	for s := range p.sessions {
		sessions = append(sessions, s)
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		for _, s := range sessions {
			s.Close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Metrics returns the pool's observability snapshot.
func (p *Pool) Metrics() Metrics {
	cache := p.cache.Stats()
	var store *xmldb.StatsSnapshot
	if p.cfg.Store != nil {
		st := p.cfg.Store.Stats.Snapshot()
		store = &st
	}
	return Metrics{
		Store:            store,
		SessionsActive:   p.active.Load(),
		SessionsPeak:     p.peak.Load(),
		SessionsLoaded:   p.loaded.Load(),
		SessionsRejected: p.rejected.Load(),
		Events:           p.events.Load(),
		QueriesRejected:  p.evalsRejected.Load(),
		Loads:            p.loads.snapshot(),
		Queries:          p.queries.snapshot(),
		Dispatches:       p.dispatches.snapshot(),
		Cache:            cache,
		Index:            indexStats(),
		FullText:         fullTextStats(),
		Failures:         failureStats(p, cache),
	}
}

// failureStats assembles the resilience snapshot, folding in the
// process-wide federation counters.
func failureStats(p *Pool, cache xquery.CacheStats) FailureStats {
	fs := fed.Snapshot()
	return FailureStats{
		PanicsRecovered: xqerr.Recovered(),
		Rollbacks:       update.Rollbacks(),
		ResolverRetries: runtime.ResolverRetries(),
		Shed:            p.shed.Load(),
		Quarantined:     cache.Quarantined,
		FedRetries:      fs.Retries,
		FedHedges:       fs.Hedges,
		FedBreakerOpens: fs.BreakerOpens,
		FedBreakerSkips: fs.BreakerSkips,
		FedPartials:     fs.Partials,
		FedShipped:      fs.Shipped,
	}
}

// indexStats snapshots the process-wide document-index counters.
func indexStats() IndexStats {
	s := index.Snapshot()
	return IndexStats{Builds: s.Builds, Hits: s.Hits}
}

// fullTextStats snapshots the process-wide full-text-index counters.
func fullTextStats() FullTextStats {
	s := ftindex.Snapshot()
	return FullTextStats{Builds: s.Builds, Hits: s.Hits, Loads: s.Loads}
}
