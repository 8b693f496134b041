// Package xqib is the public API of this reproduction of "XQuery in the
// Browser" (WWW 2009): an XQuery 1.0 engine with the Update Facility,
// Scripting Extension, full-text search and the paper's browser
// extensions, plus a headless browser plug-in host (XQIB), a
// JavaScript-style baseline, REST/web-service substrates and a
// concurrent serving layer.
//
// Quick start — run the paper's Hello World page:
//
//	h, err := xqib.LoadPage(`<html><head><script type="text/xquery">
//	    browser:alert("Hello, World!")
//	</script></head><body/></html>`, "http://example.com/")
//	fmt.Println(h.Alerts()) // [Hello, World!]
//
// Or evaluate XQuery directly:
//
//	e := xqib.NewEngine()
//	seq, err := e.EvalQuery(`for $i in 1 to 3 return $i * $i`, nil)
//
// For serving many sessions and queries concurrently, use a Pool: it
// shares one engine and one compiled-program cache across sessions,
// bounds concurrent pages, and exposes an observability snapshot:
//
//	pool := xqib.NewPool(xqib.PoolConfig{MaxSessions: 128})
//	s, err := pool.Load(ctx, pageSrc, href)
//	err = s.Click(ctx, "buy")
//	m := pool.Metrics() // compiles, cache hits, latency buckets, ...
//
// The deeper layers are exposed as aliases so applications can use the
// engine (xqib.Engine), the DOM (xqib.Node), the browser object model
// (xqib.Browser), the web-service substrate (rest subpackage types),
// the plug-in host (xqib.Host) and the serving layer (xqib.Pool)
// without importing internal paths.
package xqib

import (
	"context"
	"time"

	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/fed"
	"repro/internal/jsruntime"
	"repro/internal/markup"
	"repro/internal/rest"
	"repro/internal/serve"
	"repro/internal/xdm"
	"repro/internal/xmldb"
	"repro/internal/xqerr"
	"repro/internal/xquery"
)

// Engine compiles and runs XQuery programs (the role Zorba plays in the
// paper's plug-in). An Engine's configuration is immutable after
// construction and it is safe for concurrent Compile/EvalQuery from any
// number of goroutines.
type Engine = xquery.Engine

// Program is a compiled XQuery program; immutable, so one compiled
// program may Run concurrently (each run has its own dynamic state).
type Program = xquery.Program

// RunConfig parameterises one evaluation. RunConfig.Context gives a
// run cooperative cancellation alongside the MaxSteps/Timeout budget.
type RunConfig = xquery.RunConfig

// ModuleResolver materialises module imports (local libraries or
// remote web services).
type ModuleResolver = xquery.ModuleResolver

// --- unified options -----------------------------------------------------------

// Option configures the facade constructors. One option vocabulary
// serves both NewEngine and LoadPage: each option carries an engine
// part, a host part, or both, and each constructor applies the parts
// that concern it (the rest are inert).
type Option struct {
	engine []xquery.Option
	host   []core.Option
}

func engineOpts(opts []Option) []xquery.Option {
	var out []xquery.Option
	for _, o := range opts {
		out = append(out, o.engine...)
	}
	return out
}

func hostOpts(opts []Option) []core.Option {
	var out []core.Option
	for _, o := range opts {
		out = append(out, o.host...)
	}
	return out
}

// WithModuleResolver installs the module-import resolver: on an
// engine it resolves that engine's imports; on a loaded page it
// resolves imports of every page script (the REST substrate registers
// web-service proxies through it, §3.4).
func WithModuleResolver(r ModuleResolver) Option {
	return Option{
		engine: []xquery.Option{xquery.WithModuleResolver(r)},
		host:   []core.Option{core.WithModuleResolver(r)},
	}
}

// WithResolverRetry retries failed module-resolver loads up to retries
// additional times per import, waiting backoff before the first retry
// and doubling it each further attempt — bounded degradation for
// transient resolver failures (the REST substrate fetches service
// descriptions over process boundaries).
func WithResolverRetry(retries int, backoff time.Duration) Option {
	return Option{engine: []xquery.Option{xquery.WithResolverRetry(retries, backoff)}}
}

// WithBrowserProfile blocks fn:doc/fn:put, per the paper's §4.2.1
// security rule for in-browser execution (LoadPage engines always run
// with this profile).
func WithBrowserProfile() Option {
	return Option{engine: []xquery.Option{xquery.WithBrowserProfile()}}
}

// WithFunctions registers extra built-in functions on the engine, or
// on every script engine of a loaded page (e.g. rest:get).
func WithFunctions(register func(*Registry)) Option {
	return Option{
		engine: []xquery.Option{xquery.WithFunctions(register)},
		host:   []core.Option{core.WithExtraFunctions(register)},
	}
}

// WithQueryBudget bounds every query evaluation on a loaded page:
// maxSteps evaluation steps and timeout wall-clock time per script or
// listener invocation (<= 0: unlimited). Exceeding either fails the
// query with an error matching ErrBudgetExceeded. (For direct engine
// use, set RunConfig.MaxSteps/Timeout per run instead.)
func WithQueryBudget(maxSteps int64, timeout time.Duration) Option {
	return Option{host: []core.Option{core.WithQueryBudget(maxSteps, timeout)}}
}

// WithProgramCache compiles a page's scripts through a shared program
// cache so sessions loading the same page skip parse and compile (a
// Pool installs its cache automatically).
func WithProgramCache(c *Cache) Option {
	return Option{host: []core.Option{core.WithProgramCache(c)}}
}

// WithJSSetup registers a JavaScript-style setup function that runs
// against the page DOM before the XQuery scripts (§4.1).
func WithJSSetup(setup func(page *Node)) Option {
	return Option{host: []core.Option{core.WithJSSetup(setup)}}
}

// WithPageLoader sets the navigation loader (location changes and
// history moves fetch pages through it).
func WithPageLoader(l browser.PageLoader) Option {
	return Option{host: []core.Option{core.WithPageLoader(l)}}
}

// WithPolicy overrides the same-origin security policy.
func WithPolicy(p browser.SecurityPolicy) Option {
	return Option{host: []core.Option{core.WithPolicy(p)}}
}

// WithNavigator overrides the navigator identity (§4.2.4).
func WithNavigator(n NavigatorInfo) Option {
	return Option{host: []core.Option{core.WithNavigator(n)}}
}

// WithBrowserSetup runs a configuration callback against the browser
// state before any script executes.
func WithBrowserSetup(setup func(*Browser)) Option {
	return Option{host: []core.Option{core.WithBrowserSetup(setup)}}
}

// --- constructors ---------------------------------------------------------------

// NewEngine builds an engine with the full fn: library. Host-only
// options are inert here.
func NewEngine(opts ...Option) *Engine {
	return xquery.New(engineOpts(opts)...)
}

// LoadPage boots the plug-in pipeline of Figure 1 on a page.
// Engine-flavoured options (resolver, functions) apply to every script
// engine the page creates.
func LoadPage(pageSrc, href string, opts ...Option) (*Host, error) {
	return core.LoadPage(pageSrc, href, hostOpts(opts)...)
}

// LoadPageContext is LoadPage with cooperative cancellation: ctx
// covers the page-load scripts and every later listener invocation on
// the host.
func LoadPageContext(ctx context.Context, pageSrc, href string, opts ...Option) (*Host, error) {
	return core.LoadPageContext(ctx, pageSrc, href, hostOpts(opts)...)
}

// Registry is the engine's function registry (host extensions register
// into it).
type Registry = xquery.Registry

// --- static analysis ------------------------------------------------------------

// Diagnostic is one static-analyzer finding (code, severity, position,
// message); Severity is its error/warning classification. Programs run
// with RunConfig.Strict surface warnings through Result.Diagnostics,
// and error-level findings reject the program with an *AnalysisError.
type (
	Diagnostic = xquery.Diagnostic
	Severity   = xquery.Severity
)

// AnalysisError is the error returned when Strict analysis rejects a
// program; it carries the full diagnostic list and matches
// ErrAnalysisFailed under errors.Is.
type AnalysisError = xquery.AnalysisError

// The analyzer severities and the update-independence diagnostic codes,
// re-exported so callers can filter Result.Diagnostics (for example,
// surface only XQ0401 dead-update warnings) without importing internal
// packages.
const (
	SevWarning = xquery.SevWarning
	SevError   = xquery.SevError
	SevNote    = xquery.SevNote

	CodeDeadUpdate     = xquery.CodeDeadUpdate
	CodeDeadDelete     = xquery.CodeDeadDelete
	CodeUpdateConflict = xquery.CodeUpdateConflict
)

// Module resolution: local in-memory library modules and resolver
// composition (mix local libraries with remote web services).
var (
	NewLocalResolver = xquery.NewLocalResolver
	CombineResolvers = xquery.CombineResolvers
)

// --- sentinel errors ------------------------------------------------------------

// Sentinel errors, re-exported so applications can errors.Is against
// the facade without importing internal paths.
var (
	// ErrBudgetExceeded matches a run that exhausted its MaxSteps or
	// Timeout budget. (Runs cancelled through a context instead match
	// context.Canceled / context.DeadlineExceeded.)
	ErrBudgetExceeded = xquery.ErrBudgetExceeded
	// ErrNoResolver matches a module import attempted with no resolver
	// installed.
	ErrNoResolver = xquery.ErrNoResolver
	// ErrUnknownFunction matches a call to an undeclared function.
	ErrUnknownFunction = xquery.ErrUnknownFunction
	// ErrAnalysisFailed matches a program rejected by the static
	// analyzer under Strict mode (the concrete error is an
	// *AnalysisError carrying the diagnostics).
	ErrAnalysisFailed = xquery.ErrAnalysisFailed
	// ErrReadOnlyWindowProperty matches an update targeting a window
	// property scripts may not write (§4.2.1 policy).
	ErrReadOnlyWindowProperty = browser.ErrReadOnlyWindowProperty
	// ErrWindowUpdateUnsupported matches a window-state update other
	// than "replace value of node".
	ErrWindowUpdateUnsupported = browser.ErrWindowUpdateUnsupported
	// ErrPoolClosed matches operations on a Pool after Shutdown.
	ErrPoolClosed = serve.ErrPoolClosed
	// ErrSessionClosed matches events sent to a closed Session.
	ErrSessionClosed = serve.ErrSessionClosed
	// ErrOverloaded matches event-loop turns shed because a session's
	// queue was at Config.MaxQueue.
	ErrOverloaded = serve.ErrOverloaded
	// ErrInternal matches a panic recovered into an error at any
	// evaluation boundary (engine run, session dispatch, Pool.Eval,
	// rest call, page load). The concrete error is an *xqerr.Internal
	// carrying a stack fingerprint.
	ErrInternal = xqerr.ErrInternal
	// ErrQuarantined matches evaluations refused because the program
	// panicked QuarantineThreshold times in a row through one cache.
	ErrQuarantined = xquery.ErrQuarantined
	// ErrNoCollection matches store reads or writes addressing a
	// hierarchical collection that does not exist.
	ErrNoCollection = xmldb.ErrNoCollection
	// ErrDocNotFound matches store reads of an absent document URI.
	ErrDocNotFound = xmldb.ErrDocNotFound
	// ErrStoreClosed matches operations on a closed (or poisoned)
	// store.
	ErrStoreClosed = xmldb.ErrStoreClosed
	// ErrConflict matches an updating query that lost a first-
	// committer-wins race on its target document.
	ErrConflict = xmldb.ErrConflict
)

// --- serving layer --------------------------------------------------------------

// Cache is a shared compiled-program cache with LRU eviction and
// singleflight deduplication; CacheStats is its counter snapshot.
type (
	Cache      = xquery.Cache
	CacheStats = xquery.CacheStats
)

// NewCache creates a program cache holding up to capacity compiled
// programs (<= 0: a default capacity).
var NewCache = xquery.NewCache

// Pool is the concurrent serving layer: a bounded session pool over a
// shared engine and program cache. Session is one live page within it;
// PoolConfig parameterises the pool; Metrics is the observability
// snapshot Pool.Metrics returns.
type (
	Pool        = serve.Pool
	Session     = serve.Session
	PoolConfig  = serve.Config
	Metrics     = serve.Metrics
	LatencyHist = serve.LatencyHist
)

// NewPool builds a serving pool.
var NewPool = serve.NewPool

// Node is a DOM node; Event is a DOM Level 3 event.
type (
	Node  = dom.Node
	Event = dom.Event
	QName = dom.QName
)

// Sequence and Item are the XDM value types.
type (
	Sequence = xdm.Sequence
	Item     = xdm.Item
)

// NewNode wraps a DOM node as an XDM item.
var NewNode = xdm.NewNode

// Markup parsing and serialization.
var (
	ParseXML      = markup.Parse
	ParseHTML     = markup.ParseHTML
	Serialize     = markup.Serialize
	SerializeHTML = markup.SerializeHTML
)

// Host is the XQIB plug-in host: a loaded page with executing XQuery
// (and optionally JavaScript-style) scripts — the paper's contribution.
type Host = core.Host

// Browser is the headless browser object model (windows, locations,
// history, security policy).
type (
	Browser       = browser.Browser
	Window        = browser.Window
	Location      = browser.Location
	NavigatorInfo = browser.NavigatorInfo
)

// ParseLocation splits a URL into the JavaScript-style location fields.
var ParseLocation = browser.ParseLocation

// Security policies for cross-window access (paper §4.2.1).
type (
	SameOriginPolicy = browser.SameOriginPolicy
	AllowAllPolicy   = browser.AllowAllPolicy
)

// JSDocument is the JavaScript-style DOM scripting baseline.
type JSDocument = jsruntime.Document

// NewJSDocument wraps a page for imperative scripting.
var NewJSDocument = jsruntime.NewDocument

// RESTClient issues REST calls with optional whole-document caching;
// ModuleServer serves an XQuery module as a web service (paper §3.4).
type (
	RESTClient   = rest.Client
	ModuleServer = rest.ModuleServer
)

// NewRESTClient and NewModuleServer construct the REST substrate;
// NewModuleServerCached compiles the service module through a shared
// program cache on a shared engine (the serving-layer path).
var (
	NewRESTClient         = rest.NewClient
	NewModuleServer       = rest.NewModuleServer
	NewModuleServerCached = rest.NewModuleServerCached
)

// --- document store -------------------------------------------------------------

// Store is the persistent sharded collection store (the paper's XMLDB
// grown into a durable database): hierarchical collections, MVCC
// reads, snapshot + redo-log durability, and parallel sharded
// collection scans. StoreOption configures OpenStore; StoreStats is
// the store's counter snapshot.
type (
	Store       = xmldb.Store
	StoreOption = xmldb.Option
	StoreStats  = xmldb.StatsSnapshot
)

// OpenStore opens (or creates) a document store rooted at dir,
// recovering state from the snapshot and redo log if present. An empty
// dir opens an ephemeral in-memory store with no durability.
var OpenStore = xmldb.Open

// Store options: shard count for parallel collection scans, fsync
// policy for the redo log, and automatic checkpoint cadence.
var (
	WithShards          = xmldb.WithShards
	WithSyncWrites      = xmldb.WithSyncWrites
	WithCheckpointEvery = xmldb.WithCheckpointEvery
)

// WithStore binds a document store to the facade constructors: on an
// engine (or every script engine of a loaded page) it routes fn:doc
// and fn:collection through the store — replacing the browser
// profile's blocked-network fetch with trusted storage reads — and on
// a serving pool bind the store through PoolConfig.Store instead.
func WithStore(st *Store) Option {
	return Option{
		engine: []xquery.Option{
			xquery.WithDocResolver(st.Resolver()),
			xquery.WithCollections(st.CollectionSource()),
		},
		host: []core.Option{
			core.WithStoreResolvers(st.Resolver(), st.CollectionSource()),
		},
	}
}

// --- federation -----------------------------------------------------------------

// Federation is the scatter-gather mediation executor: each backend in
// FederationConfig.Shards is a rest module server owning one shard of
// the document space, and fn:collection fans out to all of them
// concurrently, merging the shard streams in URI order. It degrades
// rather than amplifies failures: per-backend circuit breakers, hedged
// requests against replicas, bounded retries for idempotent reads, and
// (optionally) partial results with a fed:incomplete diagnostic.
type (
	Federation       = fed.Executor
	FederationConfig = fed.Config
)

// NewFederation validates a FederationConfig and builds the executor;
// ErrBackendDown is the typed error federated calls return when a
// shard has no reachable backend.
var (
	NewFederation  = fed.New
	ErrBackendDown = fed.ErrBackendDown
)

// FedShardModule is a ready-made shard-side service module: serve it
// with NewModuleServer on each backend (with ModuleServer.Collections
// bound to the shard's documents) and the federation's collection
// calls work out of the box.
const FedShardModule = fed.ShardModule

// WithFederation binds a federation to the facade constructors: on an
// engine (or every script engine of a loaded page) it routes
// fn:collection through the scatter-gather executor — a FLWOR or
// fn:count over a collection that maps its documents to atomic values
// is evaluated by the shards, so the values travel instead of the
// documents — and resolves "fed:endpoints" module imports to federated
// remote proxies. The
// resolvers are bound to the background context — per-attempt
// timeouts, retry budgets and breakers still bound each call; for
// caller-scoped cancellation use the serving layer (PoolConfig.Fed),
// which threads each request's context through.
func WithFederation(x *Federation) Option {
	bg := context.Background()
	return Option{
		engine: []xquery.Option{
			xquery.WithCollections(x.CollectionSource(bg)),
			xquery.WithModuleResolver(x.Resolver(bg)),
		},
		host: []core.Option{
			core.WithStoreResolvers(nil, x.CollectionSource(bg)),
			core.WithModuleResolver(x.Resolver(bg)),
		},
	}
}

// FormatSequence renders a sequence for display: nodes as XML, atomics
// by their lexical form, separated by spaces.
func FormatSequence(s Sequence) string {
	return xquery.FormatSequence(s, markup.AppendXML)
}
