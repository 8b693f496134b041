// Package fed is the federated scatter-gather executor: the
// "mediator" architecture the paper's related work (Tout-XML style
// XML mediation) distributes an XQuery over — a set of REST module
// servers (internal/rest.ModuleServer), each owning a shard of the
// document space, queried concurrently and merged back into one
// URI-ordered sequence.
//
// The robustness core wraps every sub-request in the full degraded-
// mode stack:
//
//   - per-backend circuit breakers (closed → open after K consecutive
//     transient failures, half-open single probe after a cooldown), so
//     a dead backend costs at most one probe per cooldown window;
//   - hedged requests: when the primary replica outlives its own
//     tracked p95, a second attempt races against a replica and the
//     first success wins, losers cancelled through the context;
//   - jittered exponential backoff retries, for idempotent reads only;
//   - graceful degradation: under Config.PartialResults a failed shard
//     yields the available shards plus a <fed:incomplete> diagnostic
//     instead of failing the query; otherwise a typed ErrBackendDown.
//
// Fault points fed.call / fed.merge / fed.hedge (internal/faultpoint)
// thread through the pipeline for the chaos suite.
//
// What is scattered is either the collection (every shard answers its
// documents) or, for a query the planner found to be a map over the
// documents with atomic results, the query's per-document expression
// (Ship: every shard answers what it yields on its documents) — the
// same stack under both, and a federation whose shard module predates
// shard:map simply never ships.
package fed

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dom"
	"repro/internal/rest"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/runtime"
)

// Namespace is the fed: namespace of the diagnostics this package
// emits (the <fed:incomplete> element of a degraded gather).
const Namespace = "urn:xqib:fed"

// ShardNamespace is the module namespace every federated backend
// serves its shard under (see ShardModule).
const ShardNamespace = "urn:xqib:fed:shard"

// EndpointsHint is the location hint that routes a module import to
// the federation instead of a single server:
//
//	import module namespace s = "urn:some:svc" at "fed:endpoints";
//
// The executor fetches the service description from the first healthy
// backend and registers one scatter-gather proxy per function.
const EndpointsHint = "fed:endpoints"

// ShardModule is the library module a federated backend serves: it
// exposes the backend's share of the document space ("" selects the
// default collection) through the web-service machinery of
// internal/rest. Wire a store shard into the ModuleServer's collection
// fields and serve this source. Its two functions are the federation
// protocol: shard:collection answers the share's documents, shard:map
// answers what a shipped per-document expression yields on them
// (rest:map) — a module that does not declare it is still a backend,
// one that ships documents only.
const ShardModule = `module namespace shard = "` + ShardNamespace + `";
declare namespace rest = "` + rest.Namespace + `";
declare option fn:webservice "true";
declare function shard:collection($uri) {
  if ($uri = "") then fn:collection() else fn:collection($uri)
};
declare function shard:map($uri, $expr) {
  rest:map(shard:collection($uri), $expr)
};`

// The shard-module functions the executor calls.
const (
	collectionFn = "collection"
	mapFn        = "map"
)

// Defaults for the zero Config fields.
const (
	DefaultAttemptTimeout   = 2 * time.Second
	DefaultMaxRetries       = 2
	DefaultRetryBase        = 10 * time.Millisecond
	DefaultHedgeDelay       = 20 * time.Millisecond // adaptive fallback while the p95 window is empty
	DefaultHedgeMin         = 5 * time.Millisecond
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = time.Second
)

// ErrBackendDown reports a shard whose replicas are all unavailable —
// open breakers, exhausted retries against transient failures, or hung
// backends cut off by the per-attempt timeout.
var ErrBackendDown = errors.New("fed: backend down")

// Config describes a federation.
type Config struct {
	// Shards lists the backends: one replica group per shard of the
	// document space, each replica a base URL of a ModuleServer serving
	// ShardModule (or a module of the same shape). Order within a group
	// is preference order; the first healthy replica is the primary.
	Shards [][]string

	// HTTP is the transport (nil: http.DefaultClient).
	HTTP *http.Client

	// AttemptTimeout bounds each individual sub-request (0 =
	// DefaultAttemptTimeout, negative = unbounded). This is what cuts
	// off a hung backend.
	AttemptTimeout time.Duration

	// MaxRetries is how many extra rounds an idempotent call may take
	// after the first fails transiently (0 = DefaultMaxRetries,
	// negative = no retries).
	MaxRetries int

	// RetryBase seeds the jittered exponential backoff between rounds
	// (0 = DefaultRetryBase).
	RetryBase time.Duration

	// HedgeDelay, when positive, is a fixed delay before the hedged
	// attempt launches. Zero selects the adaptive delay: the primary
	// endpoint's tracked p95 latency, never below HedgeMin.
	HedgeDelay time.Duration

	// HedgeMin floors the adaptive hedge delay (0 = DefaultHedgeMin).
	HedgeMin time.Duration

	// DisableHedge turns hedged requests off entirely.
	DisableHedge bool

	// BreakerThreshold is K: consecutive transient failures that open a
	// backend's breaker (0 = DefaultBreakerThreshold).
	BreakerThreshold int

	// BreakerCooldown is how long an open breaker rejects before
	// admitting a half-open probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration

	// PartialResults selects graceful degradation: when some (not all)
	// shards fail, return the available ones plus a <fed:incomplete>
	// diagnostic element instead of a typed error.
	PartialResults bool

	// MaxBody caps each sub-response body (0 = rest.DefaultMaxBody,
	// negative = unlimited).
	MaxBody int64

	// Idempotent marks module functions safe to retry and hedge (reads
	// with no effects). The two functions of ShardModule always are.
	Idempotent map[string]bool
}

// Executor evaluates federated calls over a Config. Safe for
// concurrent use; breakers and latency windows are per-endpoint and
// shared across all calls.
type Executor struct {
	cfg  Config
	http *http.Client

	mu       sync.Mutex
	breakers map[string]*breaker
	lats     map[string]*latWindow

	// ships is what the backends' service description says about
	// shard:map: 0 while nobody has an answer, then 1 (declared) or -1
	// (not declared). shipProbe is held by the one call asking.
	ships     atomic.Int32
	shipProbe sync.Mutex
}

// New builds an executor, filling Config defaults.
func New(cfg Config) (*Executor, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fed: no shards configured")
	}
	for i, eps := range cfg.Shards {
		if len(eps) == 0 {
			return nil, fmt.Errorf("fed: shard %d has no endpoints", i)
		}
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = DefaultAttemptTimeout
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = DefaultHedgeMin
	}
	h := cfg.HTTP
	if h == nil {
		h = http.DefaultClient
	}
	return &Executor{
		cfg:      cfg,
		http:     h,
		breakers: map[string]*breaker{},
		lats:     map[string]*latWindow{},
	}, nil
}

// ParseShards reads the command-line form of Config.Shards (the -fed
// flag of cmd/xq and cmd/xqib): commas separate shards, "|" separates
// the replica endpoints of one, e.g. "http://a|http://a2,http://b".
func ParseShards(spec string) [][]string {
	var shards [][]string
	for _, group := range strings.Split(spec, ",") {
		if eps := strings.FieldsFunc(group, func(r rune) bool { return r == '|' || r == ' ' }); len(eps) > 0 {
			shards = append(shards, eps)
		}
	}
	return shards
}

// Shards reports the configured shard count.
func (x *Executor) Shards() int { return len(x.cfg.Shards) }

// shardOut is one shard's gather input.
type shardOut struct {
	idx   int
	items []keyedItem
	err   error
}

// subCall is what one scatter sends every shard: a function of the
// shard module with its encoded arguments, whether it may be retried,
// hedged and failed over, and how an attempt turns a 200 body into
// keyed items.
type subCall struct {
	fn, argsXML string
	idempotent  bool
	decode      func(body string) ([]keyedItem, error)
}

// scatter fans the call out to every shard concurrently and waits for
// all of them (each bounded by its own retry/timeout budget, so the
// wait is bounded too).
func (x *Executor) scatter(ctx context.Context, c subCall) []shardOut {
	cScatters.Add(1)
	outs := make([]shardOut, len(x.cfg.Shards))
	var wg sync.WaitGroup
	for i, eps := range x.cfg.Shards {
		wg.Add(1)
		go func(i int, eps []string) {
			defer wg.Done()
			items, err := x.callShard(ctx, i, eps, c)
			outs[i] = shardOut{idx: i, items: items, err: err}
		}(i, eps)
	}
	wg.Wait()
	return outs
}

// gather turns the shard outputs into the parts of one merge, applying
// the degradation policy: strict mode propagates the first failure as a
// typed error; PartialResults returns the available shards plus a
// <fed:incomplete> diagnostic to put behind them — unless every shard
// failed, which is an error under either policy.
func (x *Executor) gather(outs []shardOut) (parts [][]keyedItem, diagnostic xdm.Sequence, err error) {
	parts = make([][]keyedItem, 0, len(outs))
	var failed []int
	var errs []error
	for _, o := range outs {
		if o.err != nil {
			failed = append(failed, o.idx)
			errs = append(errs, o.err)
			continue
		}
		parts = append(parts, o.items)
	}
	if len(failed) == 0 {
		return parts, nil, nil
	}
	if !x.cfg.PartialResults || len(failed) == len(outs) {
		return nil, nil, wrapShardErr(failed[0], errs[0])
	}
	cPartials.Add(1)
	return parts, xdm.Sequence{incompleteDiagnostic(failed, errs)}, nil
}

// call scatters c and merges what the shards answer into one stream,
// the diagnostic of a degraded gather last.
func (x *Executor) call(ctx context.Context, c subCall) (xdm.Iter, error) {
	parts, diagnostic, err := x.gather(x.scatter(ctx, c))
	if err != nil {
		return nil, err
	}
	return newMerger(parts, diagnostic), nil
}

// wrapShardErr types a shard failure: availability-class failures
// (transport, retryable statuses, hung-backend timeouts) surface as
// ErrBackendDown; terminal caller-side errors propagate as themselves.
func wrapShardErr(i int, err error) error {
	if errors.Is(err, ErrBackendDown) {
		return fmt.Errorf("fed: shard %d: %w", i, err)
	}
	if rest.Retryable(err) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: shard %d: %w", ErrBackendDown, i, err)
	}
	return fmt.Errorf("fed: shard %d: %w", i, err)
}

// CollectionIter evaluates fn:collection over the federation: every
// shard contributes its share of the collection (uri "" selects each
// backend's default collection) and the shares merge in document-URI
// order, streamed through the returned iterator.
func (x *Executor) CollectionIter(ctx context.Context, uri string) (xdm.Iter, error) {
	argsXML := rest.EncodeArgs([]xdm.Sequence{xdm.Singleton(xdm.String(uri))})
	return x.call(ctx, subCall{fn: collectionFn, argsXML: argsXML, idempotent: true, decode: decodeItems})
}

// Collection is CollectionIter materialized.
func (x *Executor) Collection(ctx context.Context, uri string) (xdm.Sequence, error) {
	it, err := x.CollectionIter(ctx, uri)
	if err != nil {
		return nil, err
	}
	return xdm.Materialize(it)
}

// CollectionSource returns the executor as the engine's fn:collection
// source, under ctx: the engine's source interface carries no context,
// so the caller binds one here (the session or request context in
// serve; the per-call IOContext is not reachable from this seam). The
// source streams collections (CollectionIter) and ships per-document
// expressions (Ship).
func (x *Executor) CollectionSource(ctx context.Context) runtime.CollectionSource {
	return source(func() (*Executor, context.Context) { return x, ctx })
}

// source is an executor bound to a context. The context travels in a
// closure, as a call's argument would, not in a struct field.
type source func() (*Executor, context.Context)

func (s source) Documents(uri string) (xdm.Iter, error) {
	x, ctx := s()
	return x.CollectionIter(ctx, uri)
}

func (s source) Ship(uri, src string) (vals, unevaluated xdm.Sequence, ok bool, err error) {
	x, ctx := s()
	return x.Ship(ctx, uri, src)
}

// Ship evaluates a per-document expression where the documents are
// (see ast.ShipPlan): every shard runs src — XQuery text — on each
// document of its share of fn:collection(uri) through shard:map and
// answers the values, which come back as vals in document-URI order,
// in each document's own order within it. The call is one scatter like
// CollectionIter's, under the same retry, hedging, breaker and
// degradation rules; the <fed:incomplete> diagnostic of a degraded
// gather comes back in unevaluated, for the caller to run the
// expression on as it would have on that item of the collection. ok is
// false — and nothing was sent — while the backends are not known to
// serve shard:map: until their service description has been read
// (once per executor, by the first call to get here), and for good when
// it does not declare the function. A dynamic error of src on any
// document fails the call with that shard's 400.
func (x *Executor) Ship(ctx context.Context, uri, src string) (vals, unevaluated xdm.Sequence, ok bool, err error) {
	if !x.canShip(ctx) {
		return nil, nil, false, nil
	}
	cShipped.Add(1)
	argsXML := rest.EncodeArgs([]xdm.Sequence{xdm.Singleton(xdm.String(uri)), xdm.Singleton(xdm.String(src))})
	parts, diagnostic, err := x.gather(x.scatter(ctx, subCall{fn: mapFn, argsXML: argsXML, idempotent: true, decode: decodeRuns}))
	if err != nil {
		return nil, nil, true, err
	}
	vals, err = xdm.Materialize(newMerger(parts, nil))
	return vals, diagnostic, true, err
}

// canShip reports whether the backends declare shard:map/2, asking the
// first time: one call fetches the service description (through the
// breakers, within one attempt timeout) while the others go on
// unshipped, and a fetch nobody answered is tried again by the next
// call. Like Resolver it takes one backend's word for all of them.
func (x *Executor) canShip(ctx context.Context) bool {
	if s := x.ships.Load(); s != 0 {
		return s > 0
	}
	if !x.shipProbe.TryLock() {
		return false
	}
	defer x.shipProbe.Unlock()
	if s := x.ships.Load(); s != 0 {
		return s > 0
	}
	if x.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, x.cfg.AttemptTimeout)
		defer cancel()
	}
	_, fns, err := x.fetchDescription(ctx)
	if err != nil {
		return false
	}
	s := int32(-1)
	for _, f := range fns {
		if f.Name == mapFn && f.Arity == 2 {
			s = 1
		}
	}
	x.ships.Store(s)
	return s > 0
}

// Call scatter-gathers a module function across every shard and
// concatenates the results in shard order (URI order when all results
// are documents). Only functions marked Idempotent (or the shard
// module's own two) retry, hedge and fail over; anything else gets
// exactly one attempt against one replica, because re-executing a call
// with effects could double-apply them.
func (x *Executor) Call(ctx context.Context, fn string, args []xdm.Sequence) (xdm.Sequence, error) {
	it, err := x.call(ctx, subCall{fn: fn, argsXML: rest.EncodeArgs(args), idempotent: x.idempotent(fn), decode: decodeItems})
	if err != nil {
		return nil, err
	}
	return xdm.Materialize(it)
}

func (x *Executor) idempotent(fn string) bool {
	return fn == collectionFn || fn == mapFn || x.cfg.Idempotent[fn]
}

// Resolver materialises `import module namespace p = "uri" at
// "fed:endpoints"` by fetching the service description from the first
// healthy backend and registering one scatter-gather proxy per
// declared function. ctx bounds the description fetch (imports resolve
// at compile time); proxy calls run under each evaluation's own
// context.
func (x *Executor) Resolver(ctx context.Context) runtime.ModuleResolver {
	return func(imp ast.ModuleImport, reg *runtime.Registry) error {
		if len(imp.Hints) == 0 || imp.Hints[0] != EndpointsHint {
			return fmt.Errorf("fed: import of %q: expected location hint %q", imp.URI, EndpointsHint)
		}
		ns, fns, err := x.fetchDescription(ctx)
		if err != nil {
			return err
		}
		if ns != imp.URI {
			return fmt.Errorf("fed: service namespace %q does not match import %q", ns, imp.URI)
		}
		for _, f := range fns {
			name, arity := f.Name, f.Arity
			reg.Register(&runtime.Function{
				Name:    dom.QName{Space: ns, Local: name},
				MinArgs: arity, MaxArgs: arity,
				Invoke: func(rctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
					return x.Call(rctx.IOContext(), name, args)
				},
			})
		}
		return nil
	}
}

// fetchDescription asks the backends, in shard/preference order, for
// the service description, through the breakers: a federation with a
// dead first backend still resolves its imports.
func (x *Executor) fetchDescription(ctx context.Context) (string, []rest.ServiceFunc, error) {
	var lastErr error
	for _, eps := range x.cfg.Shards {
		for _, ep := range eps {
			br := x.breakerFor(ep)
			if !br.Allow() {
				cBreakerSkips.Add(1)
				continue
			}
			ns, fns, err := rest.FetchDescription(ctx, x.http, strings.TrimSuffix(ep, "/"), x.cfg.MaxBody)
			switch {
			case err == nil:
				br.Record(outcomeOK)
				return ns, fns, nil
			case rest.Retryable(err):
				br.Record(outcomeFail)
			default:
				br.Record(outcomeNeutral)
			}
			lastErr = err
		}
	}
	if lastErr == nil {
		return "", nil, fmt.Errorf("%w: every backend has an open circuit breaker", ErrBackendDown)
	}
	return "", nil, fmt.Errorf("%w: no backend produced a service description: %w", ErrBackendDown, lastErr)
}
