// Package rest implements the paper's REST and Web-service support
// (§3.4, §4.4): serving an XQuery library module as a web service
// (`declare option fn:webservice "true"` plus the `port:` module
// extension), importing such a service from a client (the import
// registers proxy functions that issue remote calls), and the
// synchronous GET the implementation section notes Zorba shipped first
// (§5.1), with the whole-document client cache the Elsevier migration
// relies on (§6.1).
//
// The package is also the transport substrate of the federation layer
// (internal/fed): errors.go defines the retryable-vs-terminal taxonomy
// over HTTP statuses that retries and circuit breakers key off, and
// the sequence wire format carries an optional per-item document URI
// so scattered partial results can merge in URI order.
package rest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xqerr"
	"repro/internal/xquery"
	"repro/internal/xquery/runtime"
)

// Namespace is the rest: function namespace for client-side calls.
const Namespace = "http://www.example.com/rest"

// --- web-service server ---------------------------------------------------------

// ServerStats counts the server-side work a service performed — the
// measurements behind the Figure-2 off-loading experiment.
type ServerStats struct {
	mu               sync.Mutex
	Requests         int
	BytesServed      int64
	QueriesEvaluated int
}

// Snapshot returns a copy of the counters.
func (s *ServerStats) Snapshot() (requests int, bytes int64, queries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Requests, s.BytesServed, s.QueriesEvaluated
}

// Reset zeroes the counters.
func (s *ServerStats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Requests, s.BytesServed, s.QueriesEvaluated = 0, 0, 0
}

func (s *ServerStats) count(bytes int, query bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Requests++
	s.BytesServed += int64(bytes)
	if query {
		s.QueriesEvaluated++
	}
}

// ModuleServer serves an XQuery library module as a web service. The
// compiled program is immutable and every call evaluates in its own
// context, so one server handles concurrent requests safely.
type ModuleServer struct {
	prog  *xquery.Program
	uri   string
	docs  runtime.DocResolver
	Stats ServerStats

	// Collections / CollectionsIter, when set, are the fn:collection
	// source of service functions — how a backend exposes its shard of
	// the document space to the federation layer. They are one source
	// under two names: CollectionsIter answers when both are set.
	// Collections takes a fixed document list (a func literal);
	// CollectionsIter a streaming source such as
	// xmldb.Store.CollectionSource. CollectionsIter stays only because
	// the benchmark harness assigns it; it merges into Collections with
	// the harness's next change.
	Collections     runtime.CollectionResolver
	CollectionsIter runtime.CollectionSource

	// MaxSteps / Timeout bound every call's evaluation (<= 0:
	// unlimited), on top of the request context's cancellation.
	MaxSteps int64
	Timeout  time.Duration

	// MaxBody caps request bodies, in bytes; 0 uses DefaultMaxBody,
	// negative disables the cap. Oversized requests fail with 413.
	MaxBody int64

	// MaxConcurrent, when > 0, bounds concurrently evaluating calls;
	// excess requests are shed immediately with 503 (the retryable
	// overload signal of the federation taxonomy) instead of piling
	// onto a saturated evaluator.
	MaxConcurrent int
	inflight      atomic.Int64
}

// NewModuleServer compiles a library module for serving. The module
// must declare `option fn:webservice "true"` (paper §3.4). Its engine
// carries the server-side rest: functions (RegisterServerFunctions)
// beside whatever opts add.
func NewModuleServer(src string, docs runtime.DocResolver, opts ...xquery.Option) (*ModuleServer, error) {
	e := xquery.New(append([]xquery.Option{xquery.WithFunctions(RegisterServerFunctions)}, opts...)...)
	prog, err := e.Compile(src)
	if err != nil {
		return nil, err
	}
	return newModuleServer(prog, docs)
}

// NewModuleServerCached is NewModuleServer compiling through a shared
// program cache on a shared engine — the serving-layer path, where many
// services (and redeploys of the same module) skip parse/compile. The
// engine is the caller's: a module that calls the server-side rest:
// functions needs one built with
// xquery.WithFunctions(rest.RegisterServerFunctions).
func NewModuleServerCached(e *xquery.Engine, c *xquery.Cache, src string, docs runtime.DocResolver) (*ModuleServer, error) {
	prog, err := c.Compile(e, src)
	if err != nil {
		return nil, err
	}
	return newModuleServer(prog, docs)
}

func newModuleServer(prog *xquery.Program, docs runtime.DocResolver) (*ModuleServer, error) {
	m := prog.Module()
	if !m.IsLibrary {
		return nil, fmt.Errorf("rest: a web service must be a library module")
	}
	if v := m.Prolog.Options["fn:webservice"]; v != "true" {
		return nil, fmt.Errorf(`rest: module does not declare option fn:webservice "true"`)
	}
	return &ModuleServer{prog: prog, uri: m.URI, docs: docs}, nil
}

// URI returns the module's namespace URI.
func (s *ModuleServer) URI() string { return s.uri }

// Port returns the port declared in the module header (0 if none).
func (s *ModuleServer) Port() int { return s.prog.Module().Port }

// Handler exposes the service over HTTP:
//
//	GET  /wsdl         — the service description (functions + arities)
//	POST /call/{name}  — invoke a function; the body is an <args>
//	                     element with one <arg> per parameter
//
// Call errors map onto the status taxonomy federation clients key
// their retry and breaker decisions off: 400 for malformed calls, 413
// for oversized request bodies, 422 for exhausted evaluation budgets
// (terminal — deterministic, so clients must not retry or count it
// against backend health), 500 for evaluation panics, 503 for
// overload or quarantine, 504 for cancelled requests.
func (s *ModuleServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /wsdl", func(w http.ResponseWriter, r *http.Request) {
		out := s.describe()
		w.Header().Set("Content-Type", "application/xml")
		n, _ := io.WriteString(w, out)
		s.Stats.count(n, false)
	})
	mux.HandleFunc("POST /call/{name}", func(w http.ResponseWriter, r *http.Request) {
		if mc := s.MaxConcurrent; mc > 0 {
			if s.inflight.Add(1) > int64(mc) {
				s.inflight.Add(-1)
				s.Stats.count(0, false)
				http.Error(w, ErrOverloaded.Error(), http.StatusServiceUnavailable)
				return
			}
			defer s.inflight.Add(-1)
		}
		name := r.PathValue("name")
		max := s.MaxBody
		if max == 0 {
			max = DefaultMaxBody
		}
		var body []byte
		var err error
		if max > 0 {
			body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, max))
		} else {
			body, err = io.ReadAll(r.Body)
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out, err := s.call(r.Context(), name, string(body))
		if err != nil {
			s.Stats.count(0, true)
			http.Error(w, err.Error(), statusFor(err))
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		n, _ := w.Write(out)
		s.Stats.count(n, true)
	})
	return mux
}

func (s *ModuleServer) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<service namespace="%s">`, markup.EscapeAttr(s.uri))
	for _, f := range s.prog.Module().Prolog.Functions {
		if f.Name.Space != s.uri {
			continue
		}
		fmt.Fprintf(&b, `<function name="%s" arity="%d"/>`,
			markup.EscapeAttr(f.Name.Local), len(f.Params))
	}
	b.WriteString(`</service>`)
	return b.String()
}

// Call invokes a module function with an <args> payload and returns the
// serialized <result>.
func (s *ModuleServer) Call(name, argsXML string) (string, error) {
	return s.CallContext(context.Background(), name, argsXML)
}

// CallContext is Call under a request context: the evaluation aborts
// cooperatively when reqCtx is cancelled (the HTTP handler passes the
// request's context, so a disconnected client stops burning engine
// time) and is bounded by the server's MaxSteps/Timeout budget. It is
// a panic-isolation boundary: a panicking service function comes back
// as an error matching xqerr.ErrInternal, never as a crashed server.
func (s *ModuleServer) CallContext(reqCtx context.Context, name, argsXML string) (string, error) {
	out, err := s.call(reqCtx, name, argsXML)
	return string(out), err
}

// call is CallContext returning the <result> envelope as the bytes it
// was encoded into, which the HTTP handler writes without a copy.
func (s *ModuleServer) call(reqCtx context.Context, name, argsXML string) (out []byte, err error) {
	defer xqerr.RecoverInto(&err, "rest.CallContext")
	args, err := DecodeArgs(argsXML)
	if err != nil {
		return nil, err
	}
	ctx := s.prog.NewContext(xquery.RunConfig{
		Context:     reqCtx,
		Docs:        s.docs,
		Collections: s.collections(),
		MaxSteps:    s.MaxSteps,
		Timeout:     s.Timeout,
	})
	if err := ctx.InitGlobals(); err != nil {
		return nil, err
	}
	res, err := ctx.CallFunction(dom.QName{Space: s.uri, Local: name}, args)
	if err != nil {
		return nil, err
	}
	return appendSequence(nil, res), nil
}

// collections is the one source the two collection fields name: the
// iterator first, and a nil Collections stays a nil interface (a nil
// func in one would panic when fn:collection called it).
func (s *ModuleServer) collections() runtime.CollectionSource {
	if s.CollectionsIter != nil {
		return s.CollectionsIter
	}
	if s.Collections != nil {
		return s.Collections
	}
	return nil
}

// --- shipped expressions ---------------------------------------------------------------

// Expressions shipped to rest:map compile on one engine through one
// bounded program cache per process, whatever number of module servers
// the process runs (as funclib.Library() is one library per process):
// a federation sends every server the same texts. The engine runs the
// browser profile and has no host functions — a shipped expression
// reaches the documents it is handed and nothing else.
var (
	shipEngine = xquery.New(xquery.WithBrowserProfile())
	shipCache  = xquery.NewCache(0)
)

// RegisterServerFunctions installs the rest: functions of the serving
// side:
//
//	rest:map($docs, $expr) — evaluates the XQuery text $expr once per
//	    node of $docs, each as the context item, and answers one run
//	    (document URI, n, v₁ … vₙ) per document on which it yields
//	    values: what a federation ships instead of fetching $docs
//	    (ast.ShipPlan).
//
// A service module decides which documents shipped expressions see by
// what it passes as $docs (fed.ShardModule passes the shard's share of
// a collection). What $expr may do is not the module's to get wrong:
// xquery.Cache.EvalPerDocument admits effect-free, closed, atomic-valued
// expressions only, under the calling request's one budget, and every
// refusal is an ordinary call error (HTTP 400: terminal, never retried,
// no mark against the backend's health).
func RegisterServerFunctions(reg *runtime.Registry) {
	reg.Register(&runtime.Function{
		Name:    dom.QName{Space: Namespace, Prefix: "rest", Local: "map"},
		MinArgs: 2, MaxArgs: 2,
		Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			expr, err := xdm.AtomizeSequence(args[1]).One()
			if err != nil {
				return nil, err
			}
			var runs xdm.Sequence
			err = shipCache.EvalPerDocument(shipEngine, expr.String(), ctx, args[0],
				func(doc *dom.Node, vals xdm.Sequence) error {
					if len(vals) == 0 {
						return nil
					}
					uri := ""
					if doc.Type == dom.DocumentNode {
						uri = doc.BaseURI()
					}
					runs = append(append(runs, xdm.String(uri), xdm.Integer(len(vals))), vals...)
					return nil
				})
			return runs, err
		},
	})
}

// --- sequence wire format ----------------------------------------------------------

// EncodeSequence serializes an XDM sequence for transport: each item is
// an <item> carrying either a typed lexical value or a node payload.
// Document nodes additionally record their base URI in a uri
// attribute, so the document identity (and the federation layer's
// URI-ordered merge key) survives the wire.
func EncodeSequence(s xdm.Sequence) string { return string(appendSequence(nil, s)) }

func appendSequence(b []byte, s xdm.Sequence) []byte {
	b = append(b, "<result>"...)
	b = appendItems(b, s)
	return append(b, "</result>"...)
}

// appendItems appends one <item> per item of s to the envelope being
// built in b; node payloads are serialized straight into it.
func appendItems(b []byte, s xdm.Sequence) []byte {
	for _, it := range s {
		if n, ok := xdm.IsNode(it); ok {
			b = append(b, `<item kind="node"`...)
			if n.Type == dom.DocumentNode && n.BaseURI() != "" {
				b = append(b, ` uri="`...)
				b = append(b, markup.EscapeAttr(n.BaseURI())...)
				b = append(b, '"')
			}
			b = append(b, '>')
			b = markup.AppendXML(b, n)
		} else {
			b = append(b, `<item type="`...)
			b = append(b, markup.EscapeAttr(it.Type().String())...)
			b = append(b, `">`...)
			b = append(b, markup.EscapeText(it.String())...)
		}
		b = append(b, "</item>"...)
	}
	return b
}

// EncodeArgs serializes a call's arguments.
func EncodeArgs(args []xdm.Sequence) string {
	b := []byte("<args>")
	for _, a := range args {
		b = append(b, "<arg>"...)
		b = appendItems(b, a)
		b = append(b, "</arg>"...)
	}
	return string(append(b, "</args>"...))
}
