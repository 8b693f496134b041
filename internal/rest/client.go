package rest

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/runtime"
)

// DefaultMaxBody caps how many bytes the client reads from a peer
// response (and the server from a request) unless overridden: one
// misbehaving peer must not be able to OOM the process through an
// unbounded io.ReadAll.
const DefaultMaxBody = 16 << 20 // 16 MiB

// DefaultCacheCapacity bounds the whole-document client cache when
// EnableCache is used without SetCacheCapacity.
const DefaultCacheCapacity = 64

// CacheStats is a point-in-time snapshot of the whole-document cache.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Enabled   bool  `json:"enabled"`
}

// Client issues REST calls from the engine, with an optional
// whole-document cache: "whole XML documents can be cached in the
// browser so that most user requests can be processed without any
// interaction with the Elsevier server" (§6.1). The cache is bounded:
// least-recently-used documents evict once capacity is reached (the
// xquery.Cache shape), so a long session browsing many documents
// cannot grow memory without bound.
//
// All methods are safe for concurrent use. Network calls take a
// context.Context (the evaluation's RunConfig.Context, via
// runtime.Context.IOContext) so a cancelled query stops burning
// sockets.
type Client struct {
	HTTP *http.Client

	// MaxBody caps response bodies read from peers, in bytes; 0 uses
	// DefaultMaxBody, negative disables the cap. Oversized responses
	// fail with an error matching ErrBodyTooLarge.
	MaxBody int64

	mu       sync.Mutex
	caching  bool
	capacity int
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used; values are *cachedDoc
	hits     int64
	misses   int64
	evicted  int64
	Fetches  int // network requests actually issued
	CacheHit int
}

type cachedDoc struct {
	uri string
	doc *dom.Node
}

// NewClient builds a client around an http.Client (nil uses the
// default).
func NewClient(h *http.Client) *Client {
	if h == nil {
		h = http.DefaultClient
	}
	return &Client{
		HTTP:     h,
		capacity: DefaultCacheCapacity,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
	}
}

// EnableCache switches the whole-document cache on or off. Turning it
// off drops every cached document.
func (c *Client) EnableCache(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.caching = on
	if !on {
		c.dropAllLocked()
	}
}

// SetCacheCapacity bounds the document cache to n entries (n <= 0
// restores DefaultCacheCapacity), evicting least-recently-used
// documents if the cache is already over the new bound.
func (c *Client) SetCacheCapacity(n int) {
	if n <= 0 {
		n = DefaultCacheCapacity
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	for c.lru.Len() > c.capacity {
		c.evictOldestLocked()
	}
}

// ClearCache drops all cached documents.
func (c *Client) ClearCache() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropAllLocked()
}

// CacheStats snapshots the document-cache counters.
func (c *Client) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
		Size:      c.lru.Len(),
		Capacity:  c.capacity,
		Enabled:   c.caching,
	}
}

func (c *Client) dropAllLocked() {
	c.entries = map[string]*list.Element{}
	c.lru.Init()
}

func (c *Client) evictOldestLocked() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	c.lru.Remove(el)
	delete(c.entries, el.Value.(*cachedDoc).uri)
	c.evicted++
}

// cacheGet returns a cached document, refreshing its recency.
func (c *Client) cacheGet(uri string) (*dom.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.caching {
		return nil, false
	}
	el, ok := c.entries[uri]
	if !ok {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	c.CacheHit++
	return el.Value.(*cachedDoc).doc, true
}

func (c *Client) cachePut(uri string, doc *dom.Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Fetches++
	if !c.caching {
		return
	}
	if el, ok := c.entries[uri]; ok {
		el.Value.(*cachedDoc).doc = doc
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.capacity {
		c.evictOldestLocked()
	}
	c.entries[uri] = c.lru.PushFront(&cachedDoc{uri: uri, doc: doc})
}

// readBody drains a response body under the client's MaxBody cap.
func (c *Client) readBody(url string, resp *http.Response) ([]byte, error) {
	return readLimited(url, resp.Body, c.MaxBody)
}

// ReadLimited reads r fully, failing with an error matching
// ErrBodyTooLarge past max bytes (0 = DefaultMaxBody, negative =
// unlimited). Exported for transports built on this package's taxonomy
// (internal/fed) so their size-cap failures classify identically.
func ReadLimited(url string, r io.Reader, max int64) ([]byte, error) {
	return readLimited(url, r, max)
}

// readLimited reads r fully, failing with ErrBodyTooLarge past max
// bytes (0 = DefaultMaxBody, negative = unlimited).
func readLimited(url string, r io.Reader, max int64) ([]byte, error) {
	if max == 0 {
		max = DefaultMaxBody
	}
	if max < 0 {
		return io.ReadAll(r)
	}
	body, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > max {
		return nil, fmt.Errorf("%w: %s: more than %d bytes", ErrBodyTooLarge, url, max)
	}
	return body, nil
}

// do issues one request and returns the (cap-bounded) body, converting
// non-200 statuses into *StatusError.
func (c *Client) do(req *http.Request) ([]byte, error) {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := c.readBody(req.URL.String(), resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{URL: req.URL.String(), Status: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
	}
	return body, nil
}

// Get fetches a URI and parses the body as XML, serving repeated
// fetches from the cache when enabled. It is GetContext under
// context.Background().
func (c *Client) Get(uri string) (*dom.Node, error) {
	return c.GetContext(context.Background(), uri)
}

// GetContext is Get bounded by ctx: the request is built with
// http.NewRequestWithContext, so cancelling the evaluation aborts the
// fetch instead of leaking the socket until the server responds.
func (c *Client) GetContext(ctx context.Context, uri string) (*dom.Node, error) {
	if doc, ok := c.cacheGet(uri); ok {
		return doc, nil
	}
	body, err := c.getRaw(ctx, uri)
	if err != nil {
		return nil, err
	}
	doc, err := markup.Parse(string(body))
	if err != nil {
		return nil, fmt.Errorf("%w: GET %s: parsing body: %w", ErrMalformedPayload, uri, err)
	}
	doc.SetBaseURI(uri)
	c.cachePut(uri, doc)
	return doc, nil
}

// getRaw fetches a URI and returns the raw 200 body.
func (c *Client) getRaw(ctx context.Context, uri string) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, uri, nil)
	if err != nil {
		return nil, fmt.Errorf("rest: GET %s: %w", uri, err)
	}
	body, err := c.do(req)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) {
			return nil, err
		}
		return nil, fmt.Errorf("rest: GET %s: %w", uri, err)
	}
	return body, nil
}

// invoke POSTs an encoded argument list at a /call URL and decodes the
// result sequence.
func (c *Client) invoke(callURL string, args []xdm.Sequence) (xdm.Sequence, error) {
	return c.invokeContext(context.Background(), callURL, args)
}

// invokeContext is invoke bounded by ctx (the evaluation's context at
// proxy-call time).
func (c *Client) invokeContext(ctx context.Context, callURL string, args []xdm.Sequence) (xdm.Sequence, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, callURL, strings.NewReader(EncodeArgs(args)))
	if err != nil {
		return nil, fmt.Errorf("rest: calling %s: %w", callURL, err)
	}
	req.Header.Set("Content-Type", "application/xml")
	body, err := c.do(req)
	c.mu.Lock()
	c.Fetches++
	c.mu.Unlock()
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) {
			return nil, err
		}
		return nil, fmt.Errorf("rest: calling %s: %w", callURL, err)
	}
	return DecodeSequence(string(body))
}

// RegisterFunctions installs the rest: client functions:
//
//	rest:get($uri)        — synchronous GET returning the document (§5.1)
//	rest:get-text($uri)   — synchronous GET returning the raw body
//
// Both run under the calling evaluation's context, so a cancelled
// query aborts the fetch.
func (c *Client) RegisterFunctions(reg *runtime.Registry) {
	name := func(local string) dom.QName {
		return dom.QName{Space: Namespace, Prefix: "rest", Local: local}
	}
	reg.Register(&runtime.Function{
		Name: name("get"), MinArgs: 1, MaxArgs: 1,
		Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			it, err := xdm.AtomizeSequence(args[0]).One()
			if err != nil {
				return nil, err
			}
			doc, err := c.GetContext(ctx.IOContext(), it.String())
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(xdm.NewNode(doc)), nil
		},
	})
	reg.Register(&runtime.Function{
		Name: name("get-text"), MinArgs: 1, MaxArgs: 1,
		Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			it, err := xdm.AtomizeSequence(args[0]).One()
			if err != nil {
				return nil, err
			}
			body, err := c.getRaw(ctx.IOContext(), it.String())
			if err != nil {
				return nil, err
			}
			c.mu.Lock()
			c.Fetches++
			c.mu.Unlock()
			return xdm.Singleton(xdm.String(string(body))), nil
		},
	})
}

// ServiceFunc is one function advertised by a service description.
type ServiceFunc struct {
	Name  string
	Arity int
}

// FetchDescription fetches and validates a web-service description
// ("{base}/wsdl"): the service namespace plus every declared function.
// Descriptions carrying an unparsable or negative arity are rejected —
// a proxy registered with a garbage arity would mis-validate every
// call site.
func FetchDescription(ctx context.Context, h *http.Client, base string, maxBody int64) (ns string, fns []ServiceFunc, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if h == nil {
		h = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/wsdl", nil)
	if err != nil {
		return "", nil, err
	}
	resp, err := h.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	body, err := readLimited(base+"/wsdl", resp.Body, maxBody)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, &StatusError{URL: base + "/wsdl", Status: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
	}
	desc, err := markup.Parse(string(body))
	if err != nil {
		return "", nil, fmt.Errorf("%w: parsing service description: %w", ErrMalformedPayload, err)
	}
	root := desc.DocumentElement()
	if root == nil || root.Name.Local != "service" {
		return "", nil, fmt.Errorf("%w: %s/wsdl is not a service description", ErrMalformedPayload, base)
	}
	for _, f := range root.Children() {
		if f.Type != dom.ElementNode || f.Name.Local != "function" {
			continue
		}
		fname := f.AttrValue("name")
		arity, err := strconv.Atoi(strings.TrimSpace(f.AttrValue("arity")))
		if err != nil || arity < 0 {
			return "", nil, fmt.Errorf("%w: %s/wsdl: function %q declares bad arity %q",
				ErrMalformedPayload, base, fname, f.AttrValue("arity"))
		}
		fns = append(fns, ServiceFunc{Name: fname, Arity: arity})
	}
	return root.AttrValue("namespace"), fns, nil
}

// Resolver returns a module resolver that materialises
// `import module namespace p = "uri" at "http://host/wsdl"` by fetching
// the service description and registering one proxy function per
// declared function — the paper's client side of §3.4. Each proxy call
// POSTs the arguments and decodes the result sequence, under the
// calling evaluation's context. The description fetch itself runs
// under context.Background(); use ResolverContext to bound it.
func (c *Client) Resolver() runtime.ModuleResolver {
	return c.ResolverContext(context.Background())
}

// ResolverContext is Resolver with the service-description fetch
// bounded by ctx (module imports resolve at compile time, before any
// RunConfig exists). Proxy calls still use each evaluation's own
// context.
func (c *Client) ResolverContext(ctx context.Context) runtime.ModuleResolver {
	return func(imp ast.ModuleImport, reg *runtime.Registry) error {
		if len(imp.Hints) == 0 {
			return fmt.Errorf("rest: import of %q needs an \"at\" location hint", imp.URI)
		}
		base := strings.TrimSuffix(imp.Hints[0], "/wsdl")
		ns, fns, err := FetchDescription(ctx, c.HTTP, base, c.MaxBody)
		if err != nil {
			return err
		}
		if ns != imp.URI {
			return fmt.Errorf("rest: service namespace %q does not match import %q", ns, imp.URI)
		}
		for _, f := range fns {
			callURL := base + "/call/" + f.Name
			arity := f.Arity
			reg.Register(&runtime.Function{
				Name:    dom.QName{Space: ns, Local: f.Name},
				MinArgs: arity, MaxArgs: arity,
				Invoke: func(rctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
					return c.invokeContext(rctx.IOContext(), callURL, args)
				},
			})
		}
		return nil
	}
}
