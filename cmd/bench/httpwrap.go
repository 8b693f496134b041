package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The harness's view of the wire: a RoundTripper on every client the
// workloads use and a Handler in front of every loopback server. They
// count always (two clock reads and a few atomic adds per request, the
// same on every commit) and record spans only in a traced window.

// Header names the two wrappers talk through. opClassHeader lets the
// store's handler time be split by op class (the store serves pure and
// updating queries on one route); spanHeader carries "client:span" so a
// server span hangs under the round trip that caused it.
const (
	opClassHeader = "X-Bench-Op"
	spanHeader    = "X-Bench-Span"
)

type routeStat struct{ n, ns atomic.Int64 }

type httpStats struct {
	requests  atomic.Int64
	wireBytes atomic.Int64 // request plus response bodies, headers not counted
	rtNs      atomic.Int64 // request sent to response body closed
	srvReqs   atomic.Int64
	srvNs     atomic.Int64

	routes map[string]*routeStat // by opClassHeader value; fixed at construction

	tracers []*tracer // by client index, for server spans
}

func newHTTPStats(tracers []*tracer, classes ...string) *httpStats {
	st := &httpStats{routes: map[string]*routeStat{}, tracers: tracers}
	for _, c := range classes {
		st.routes[c] = &routeStat{}
	}
	return st
}

// client returns an http.Client counted by st, with its own connection
// pool.
func (st *httpStats) client() *http.Client {
	return &http.Client{Transport: &transport{st: st, base: &http.Transport{MaxIdleConnsPerHost: 16}}}
}

func closeIdle(c *http.Client) {
	c.Transport.(*transport).base.CloseIdleConnections()
}

type transport struct {
	st   *httpStats
	base *http.Transport
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	tr := tracerFrom(req.Context())
	id := int32(-1)
	if tr != nil {
		if id = tr.open("rest.roundtrip", tr.top()); id >= 0 {
			req = req.Clone(req.Context())
			req.Header.Set(spanHeader, strconv.Itoa(tr.client)+":"+strconv.Itoa(int(id)))
		}
	}
	t.st.requests.Add(1)
	if req.ContentLength > 0 {
		t.st.wireBytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.st.rtNs.Add(int64(time.Since(t0)))
		if tr != nil {
			tr.close(id, 0)
		}
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, t: t, t0: t0, tr: tr, id: id}
	return resp, nil
}

// countedBody ends the round trip when the caller closes the body.
type countedBody struct {
	io.ReadCloser
	t    *transport
	t0   time.Time
	tr   *tracer
	id   int32
	n    int64
	done bool
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	if !b.done {
		b.done = true
		b.t.st.wireBytes.Add(b.n)
		b.t.st.rtNs.Add(int64(time.Since(b.t0)))
		if b.tr != nil {
			b.tr.close(b.id, b.n)
		}
	}
	return b.ReadCloser.Close()
}

// handler wraps a loopback server's handler.
func (st *httpStats) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		tr, id := st.serverSpan(r.Header.Get(spanHeader))
		next.ServeHTTP(w, r)
		d := int64(time.Since(t0))
		if tr != nil {
			tr.close(id, 0)
		}
		st.srvReqs.Add(1)
		st.srvNs.Add(d)
		if rs := st.routes[r.Header.Get(opClassHeader)]; rs != nil {
			rs.n.Add(1)
			rs.ns.Add(d)
		}
	})
}

func (st *httpStats) serverSpan(h string) (*tracer, int32) {
	client, parent, _ := strings.Cut(h, ":")
	c, err1 := strconv.Atoi(client)
	p, err2 := strconv.Atoi(parent)
	if err1 != nil || err2 != nil || c < 0 || c >= len(st.tracers) {
		return nil, -1 // an untraced request
	}
	return st.tracers[c], st.tracers[c].open("rest.server", int32(p))
}
