package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the harness only, at each call it makes into a
// layer; nothing inside the product is instrumented. Each client
// goroutine owns one tracer. The mutex is for the spans that arrive
// from other goroutines on the client's behalf: HTTP round trips of a
// federated scatter, server handlers, asynchronous `behind` calls.

type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`     // the client's op counter; spans of one op share it
	Parent int32  `json:"parent"` // index into the same tracer's spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Qty    int64  `json:"qty,omitempty"` // bytes, items or primitives, by span name
	Replay bool   `json:"replay,omitempty"`
}

type tracer struct {
	client int
	epoch  time.Time

	mu    sync.Mutex
	on    bool
	op    int32
	spans []span
	stack []int32
}

func newTracer(client int) *tracer {
	return &tracer{client: client, epoch: time.Now()}
}

func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span under the client's innermost open span and makes
// it the innermost. Only the client goroutine calls begin and end. It
// returns -1 when tracing is off.
func (t *tracer) begin(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := t.openLocked(name, t.topLocked())
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// open records a span under an explicit parent without touching the
// stack, for work done by other goroutines; close ends it.
func (t *tracer) open(name string, parent int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	return t.openLocked(name, parent)
}

func (t *tracer) close(id int32, qty int64) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.epoch))
	t.spans[id].Qty = qty
	t.mu.Unlock()
}

func (t *tracer) top() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.topLocked()
}

func (t *tracer) topLocked() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

func (t *tracer) openLocked(name string, parent int32) int32 {
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// nextOp starts a new op: later spans carry the new op id.
func (t *tracer) nextOp() {
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
}

// replay times fn as a span marked Replay: the harness re-running a
// layer's public entry point on the op's actual input. It hangs under
// the client's innermost open span, so that span's self time leaves the
// replay out. fn returns the span's quantity (bytes parsed, nodes
// indexed, ...).
func (t *tracer) replay(name string, fn func() int64) {
	t.mu.Lock()
	id := t.openLocked(name, t.topLocked())
	t.spans[id].Replay = true
	t.mu.Unlock()
	t.close(id, fn())
}

// note records a duration the product measured itself (Host.Times) as
// a replay-class span ending now.
func (t *tracer) note(name string, d time.Duration, qty int64) {
	t.mu.Lock()
	now := int64(time.Since(t.epoch))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: -1, Start: now - int64(d), End: now, Qty: qty, Replay: true})
	t.mu.Unlock()
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans, t.stack = nil, nil
	return s
}

// tracerKey carries a client's tracer in a context, so the HTTP
// wrappers can attribute a request to the op that caused it.
type tracerKey struct{}

func withTracer(ctx context.Context, t *tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

func tracerFrom(ctx context.Context) *tracer {
	t, _ := ctx.Value(tracerKey{}).(*tracer)
	return t
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Overlapping children (parallel
// shard calls) count once; a child running past its parent's end (a
// cancelled hedge) is clipped.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End > s.Start {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		iv := kids[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.Start
		for _, k := range iv {
			lo, hi := max(k[0], edge), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// agg sums the spans of one name.
type agg struct {
	N    int64 `json:"n"`
	Ns   int64 `json:"total_ns"`
	Self int64 `json:"self_ns"`
	Qty  int64 `json:"qty"`
}

func (a agg) meanUs() float64 { return ratio(float64(a.Ns)/1e3, float64(a.N)) }

func aggregate(into map[string]agg, spans []span) {
	self := selfTimes(spans)
	for i, s := range spans {
		a := into[s.Name]
		a.N++
		a.Ns += s.End - s.Start
		a.Self += self[i]
		a.Qty += s.Qty
		into[s.Name] = a
	}
}

// traceFileSpans bounds the spans written per client: the file is for
// reading single ops, the totals cover the rest.
const traceFileSpans = 5000

type traceClient struct {
	Client int    `json:"client"`
	Total  int    `json:"spans_total"`
	Spans  []span `json:"spans"`
}

type traceFile struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Totals   map[string]agg `json:"totals"`
	Clients  []traceClient  `json:"clients"`
}

func writeTrace(path string, tf traceFile) error {
	for i := range tf.Clients {
		if len(tf.Clients[i].Spans) > traceFileSpans {
			tf.Clients[i].Spans = tf.Clients[i].Spans[:traceFileSpans]
		}
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
