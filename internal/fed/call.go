package fed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/rest"
	"repro/internal/xdm"
)

// latWindow tracks the last windowSize successful-attempt latencies of
// one endpoint; its p95 sets the adaptive hedge delay — hedge only
// when the primary is slower than its own recent tail, not on every
// call.
const latWindowSize = 64

type latWindow struct {
	mu  sync.Mutex
	buf [latWindowSize]time.Duration
	i   int
	n   int
}

func (w *latWindow) record(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.i] = d
	w.i = (w.i + 1) % latWindowSize
	if w.n < latWindowSize {
		w.n++
	}
}

// p95 returns the window's 95th-percentile latency (0 while empty),
// sorting a copy on the stack: it runs once per hedged sub-request.
func (w *latWindow) p95() time.Duration {
	var c [latWindowSize]time.Duration
	w.mu.Lock()
	n := copy(c[:], w.buf[:w.n])
	w.mu.Unlock()
	if n == 0 {
		return 0
	}
	slices.Sort(c[:n])
	return c[max((n*95+99)/100-1, 0)]
}

func (x *Executor) breakerFor(ep string) *breaker {
	x.mu.Lock()
	defer x.mu.Unlock()
	b, ok := x.breakers[ep]
	if !ok {
		b = newBreaker(x.cfg.BreakerThreshold, x.cfg.BreakerCooldown, nil)
		x.breakers[ep] = b
	}
	return b
}

func (x *Executor) latFor(ep string) *latWindow {
	x.mu.Lock()
	defer x.mu.Unlock()
	w, ok := x.lats[ep]
	if !ok {
		w = &latWindow{}
		x.lats[ep] = w
	}
	return w
}

// hedgeDelayFor picks the hedge delay for a primary endpoint: the
// configured fixed delay, or the endpoint's tracked p95 (bounded below
// by HedgeMin) when adaptive, or a conservative default while the
// window is still empty.
func (x *Executor) hedgeDelayFor(ep string) time.Duration {
	if x.cfg.HedgeDelay > 0 {
		return x.cfg.HedgeDelay
	}
	d := x.latFor(ep).p95()
	if d == 0 {
		d = DefaultHedgeDelay
	}
	if min := x.cfg.HedgeMin; d < min {
		d = min
	}
	return d
}

// keyedItem is one decoded result item with its URI merge key ("" for
// non-document items).
type keyedItem struct {
	key  string
	item xdm.Item
}

// decodeItems is the decode step of a call that answers items: each
// keyed by the document URI it was encoded with.
func decodeItems(body string) ([]keyedItem, error) {
	seq, keys, err := rest.DecodeSequenceKeyed(body)
	if err != nil {
		return nil, err
	}
	items := make([]keyedItem, len(seq))
	for i, it := range seq {
		items[i] = keyedItem{key: keys[i], item: it}
	}
	return items, nil
}

// decodeRuns is the decode step of shard:map, which answers runs
// (document URI, n, v₁ … vₙ)*: it expands them into the n values, each
// keyed by its document's URI. A run that does not add up — or carries
// a node where only atomic values travel — is a malformed payload like
// any other.
func decodeRuns(body string) ([]keyedItem, error) {
	seq, err := rest.DecodeSequence(body)
	if err != nil {
		return nil, err
	}
	items := make([]keyedItem, 0, len(seq))
	for len(seq) > 0 {
		if len(seq) < 2 {
			return nil, fmt.Errorf("%w: torn run header", rest.ErrMalformedPayload)
		}
		uri, isString := seq[0].(xdm.String)
		n, isInt := seq[1].(xdm.Integer)
		if !isString || !isInt || n < 0 || int64(n) > int64(len(seq)-2) {
			return nil, fmt.Errorf("%w: torn run of %s", rest.ErrMalformedPayload, seq[0])
		}
		for _, v := range seq[2 : 2+n] {
			if _, isNode := xdm.IsNode(v); isNode {
				return nil, fmt.Errorf("%w: a node in the run of %s", rest.ErrMalformedPayload, uri)
			}
			items = append(items, keyedItem{key: string(uri), item: v})
		}
		seq = seq[2+n:]
	}
	return items, nil
}

// doCall issues one HTTP sub-request under a per-attempt timeout and
// decodes the answer with the call's decode step. Decoding happens
// here, inside the attempt, so a torn payload classifies as a transient
// attempt failure the retry and hedging machinery can act on.
func (x *Executor) doCall(ctx context.Context, ep string, c subCall) ([]keyedItem, error) {
	if err := faultpoint.Hit(faultpoint.PointFedCall); err != nil {
		return nil, err
	}
	if x.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, x.cfg.AttemptTimeout)
		defer cancel()
	}
	callURL := strings.TrimSuffix(ep, "/") + "/call/" + c.fn
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, callURL, strings.NewReader(c.argsXML))
	if err != nil {
		return nil, fmt.Errorf("fed: %s: %w", callURL, err)
	}
	req.Header.Set("Content-Type", "application/xml")
	cCalls.Add(1)
	resp, err := x.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := rest.ReadLimited(callURL, resp.Body, x.cfg.MaxBody)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &rest.StatusError{URL: callURL, Status: resp.StatusCode, Msg: strings.TrimSpace(string(body))}
	}
	return c.decode(string(body))
}

type attemptResult struct {
	idx    int // candidate index within the round
	hedged bool
	items  []keyedItem
	err    error
}

// attempt runs one sub-request in its own goroutine, records the
// outcome on the endpoint's breaker, and delivers the result on a
// buffered channel. The breaker bookkeeping lives here — not in the
// round's receive loop — so every Allow()==true reservation resolves
// even when the round returns early on a sibling's success.
func (x *Executor) attempt(rctx context.Context, ep string, idx int, hedged bool, c subCall, out chan<- attemptResult) {
	start := time.Now()
	items, err := x.doCall(rctx, ep, c)
	br := x.breakerFor(ep)
	switch {
	case err == nil:
		br.Record(outcomeOK)
		x.latFor(ep).record(time.Since(start))
	case rctx.Err() != nil:
		// The round is over (a sibling won, or the caller cancelled);
		// this attempt's failure says nothing about the backend.
		br.Record(outcomeNeutral)
	case rest.Retryable(err) || errors.Is(err, context.DeadlineExceeded):
		// Transport failure, retryable status, torn payload, or our
		// per-attempt deadline on a hung backend.
		br.Record(outcomeFail)
	default:
		// Terminal caller-side errors (4xx): the backend answered
		// correctly; do not count against its health.
		br.Record(outcomeNeutral)
	}
	out <- attemptResult{idx: idx, hedged: hedged, items: items, err: err}
}

// round runs one logical attempt against a shard's replica group:
// primary pick through the breakers, hedged second attempt when the
// primary outlives its p95, immediate failover to the next replica on
// failure, first success wins and cancels the losers.
func (x *Executor) round(ctx context.Context, shard int, eps []string, c subCall) ([]keyedItem, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the replica count: attempt goroutines can always
	// deliver and exit, even after the round has returned.
	results := make(chan attemptResult, len(eps))
	maxAttempts := len(eps)
	if !c.idempotent {
		// A call with effects must not race two executions: one
		// replica, no hedge, no failover.
		maxAttempts = 1
	}
	next := 0     // next replica to consider for launch
	launched := 0 // attempts launched (in flight or finished)
	// launch admits replicas through their breakers at launch time —
	// never earlier — so every Allow()==true reservation is resolved
	// by exactly one Record inside attempt, even when the round ends
	// before reaching a replica. Open breakers are skipped without
	// burning any of the round's budget. Returns the launched endpoint
	// ("" when every remaining replica is rejected or the attempt
	// budget is spent).
	launch := func(hedged bool) string {
		for next < len(eps) && launched < maxAttempts {
			ep := eps[next]
			next++
			if !x.breakerFor(ep).Allow() {
				cBreakerSkips.Add(1)
				continue
			}
			go x.attempt(rctx, ep, launched, hedged, c, results)
			launched++
			return ep
		}
		return ""
	}
	primary := launch(false)
	if primary == "" {
		return nil, fmt.Errorf("%w: every replica of shard %d has an open circuit breaker", ErrBackendDown, shard)
	}

	var hedgeC <-chan time.Time
	if !x.cfg.DisableHedge && c.idempotent && len(eps) > 1 {
		t := time.NewTimer(x.hedgeDelayFor(primary))
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	done := 0
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if next < len(eps) && launched < maxAttempts && faultpoint.Hit(faultpoint.PointFedHedge) == nil {
				if launch(true) != "" {
					cHedges.Add(1)
				}
			}
		case r := <-results:
			done++
			if r.err == nil {
				if r.hedged {
					cHedgeWins.Add(1)
				}
				return r.items, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			// Failover: the failed attempt frees budget for the next
			// replica immediately, no timer needed. When no further
			// replica is admitted and every in-flight attempt has
			// resolved, the round is over.
			if launch(false) == "" && done == launched {
				return nil, firstErr
			}
		}
	}
}

// callShard evaluates one shard's sub-request with jittered
// exponential backoff across rounds. Only idempotent calls retry;
// non-idempotent module calls get exactly one attempt against one
// replica (round disables hedging and failover for them too).
func (x *Executor) callShard(ctx context.Context, shard int, eps []string, c subCall) ([]keyedItem, error) {
	retries := x.cfg.MaxRetries
	if !c.idempotent {
		retries = 0
	}
	var err error
	for attempt := 0; ; attempt++ {
		var items []keyedItem
		items, err = x.round(ctx, shard, eps, c)
		if err == nil {
			return items, nil
		}
		if attempt >= retries || !x.transient(ctx, err) {
			return nil, err
		}
		cRetries.Add(1)
		if !sleepCtx(ctx, backoff(x.cfg.RetryBase, attempt)) {
			return nil, ctx.Err()
		}
	}
}

// transient reports whether a round error is worth a backoff-retry:
// retryable transport/status failures and per-attempt timeouts are;
// caller cancellation, terminal statuses and all-breakers-open are not
// (an open breaker already encodes "do not spend budget here").
func (x *Executor) transient(ctx context.Context, err error) bool {
	if ctx.Err() != nil || errors.Is(err, ErrBackendDown) {
		return false
	}
	return rest.Retryable(err) || errors.Is(err, context.DeadlineExceeded)
}

// backoff returns the jittered exponential delay before retry n
// (0-based): base*2^n, halved and re-filled with uniform jitter so
// synchronized clients decorrelate.
func backoff(base time.Duration, n int) time.Duration {
	if base <= 0 {
		base = DefaultRetryBase
	}
	// Double iteratively, stopping at the cap, so a large retry count
	// cannot shift the duration into overflow.
	const max = 2 * time.Second
	d := base
	for i := 0; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// sleepCtx sleeps d unless ctx ends first; it reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
