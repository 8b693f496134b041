package fed

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	stdruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// checkGoroutines waits for the goroutine count to settle back near
// its baseline: a leaked attempt goroutine (blocked on an unbuffered
// send or an uncancelled request) fails this.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := stdruntime.NumGoroutine()
		if n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, n, buf[:stdruntime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// chaosProbe is what the fault matrix evaluates over the federation:
// the collection itself, or a query whose expression is shipped to the
// shards. Both go through the one scatter / hedge / retry / breaker /
// gather path, so both must come out of every fault the same way.
type chaosProbe struct {
	eval    func(x *Executor) (xdm.Sequence, error)
	want    func(t *testing.T, sets []map[string]string) string
	partial []string // what a gather degraded by shard 1 must still show
}

var collectionProbe = chaosProbe{
	eval:    func(x *Executor) (xdm.Sequence, error) { return x.Collection(context.Background(), "/") },
	want:    oracle,
	partial: []string{`<fed:incomplete`, `shards="1"`, `n="00"`, `n="02"`, `n="03"`, `n="09"`},
}

// shippedProbe asks for every document's number and, through the
// second column, for the children of whatever else the collection
// holds — which is how the fed:incomplete element of a degraded gather
// shows in a shipped query's values.
var shippedProbe = chaosProbe{
	eval: func(x *Executor) (xdm.Sequence, error) {
		p, err := xquery.New().Compile(`for $d in fn:collection("/")/* return (string($d/@n), name($d))`)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		before := Snapshot().Shipped
		res, err := p.Run(xquery.RunConfig{
			Collections: x.CollectionSource(ctx),
		})
		if err != nil {
			return nil, err
		}
		if Snapshot().Shipped == before {
			return nil, errors.New("the probe query was not shipped")
		}
		return res.Value, nil
	},
	want: func(t *testing.T, sets []map[string]string) string {
		var b strings.Builder
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&b, "%02d\nd\n", i)
		}
		return b.String()
	},
	partial: []string{"00\nd\n02\nd\n03\nd\n04\nd\n", "09\nd\n\nfed:shard\n"},
}

// TestChaosFederationMatrix drives the scatter-gather pipeline through
// the fault matrix: for every fault and both degradation policies the
// result must be byte-identical to the oracle or a typed error —
// never a hang, panic, or goroutine leak.
func TestChaosFederationMatrix(t *testing.T) { chaosMatrix(t, collectionProbe) }

// TestChaosShippedMatrix is the same matrix over a query whose
// expression travels to the shards (Executor.Ship).
func TestChaosShippedMatrix(t *testing.T) { chaosMatrix(t, shippedProbe) }

func chaosMatrix(t *testing.T, probe chaosProbe) {
	defer faultpoint.Reset()
	sets := shardDocs()
	want := probe.want(t, sets)

	// build starts a fresh 4-shard federation; shard 1 gets the
	// fault middleware, which also receives a stop channel. closeAll
	// closes stop before the servers: a middleware simulating a hung
	// backend must select on it, because the server side cannot be
	// relied on to cancel r.Context() for an aborted request whose
	// body was never read — without the explicit release,
	// httptest.Server.Close can wait on that handler forever. The
	// servers close before the goroutine-leak check (their accept
	// loops and keep-alive connections would otherwise count as
	// leaks).
	build := func(t *testing.T, mw func(stop <-chan struct{}, h http.Handler) http.Handler, cfg Config) (*Executor, func()) {
		stop := make(chan struct{})
		var shards [][]string
		var servers []*httptest.Server
		for i, s := range sets {
			var m func(http.Handler) http.Handler
			if i == 1 && mw != nil {
				m = func(h http.Handler) http.Handler { return mw(stop, h) }
			}
			ts := startShard(t, s, m)
			servers = append(servers, ts)
			shards = append(shards, []string{ts.URL})
		}
		cfg.Shards = shards
		return newFed(t, cfg), func() {
			close(stop)
			for _, ts := range servers {
				ts.Close()
			}
		}
	}

	// run evaluates the federated collection and classifies the
	// outcome.
	run := func(t *testing.T, x *Executor) (string, error) {
		t.Helper()
		donech := make(chan struct{})
		var seq xdm.Sequence
		var err error
		go func() {
			defer close(donech)
			seq, err = probe.eval(x)
		}()
		select {
		case <-donech:
		case <-time.After(15 * time.Second):
			t.Fatal("federated collection hung")
		}
		if err != nil {
			return "", err
		}
		return flatten(t, seq), nil
	}

	type matrixCase struct {
		name  string
		mw    func(stop <-chan struct{}, h http.Handler) http.Handler
		arm   func() // faultpoint arming, nil for HTTP-level faults
		cfg   Config
		heals bool // the fault clears within the retry budget
	}
	var calls atomic.Int64
	cases := []matrixCase{
		{
			name: "flaky-nth-call-heals",
			mw: func(_ <-chan struct{}, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if calls.Add(1) <= 2 {
						http.Error(w, "flaky", http.StatusInternalServerError)
						return
					}
					h.ServeHTTP(w, r)
				})
			},
			cfg:   Config{RetryBase: time.Millisecond, DisableHedge: true},
			heals: true,
		},
		{
			name: "torn-payload-heals",
			mw: func(_ <-chan struct{}, h http.Handler) http.Handler {
				var torn atomic.Bool
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if torn.CompareAndSwap(false, true) {
						// 200 with a truncated body: decode must
						// classify it transient and retry.
						fmt.Fprint(w, `<result><item kind="node" uri="doc-0`)
						return
					}
					h.ServeHTTP(w, r)
				})
			},
			cfg:   Config{RetryBase: time.Millisecond, DisableHedge: true},
			heals: true,
		},
		{
			name: "hung-until-cancel",
			mw: func(stop <-chan struct{}, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					select {
					case <-r.Context().Done():
					case <-stop:
					}
				})
			},
			cfg: Config{AttemptTimeout: 50 * time.Millisecond, MaxRetries: -1, DisableHedge: true},
		},
		{
			name:  "faultpoint-fed-call-heals",
			arm:   func() { faultpoint.Enable(faultpoint.PointFedCall, faultpoint.Nth(1)) },
			cfg:   Config{RetryBase: time.Millisecond, DisableHedge: true},
			heals: true,
		},
		{
			name: "faultpoint-fed-call-persistent",
			arm:  func() { faultpoint.Enable(faultpoint.PointFedCall, faultpoint.Always()) },
			cfg:  Config{RetryBase: time.Millisecond, MaxRetries: 1, DisableHedge: true},
		},
	}

	for _, tc := range cases {
		for _, partial := range []bool{false, true} {
			name := fmt.Sprintf("%s/partial=%v", tc.name, partial)
			t.Run(name, func(t *testing.T) {
				calls.Store(0)
				faultpoint.Reset()
				if tc.arm != nil {
					tc.arm()
				}
				defer faultpoint.Reset()
				before := stdruntime.NumGoroutine()
				cfg := tc.cfg
				cfg.PartialResults = partial
				x, closeAll := build(t, tc.mw, cfg)
				got, err := run(t, x)
				switch {
				case tc.heals:
					// The retry machinery must fully heal the fault:
					// byte-identical to the oracle under either policy.
					if err != nil {
						t.Fatalf("want healed result, got error %v", err)
					}
					if got != want {
						t.Errorf("result differs from oracle:\ngot:\n%s\nwant:\n%s", got, want)
					}
				case tc.arm != nil && !partial:
					// A persistent injected fault on every shard:
					// typed, and traceable to the injection.
					if !errors.Is(err, ErrBackendDown) || !errors.Is(err, faultpoint.ErrInjected) {
						t.Fatalf("want ErrBackendDown wrapping ErrInjected, got %v", err)
					}
				case tc.arm != nil && partial:
					// Every shard failed: partial cannot degrade
					// further, still a typed error.
					if !errors.Is(err, ErrBackendDown) {
						t.Fatalf("want ErrBackendDown, got %v", err)
					}
				case !partial:
					if !errors.Is(err, ErrBackendDown) {
						t.Fatalf("want typed ErrBackendDown, got %v (result %q)", err, got)
					}
				default:
					// One faulty shard under PartialResults: the three
					// healthy shards' documents plus the diagnostic.
					if err != nil {
						t.Fatalf("partial policy must degrade, not fail: %v", err)
					}
					for _, part := range probe.partial {
						if !strings.Contains(got, part) {
							t.Errorf("partial result lacks %q (the healthy shards' share and the diagnostic for shard 1):\n%s", part, got)
						}
					}
				}
				closeAll()
				checkGoroutines(t, before)
			})
		}
	}
}

// TestChaosMergeFaultSurfacesTyped: a fault at the merge point must
// surface as a typed mid-stream error from the iterator, not corrupt
// the stream.
func TestChaosMergeFaultSurfacesTyped(t *testing.T) {
	defer faultpoint.Reset()
	sets := shardDocs()
	var shards [][]string
	for _, s := range sets {
		shards = append(shards, []string{startShard(t, s, nil).URL})
	}
	x := newFed(t, Config{Shards: shards})
	faultpoint.Enable(faultpoint.PointFedMerge, faultpoint.Nth(3))
	it, err := x.CollectionIter(context.Background(), "/")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		_, ok, err := it.Next()
		if err != nil {
			if !errors.Is(err, faultpoint.ErrInjected) {
				t.Fatalf("want injected merge error, got %v", err)
			}
			if n != 2 {
				t.Errorf("error after %d items, want 2", n)
			}
			return
		}
		if !ok {
			t.Fatal("stream ended without the armed merge fault firing")
		}
		n++
	}
}

// TestChaosHedgeSuppressedByFaultpoint: arming fed.hedge suppresses
// the hedge — the primary must still answer (slowly) and the result
// stay correct.
func TestChaosHedgeSuppressedByFaultpoint(t *testing.T) {
	defer faultpoint.Reset()
	ResetStats()
	docs := map[string]string{"doc-a": `<d/>`}
	stall := 80 * time.Millisecond
	slow := startShard(t, docs, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-time.After(stall):
			case <-r.Context().Done():
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	fast := startShard(t, docs, nil)
	x := newFed(t, Config{
		Shards:     [][]string{{slow.URL, fast.URL}},
		HedgeDelay: 5 * time.Millisecond,
	})
	faultpoint.Enable(faultpoint.PointFedHedge, faultpoint.Always())
	start := time.Now()
	seq, err := x.Collection(context.Background(), "/")
	if err != nil || len(seq) != 1 {
		t.Fatalf("suppressed hedge: got %d items, err %v", len(seq), err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Errorf("call finished in %v, but with the hedge suppressed it must wait out the %v stall", elapsed, stall)
	}
	if s := Snapshot(); s.Hedges != 0 {
		t.Errorf("suppressed hedge still counted: %+v", s)
	}
}

// TestChaosCallerCancellation: cancelling the caller's context aborts
// the scatter promptly with the context error and leaks nothing.
func TestChaosCallerCancellation(t *testing.T) {
	sets := shardDocs()
	// stop releases the hung handlers before the servers close (see
	// the matrix test: context cancellation alone is not a reliable
	// release when the request body was never read).
	stop := make(chan struct{})
	var shards [][]string
	var servers []*httptest.Server
	for _, s := range sets {
		ts := startShard(t, s, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-r.Context().Done():
				case <-stop:
				}
			})
		})
		servers = append(servers, ts)
		shards = append(shards, []string{ts.URL})
	}
	before := stdruntime.NumGoroutine()
	x := newFed(t, Config{Shards: shards, AttemptTimeout: -1, MaxRetries: -1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := x.Collection(ctx, "/")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation did not abort promptly")
	}
	close(stop)
	for _, ts := range servers {
		ts.Close()
	}
	checkGoroutines(t, before)
}
