// Package faultpoint is the fault-injection seam of the runtime:
// named points placed on the failure-prone paths (module resolver
// loads, index builds, PUL apply, session dispatch) that tests and CI
// arm with deterministic triggers. Production code calls Hit(name) at
// each point; with no point enabled that is one atomic load and the
// call is free. A chaos suite arms points with count-based or seeded
// triggers and asserts the degradation machinery (rollback, retry,
// quarantine, index fallback) actually engages.
//
// The package is process-global on purpose — the points are sprinkled
// through packages that must not grow test-only plumbing — so tests
// that enable points must not run in parallel with each other and must
// Reset (or defer Disable) before returning. Everything is safe for
// concurrent Hit calls; Enable/Disable/Reset serialise on a mutex.
package faultpoint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// The named fault points threaded through the runtime. Constants so
// that chaos tests and the points themselves cannot drift apart.
const (
	// PointResolverLoad fires inside each module-resolver load attempt
	// (runtime.Compile's import loop), before the user resolver runs.
	PointResolverLoad = "resolver.load"
	// PointIndexBuild fires where a probe of the path index would
	// build it (dom.Index.Probe); a fault makes the probe report "no
	// index" so evaluation falls back to scanning.
	PointIndexBuild = "index.build"
	// PointUpdateApply fires before each pending-update primitive is
	// applied, mid-PUL — the trigger for rollback testing.
	PointUpdateApply = "update.apply"
	// PointServeDispatch fires at the top of each serve.Session turn.
	PointServeDispatch = "serve.dispatch"
	// PointStoreFsync fires inside wal.Writer.Append, before a commit's
	// redo record reaches the log file; a fault leaves a deliberately
	// torn frame behind (the damage a mid-commit crash produces) and
	// fails the commit.
	PointStoreFsync = "store.fsync"
	// PointStoreReplay fires before each redo record is re-applied
	// during store recovery (xmldb.Open's snapshot load and log
	// replay); a fault aborts the open.
	PointStoreReplay = "store.replay"
	// PointFTIndexBuild fires where a probe of the full-text index
	// would build it (dom.Index.Probe); a fault makes the probe report
	// "no index" so ftcontains falls back to scanning.
	PointFTIndexBuild = "ftindex.build"
	// PointFedCall fires before each federation sub-request attempt
	// (one hit per HTTP attempt, hedges and retries included); a fault
	// fails the attempt like a transport error, so it drives breakers
	// and the retry machinery.
	PointFedCall = "fed.call"
	// PointFedMerge fires on every step of the federation k-way result
	// merge; a fault surfaces as a typed mid-stream error to the
	// consumer.
	PointFedMerge = "fed.merge"
	// PointFedHedge fires when a hedge timer elapses, before the
	// hedged attempt launches; a fault suppresses the hedge (the
	// primary attempt keeps running alone).
	PointFedHedge = "fed.hedge"
)

// ErrInjected is the default error a fired point returns; every
// injected error wraps it so tests can errors.Is for it at any layer.
var ErrInjected = errors.New("faultpoint: injected fault")

// Trigger decides, per hit, whether the point fires. Implementations
// must be safe for concurrent calls.
type Trigger interface {
	fire() bool
}

// enabled is the fast-path gate: the number of currently enabled
// points. Hit loads it once and returns immediately when zero, so the
// instrumented hot paths cost one atomic load in production.
var enabled atomic.Int64

var (
	mu     sync.Mutex
	points = map[string]*point{}
)

type point struct {
	trig   Trigger
	err    error
	panics bool
	hitsN  atomic.Int64 // times Hit reached this point
	firesN atomic.Int64 // times the trigger fired
}

// Option configures an enabled point.
type Option func(*point)

// WithError sets the error a fired point returns. It is wrapped so
// errors.Is(err, ErrInjected) still holds.
func WithError(err error) Option {
	return func(p *point) { p.err = fmt.Errorf("%w: %w", ErrInjected, err) }
}

// WithPanic makes a fired point panic with ErrInjected instead of
// returning it — the trigger for testing panic-isolation boundaries.
func WithPanic() Option {
	return func(p *point) { p.panics = true }
}

// Enable arms a named point with a trigger. Re-enabling replaces the
// previous trigger and resets the point's counters.
func Enable(name string, t Trigger, opts ...Option) {
	mu.Lock()
	defer mu.Unlock()
	p := &point{trig: t, err: fmt.Errorf("%w at %s", ErrInjected, name)}
	for _, o := range opts {
		o(p)
	}
	if _, ok := points[name]; !ok {
		enabled.Add(1)
	}
	points[name] = p
}

// Disable disarms one point. Disabling a point that is not enabled is
// a no-op.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		enabled.Add(-1)
	}
}

// Reset disarms every point. Chaos tests defer this so a failed
// subtest cannot leak an armed point into the rest of the suite.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	enabled.Add(-int64(len(points)))
	points = map[string]*point{}
}

// Stats reports how often an enabled point was reached and how often
// it fired. Zeros when the point is not enabled.
func Stats(name string) (hits, fires int64) {
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return 0, 0
	}
	return p.hitsN.Load(), p.firesN.Load()
}

// Hit is the instrumentation call on production paths: it returns nil
// unless the named point is enabled and its trigger fires, in which
// case it returns the configured error (or panics, for WithPanic
// points). The disabled-path cost is one atomic load.
func Hit(name string) error {
	if enabled.Load() == 0 {
		return nil
	}
	mu.Lock()
	p := points[name]
	mu.Unlock()
	if p == nil {
		return nil
	}
	p.hitsN.Add(1)
	if !p.trig.fire() {
		return nil
	}
	p.firesN.Add(1)
	if p.panics {
		panic(p.err)
	}
	return p.err
}

// Always fires on every hit.
func Always() Trigger { return triggerFunc(func() bool { return true }) }

// Nth fires on exactly the n-th hit (1-based) and never again.
func Nth(n int64) Trigger {
	var c atomic.Int64
	return triggerFunc(func() bool { return c.Add(1) == n })
}

// After fires on every hit after the first n.
func After(n int64) Trigger {
	var c atomic.Int64
	return triggerFunc(func() bool { return c.Add(1) > n })
}

// Seeded fires pseudo-randomly at the given rate (0..1), deterministic
// for a fixed seed and hit sequence — splitmix64 over the hit counter,
// so runs replay exactly.
func Seeded(seed uint64, rate float64) Trigger {
	var c atomic.Uint64
	return triggerFunc(func() bool {
		x := seed + c.Add(1)*0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return float64(x>>11)/float64(1<<53) < rate
	})
}

type triggerFunc func() bool

func (f triggerFunc) fire() bool { return f() }
