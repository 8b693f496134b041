package xquery

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/xqerr"
	"repro/internal/xquery/analysis"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// CacheStats is a point-in-time snapshot of cache activity. All
// counters are cumulative since the cache was created.
type CacheStats struct {
	// Compiles counts real compilations performed (program-level
	// misses). Binding a cached program to another engine is not one.
	Compiles int64 `json:"compiles"`
	// Parses counts real parses performed (module-level misses).
	Parses int64 `json:"parses"`
	// ProgramHits counts lookups served a ready compiled program.
	ProgramHits int64 `json:"program_hits"`
	// ModuleHits counts compilations that skipped parsing because the
	// parsed module was shared (an engine of a different shape compiled
	// the same source earlier, or the program was evicted and the module
	// was not).
	ModuleHits int64 `json:"module_hits"`
	// Coalesced counts lookups that joined an in-flight compilation of
	// the same key instead of duplicating it (singleflight).
	Coalesced int64 `json:"coalesced"`
	// Evictions counts LRU evictions across both levels.
	Evictions int64 `json:"evictions"`
	// Quarantined counts lookups refused because the program crashed
	// (panicked) QuarantineThreshold times in a row through this cache.
	Quarantined int64 `json:"quarantined"`
}

// QuarantineThreshold is the number of consecutive internal errors
// (recovered panics, matching xqerr.ErrInternal) after which
// Cache.EvalQuery refuses a program outright. Any other outcome —
// success, a normal query error, even a budget overrun — resets the
// streak: quarantine is for programs that reliably crash the
// evaluator, not ones that merely fail.
const QuarantineThreshold = 3

// ErrQuarantined matches (via errors.Is) lookups refused because the
// program is quarantined.
var ErrQuarantined = errors.New("xquery: program quarantined")

// Cache is a shared compiled-program cache: repeated queries skip
// parse/compile entirely, and concurrent first requests for the same
// key are deduplicated singleflight-style. It is safe for concurrent
// use by any number of goroutines and engines.
//
// What is cached is the host-independent part of a compilation (the
// planned and optimized module and its compiled functions); Compile hands
// it out bound to the engine that asked, and the binding — the
// engine's own host functions, its imports, its document resolvers —
// is never cached. Keying has two levels:
//
//   - compiled programs are keyed on (engine fingerprint, source), the
//     fingerprint being the engine's shape: every engine of one
//     application has the same one, so the sessions of a page compile
//     its scripts once between them, and one engine serving many
//     requests hits as before;
//   - parsed modules are keyed on source alone — parsing is independent
//     of the static context — so engines of different shapes compiling
//     the same source still share the parse.
type Cache struct {
	mu       sync.Mutex
	capacity int
	programs level[progKey, *progEntry]
	modules  level[string, *ast.Module]

	// panicStreak tracks consecutive internal errors per program key;
	// reaching QuarantineThreshold quarantines the key until any
	// non-internal outcome (never, unless the program is re-admitted by
	// a cache restart). Guarded by mu; bounded at capacity entries.
	panicStreak map[progKey]int

	compiles    atomic.Int64
	parses      atomic.Int64
	progHits    atomic.Int64
	modHits     atomic.Int64
	coalesced   atomic.Int64
	evictions   atomic.Int64
	quarantined atomic.Int64
}

// progKey identifies a compiled program: a comparable struct, so a
// lookup hashes the source in place instead of copying a multi-KB page
// script into a concatenated key.
type progKey struct {
	shape uint64 // Engine.Fingerprint
	src   string
}

// progEntry is one cached compilation.
type progEntry struct {
	shared *sharedProgram

	// Static-analysis results, filled lazily on the first Strict access
	// to this entry: the analysis is a pure function of (engine shape,
	// module), so it is computed at most once per cached program. The
	// stored diagnostics exclude budget warnings (those depend on the
	// per-run MaxSteps and derive from est). Guarded by Cache.mu.
	analyzed bool
	diags    []analysis.Diagnostic
	est      int64

	// perDocument records that the program passed the per-document
	// admission check (see EvalPerDocument). Guarded by Cache.mu.
	perDocument bool
}

// level is one LRU-bounded, singleflight-filled map of the cache;
// Cache.mu guards all of it.
type level[K comparable, V any] struct {
	idx     map[K]*list.Element // → *item[K, V]
	lru     *list.List
	flights map[K]*flight[V]
}

type item[K comparable, V any] struct {
	key K
	val V
}

// flight is one in-progress build shared by concurrent callers.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newLevel[K comparable, V any]() level[K, V] {
	return level[K, V]{idx: map[K]*list.Element{}, lru: list.New(), flights: map[K]*flight[V]{}}
}

// load returns the value cached under key, building and caching it on
// a miss. A hit counts in hits; a caller that joins another's build of
// the same key counts in Coalesced. Errors are not cached.
func load[K comparable, V any](c *Cache, l *level[K, V], key K, hits *atomic.Int64, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if el, ok := l.idx[key]; ok {
		l.lru.MoveToFront(el)
		val := el.Value.(*item[K, V]).val
		c.mu.Unlock()
		hits.Add(1)
		return val, nil
	}
	if f, ok := l.flights[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	l.flights[key] = f
	c.mu.Unlock()

	f.val, f.err = build()
	c.mu.Lock()
	delete(l.flights, key)
	if f.err == nil {
		l.idx[key] = l.lru.PushFront(&item[K, V]{key: key, val: f.val})
		for l.lru.Len() > c.capacity {
			el := l.lru.Back()
			l.lru.Remove(el)
			delete(l.idx, el.Value.(*item[K, V]).key)
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// DefaultCacheCapacity bounds each cache level when NewCache is given a
// non-positive capacity.
const DefaultCacheCapacity = 256

// NewCache creates a cache holding up to capacity compiled programs
// (and as many parsed modules). capacity <= 0 uses
// DefaultCacheCapacity.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity:    capacity,
		programs:    newLevel[progKey, *progEntry](),
		modules:     newLevel[string, *ast.Module](),
		panicStreak: map[progKey]int{},
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Compiles:    c.compiles.Load(),
		Parses:      c.parses.Load(),
		ProgramHits: c.progHits.Load(),
		ModuleHits:  c.modHits.Load(),
		Coalesced:   c.coalesced.Load(),
		Evictions:   c.evictions.Load(),
		Quarantined: c.quarantined.Load(),
	}
}

// checkQuarantine refuses keys whose panic streak crossed the
// threshold.
func (c *Cache) checkQuarantine(key progKey) error {
	c.mu.Lock()
	streak := c.panicStreak[key]
	c.mu.Unlock()
	if streak >= QuarantineThreshold {
		c.quarantined.Add(1)
		return fmt.Errorf("%w after %d consecutive internal errors", ErrQuarantined, streak)
	}
	return nil
}

// noteOutcome updates a key's panic streak from a run outcome: an
// internal error (recovered panic) extends the streak, anything else
// clears it.
func (c *Cache) noteOutcome(key progKey, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil && errors.Is(err, xqerr.ErrInternal) {
		if len(c.panicStreak) >= c.capacity {
			// Bound the bookkeeping like the cache itself: drop an
			// arbitrary streak rather than grow without limit.
			for k := range c.panicStreak {
				delete(c.panicStreak, k)
				break
			}
		}
		c.panicStreak[key]++
		return
	}
	delete(c.panicStreak, key)
}

// Len returns the number of resident compiled programs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.programs.lru.Len()
}

// Compile returns the compiled program for src bound to engine e,
// consulting and populating the cache: the compilation is shared with
// every engine of e's shape, the binding is e's own, made on e's first
// lookup of the program (imports resolve then, once) and kept by e, so
// a warm hit allocates nothing. Errors are not
// cached: a failing source is recompiled (and its error returned) on
// every call, though concurrent callers of the same failing key share
// one attempt. What can fail per engine — a module import, an external
// function without implementation — fails the binding, not the entry.
func (c *Cache) Compile(e *Engine, src string) (*Program, error) {
	ent, err := c.entry(e, progKey{e.Fingerprint(), src})
	if err != nil {
		return nil, err
	}
	return e.bindCached(ent.shared)
}

// entry returns the cached compilation under key, compiling on e on a
// miss: fetch or parse the module, then compile it.
func (c *Cache) entry(e *Engine, key progKey) (*progEntry, error) {
	return load(c, &c.programs, key, &c.progHits, func() (*progEntry, error) {
		m, err := c.parse(key.src)
		if err != nil {
			return nil, err
		}
		c.compiles.Add(1)
		return &progEntry{shared: e.compileShared(m)}, nil
	})
}

// parse returns the parsed module for src, sharing parses across
// engines (module-level singleflight + LRU).
func (c *Cache) parse(src string) (*ast.Module, error) {
	return load(c, &c.modules, src, &c.modHits, func() (*ast.Module, error) {
		c.parses.Add(1)
		return parser.ParseModule(src)
	})
}

// CompileStrict is Compile gated by the static analyzer: programs with
// error-severity diagnostics are rejected with an *AnalysisError and —
// on the miss path — never admitted to the program cache (the parsed
// module is still shared, so repeated strict attempts reparse nothing).
// On success the analysis result (warnings + step estimate) is returned
// alongside the program and memoised with the cache entry.
func (c *Cache) CompileStrict(e *Engine, src string) (*Program, *analysis.Result, error) {
	key := progKey{e.Fingerprint(), src}

	c.mu.Lock()
	_, cached := c.programs.idx[key]
	c.mu.Unlock()
	var fresh *analysis.Result
	if !cached {
		// Analyze before compiling, so a rejected program never enters
		// the program cache.
		m, err := c.parse(src)
		if err != nil {
			return nil, nil, err
		}
		if fresh = e.AnalyzeModule(m); fresh.HasErrors() {
			return nil, fresh, &AnalysisError{Diagnostics: fresh.Diagnostics}
		}
	}
	ent, err := c.entry(e, key)
	if err != nil {
		return nil, fresh, err
	}
	c.mu.Lock()
	if fresh != nil && !ent.analyzed {
		ent.analyzed, ent.diags, ent.est = true, fresh.Diagnostics, fresh.EstimatedSteps
	}
	analyzed, diags, est := ent.analyzed, ent.diags, ent.est
	c.mu.Unlock()
	if !analyzed {
		// The entry came in through the non-strict path. Analyze outside
		// the lock; concurrent first strict accesses may duplicate the
		// work but converge on the same result.
		late := e.AnalyzeModule(ent.shared.mod)
		diags, est = late.Diagnostics, late.EstimatedSteps
		c.mu.Lock()
		ent.analyzed, ent.diags, ent.est = true, diags, est
		c.mu.Unlock()
	}
	res := &analysis.Result{Diagnostics: diags, EstimatedSteps: est}
	if res.HasErrors() {
		// The program entered the cache through the non-strict path;
		// strict callers still refuse to run it.
		return nil, res, &AnalysisError{Diagnostics: res.Diagnostics}
	}
	prog, err := e.bindCached(ent.shared)
	if err != nil {
		return nil, res, err
	}
	return prog, res, nil
}

// EvalQuery compiles src through the cache and runs it on engine e —
// the cached counterpart of Engine.EvalQueryContext. cfg.ContextItem,
// budgets, Context and the other run parameters apply per run as usual;
// only the compiled program is shared. With cfg.Strict set the compile
// goes through CompileStrict: statically rejected programs fail with an
// *AnalysisError (and stay out of the program cache), and the memoised
// analysis supplies Result.Diagnostics without re-analyzing per run.
//
// EvalQuery is also the quarantine gate: a program whose last
// QuarantineThreshold runs all ended in recovered panics (errors
// matching xqerr.ErrInternal) is refused up front with an error
// matching ErrQuarantined, so a reliably crashing program stops
// burning evaluation budget. Any non-internal outcome resets its
// streak.
func (c *Cache) EvalQuery(e *Engine, src string, cfg RunConfig) (*Result, error) {
	key := progKey{e.Fingerprint(), src}
	if err := c.checkQuarantine(key); err != nil {
		return nil, err
	}
	if cfg.Strict {
		p, ares, err := c.CompileStrict(e, src)
		if err != nil {
			return nil, err
		}
		runCfg := cfg
		runCfg.Strict = false // analysis already done; don't redo it per run
		res, err := p.Run(runCfg)
		c.noteOutcome(key, err)
		if err != nil {
			return nil, err
		}
		res.Diagnostics = ares.Diagnostics
		if d, ok := analysis.BudgetDiagnostic(ares.EstimatedSteps, cfg.MaxSteps); ok {
			res.Diagnostics = append(append([]Diagnostic(nil), ares.Diagnostics...), d)
		}
		return res, nil
	}
	p, err := c.Compile(e, src)
	if err != nil {
		return nil, err
	}
	res, err := p.Run(cfg)
	c.noteOutcome(key, err)
	return res, err
}
