package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/xmldb"
	"repro/internal/xquery"
)

// Latency buckets for the observability snapshot: upper bounds of the
// first len(bucketBounds) buckets; the last bucket is the overflow.
var bucketBounds = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// BucketLabels names the latency buckets of a LatencyHist, index for
// index.
var BucketLabels = []string{"<100us", "<1ms", "<10ms", "<100ms", "<1s", ">=1s"}

// hist is a lock-free latency histogram.
type hist struct {
	counts [6]atomic.Int64
	total  atomic.Int64
	nanos  atomic.Int64
}

func (h *hist) observe(d time.Duration) {
	i := 0
	for i < len(bucketBounds) && d >= bucketBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.nanos.Add(int64(d))
}

func (h *hist) snapshot() LatencyHist {
	var s LatencyHist
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	s.Count = h.total.Load()
	s.TotalNanos = h.nanos.Load()
	return s
}

// LatencyHist is a snapshot of a latency histogram; Buckets[i] counts
// observations in the bucket named BucketLabels[i].
type LatencyHist struct {
	Count      int64    `json:"count"`
	TotalNanos int64    `json:"total_nanos"`
	Buckets    [6]int64 `json:"buckets"`
}

// Mean returns the average observed latency (0 when empty).
func (l LatencyHist) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return time.Duration(l.TotalNanos / l.Count)
}

// Metrics is the pool's observability snapshot, pollable at any time
// (Pool.Metrics) and JSON-serialisable for dashboards.
type Metrics struct {
	// SessionsActive is the number of sessions currently loaded.
	SessionsActive int64 `json:"sessions_active"`
	// SessionsPeak is the high-water mark of concurrently active
	// sessions.
	SessionsPeak int64 `json:"sessions_peak"`
	// SessionsLoaded counts sessions loaded successfully since start.
	SessionsLoaded int64 `json:"sessions_loaded"`
	// SessionsRejected counts load attempts denied (pool shut down,
	// wait cancelled) or failed.
	SessionsRejected int64 `json:"sessions_rejected"`
	// Events counts per-session event-loop turns (Do/Click/Keyup).
	Events int64 `json:"events"`
	// QueriesRejected counts Pool.Eval calls refused by the static
	// analyzer under Config.Strict (error matching
	// xquery.ErrAnalysisFailed).
	QueriesRejected int64 `json:"queries_rejected"`
	// Loads is the page-load latency histogram.
	Loads LatencyHist `json:"loads"`
	// Queries is the shared-engine query latency histogram
	// (Pool.Eval).
	Queries LatencyHist `json:"queries"`
	// Dispatches is the event-turn latency histogram.
	Dispatches LatencyHist `json:"dispatches"`
	// Cache is the shared program cache's counters.
	Cache xquery.CacheStats `json:"cache"`
	// Index is the per-document path-index layer's counters. They are
	// process-wide (internal/dom/index keeps global atomics), not
	// per-pool: two pools in one process report the same numbers.
	Index IndexStats `json:"index"`
	// FullText is the per-document full-text-index layer's counters
	// (process-wide, like Index).
	FullText FullTextStats `json:"fulltext"`
	// Failures is the resilience layer's snapshot: every degraded-mode
	// mechanism reports here, so "is the pool absorbing faults" is one
	// poll away.
	Failures FailureStats `json:"failures"`
	// Store is the bound document store's counters (Config.Store); nil
	// when the pool serves without one.
	Store *xmldb.StatsSnapshot `json:"store,omitempty"`
}

// FailureStats aggregates the failure-handling counters. Shed and
// Quarantined are per-pool; PanicsRecovered, Rollbacks and
// ResolverRetries are process-wide (like Index: the underlying layers
// keep global atomics), so two pools in one process report the same
// numbers for those.
type FailureStats struct {
	// PanicsRecovered counts panics recovered into xqerr.ErrInternal
	// errors at any evaluation boundary.
	PanicsRecovered int64 `json:"panics_recovered"`
	// Rollbacks counts pending-update applications that failed mid-way
	// and rolled the documents back.
	Rollbacks int64 `json:"rollbacks"`
	// ResolverRetries counts module-resolver load attempts that were
	// retried after a failure.
	ResolverRetries int64 `json:"resolver_retries"`
	// Shed counts event-loop turns refused with ErrOverloaded under
	// Config.MaxQueue.
	Shed int64 `json:"shed"`
	// Quarantined counts evaluations refused because the program
	// crashed xquery.QuarantineThreshold times in a row (mirrors
	// Cache.Quarantined).
	Quarantined int64 `json:"quarantined"`
	// FedRetries, FedHedges, FedBreakerOpens, FedBreakerSkips and
	// FedPartials mirror the federation layer's process-wide counters
	// (internal/fed): sub-requests retried after transient failures,
	// hedged attempts launched, circuit breakers opened, attempts
	// skipped on open breakers, and gathers degraded to partial
	// results. FedShipped is not a failure but sits with its kin: the
	// scatters that carried a per-document expression to the shards
	// instead of fetching a collection's documents.
	FedRetries      int64 `json:"fed_retries"`
	FedHedges       int64 `json:"fed_hedges"`
	FedBreakerOpens int64 `json:"fed_breaker_opens"`
	FedBreakerSkips int64 `json:"fed_breaker_skips"`
	FedPartials     int64 `json:"fed_partials"`
	FedShipped      int64 `json:"fed_shipped"`
}

// IndexStats mirrors index.Stats with JSON tags: Builds counts index
// (re)builds — one per document version that was actually probed —
// and Hits counts path steps or fn:id lookups answered from an index
// instead of a tree walk.
type IndexStats struct {
	Builds int64 `json:"builds"`
	Hits   int64 `json:"hits"`
}

// FullTextStats mirrors the full-text index package's Stats with JSON
// tags: Builds counts full-text index constructions, Hits counts
// ftcontains selections and candidate enumerations answered from an
// index, and Loads counts indexes attached from a store's persisted
// sidecars instead of built.
type FullTextStats struct {
	Builds int64 `json:"builds"`
	Hits   int64 `json:"hits"`
	Loads  int64 `json:"loads"`
}
