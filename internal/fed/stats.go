package fed

import "sync/atomic"

// Process-wide federation counters, following the shape of the other
// resilience layers (update.Rollbacks, index.Snapshot): global atomics
// the executors bump and serve.Metrics snapshots. Two executors in one
// process report combined numbers, which is what a pool-level "is the
// federation absorbing faults" poll wants.
var (
	cScatters     atomic.Int64 // scatter-gather evaluations started
	cCalls        atomic.Int64 // HTTP sub-request attempts issued
	cRetries      atomic.Int64 // attempts re-issued after a transient failure
	cHedges       atomic.Int64 // hedged attempts launched by an elapsed timer
	cHedgeWins    atomic.Int64 // rounds won by a hedged attempt
	cBreakerOpens atomic.Int64 // breaker transitions into the open state
	cBreakerSkips atomic.Int64 // attempts skipped because a breaker was open
	cPartials     atomic.Int64 // gathers degraded to partial results
	cShipped      atomic.Int64 // scatters that carried a per-document expression (Ship)
)

// Stats is a point-in-time snapshot of the federation counters.
type Stats struct {
	Scatters     int64 `json:"scatters"`
	Calls        int64 `json:"calls"`
	Retries      int64 `json:"retries"`
	Hedges       int64 `json:"hedges"`
	HedgeWins    int64 `json:"hedge_wins"`
	BreakerOpens int64 `json:"breaker_opens"`
	BreakerSkips int64 `json:"breaker_skips"`
	Partials     int64 `json:"partials"`
	Shipped      int64 `json:"shipped"`
}

// Snapshot returns the current counter values.
func Snapshot() Stats {
	return Stats{
		Scatters:     cScatters.Load(),
		Calls:        cCalls.Load(),
		Retries:      cRetries.Load(),
		Hedges:       cHedges.Load(),
		HedgeWins:    cHedgeWins.Load(),
		BreakerOpens: cBreakerOpens.Load(),
		BreakerSkips: cBreakerSkips.Load(),
		Partials:     cPartials.Load(),
		Shipped:      cShipped.Load(),
	}
}

// ResetStats zeroes the counters (tests and benchmarks).
func ResetStats() {
	cScatters.Store(0)
	cCalls.Store(0)
	cRetries.Store(0)
	cHedges.Store(0)
	cHedgeWins.Store(0)
	cBreakerOpens.Store(0)
	cBreakerSkips.Store(0)
	cPartials.Store(0)
	cShipped.Store(0)
}
