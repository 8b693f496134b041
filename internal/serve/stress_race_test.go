package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestServingStressShared hammers ONE engine, ONE cache and ONE session
// pool from >100 goroutines mixing every public operation. It exists to
// be run under -race: any unsynchronised access in the compile cache,
// the pool bookkeeping, or a compiled program's shared state shows up
// here.
//
// Table-driven: each row is a workload kind; rows are replicated until
// the goroutine floor (100) is crossed.
func TestServingStressShared(t *testing.T) {
	const (
		replicas = 22 // per workload row; 5 rows × 22 = 110 goroutines
		iters    = 12 // operations per goroutine
	)

	// The cache has room for every distinct source of the run (266, see
	// the accounting at the end), so each compiles exactly once; a
	// smaller one, the default 256 included, evicts the repeat key now
	// and then and the counts stop being exact.
	p := NewPool(Config{
		MaxSessions:   8,
		MaxSteps:      5_000_000,
		CacheCapacity: 512,
	})
	defer p.Shutdown(context.Background())
	ctx := context.Background()

	// A handful of sessions shared by all event-trigger goroutines.
	const sharedSessions = 4
	sessions := make([]*Session, sharedSessions)
	for i := range sessions {
		s, err := p.Load(ctx, counterPage, pageHref)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}

	var clicks atomic.Int64
	workloads := []struct {
		name string
		op   func(g, i int) error
	}{
		{"eval_repeat", func(g, i int) error {
			// Same source every time: exercises the program-hit fast path.
			seq, err := p.Eval(ctx, `sum(1 to 100)`, nil)
			if err != nil {
				return err
			}
			if seq[0].String() != "5050" {
				return fmt.Errorf("eval_repeat got %v", seq)
			}
			return nil
		}},
		{"eval_churn", func(g, i int) error {
			// Distinct sources: exercises compile misses + LRU turnover.
			src := fmt.Sprintf(`%d + %d`, g, i)
			seq, err := p.Eval(ctx, src, nil)
			if err != nil {
				return err
			}
			if seq[0].String() != fmt.Sprint(g+i) {
				return fmt.Errorf("eval_churn got %v", seq)
			}
			return nil
		}},
		{"eval_direct_engine", func(g, i int) error {
			// Bypass the cache: shared engine compile+run must also be safe.
			_, err := p.Engine().EvalQueryContext(ctx, `count(1 to 10)`, nil)
			return err
		}},
		{"load_page", func(g, i int) error {
			// Session churn through the bounded pool.
			s, err := p.Load(ctx, counterPage, pageHref)
			if err != nil {
				return err
			}
			defer s.Close()
			return s.Click(ctx, "b")
		}},
		{"event_trigger", func(g, i int) error {
			// Concurrent event dispatch against shared sessions; the
			// per-session loop serialises DOM mutation.
			s := sessions[g%sharedSessions]
			if err := s.Click(ctx, "b"); err != nil {
				return err
			}
			clicks.Add(1)
			return nil
		}},
	}

	var wg sync.WaitGroup
	errCh := make(chan error, len(workloads)*replicas)
	goroutines := 0
	for w, wl := range workloads {
		for r := 0; r < replicas; r++ {
			goroutines++
			wg.Add(1)
			go func(wl struct {
				name string
				op   func(g, i int) error
			}, g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if err := wl.op(g, i); err != nil {
						errCh <- fmt.Errorf("%s[%d]: %w", wl.name, i, err)
						return
					}
				}
			}(wl, w*replicas+r)
		}
	}
	if goroutines < 100 {
		t.Fatalf("stress floor: %d goroutines, want >= 100", goroutines)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Every shared-session click must have landed exactly once.
	total := int64(0)
	for _, s := range sessions {
		var n string
		if err := s.Do(ctx, func(h *core.Host) error {
			n = h.Page.ElementByID("n").StringValue()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var v int64
		fmt.Sscan(n, &v)
		total += v
		s.Close()
	}
	if got := clicks.Load(); total != got {
		t.Errorf("shared sessions recorded %d clicks, dispatched %d", total, got)
	}

	// Sanity on the shared accounting under contention.
	m := p.Metrics()
	if m.SessionsActive != 0 {
		t.Errorf("sessions still active: %d", m.SessionsActive)
	}
	// The accounting is exact: one compile per distinct source — the
	// eval_repeat query, every eval_churn query, and the counter page's
	// script once for all its sessions (their engines have one shape) —
	// and a hit or a coalesced join for every other lookup.
	st := m.Cache
	distinct := int64(1 + replicas*iters + 1)
	lookups := int64(2*replicas*iters + sharedSessions + replicas*iters)
	if st.Compiles != distinct || st.Evictions != 0 {
		t.Errorf("compiles = %d evictions = %d, want %d and 0: %+v", st.Compiles, st.Evictions, distinct, st)
	}
	if st.ProgramHits+st.Coalesced != lookups-distinct {
		t.Errorf("hit+coalesced = %d, want %d", st.ProgramHits+st.Coalesced, lookups-distinct)
	}
}
