package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xquery"
)

const counterPage = `<html><head><script type="text/xquery">
declare updating function local:hit($evt, $obj) {
  replace value of node //span[@id="n"]
  with xs:integer(string(//span[@id="n"])) + 1
};
on event "click" at //input[@id="b"] attach listener local:hit
</script></head><body><input id="b"/><span id="n">0</span></body></html>`

const pageHref = "http://serve.example.com/"

func counterValue(t *testing.T, s *Session) string {
	t.Helper()
	var out string
	if err := s.Do(context.Background(), func(h *core.Host) error {
		out = h.Page.ElementByID("n").StringValue()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPoolSessionLifecycle(t *testing.T) {
	p := NewPool(Config{MaxSessions: 4})
	ctx := context.Background()

	s, err := p.Load(ctx, counterPage, pageHref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Click(ctx, "b"); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(t, s); got != "3" {
		t.Errorf("counter = %s, want 3", got)
	}

	m := p.Metrics()
	if m.SessionsActive != 1 || m.SessionsLoaded != 1 {
		t.Errorf("metrics = %+v, want 1 active / 1 loaded", m)
	}
	if m.Events != 4 { // 3 clicks + 1 read turn
		t.Errorf("events = %d, want 4", m.Events)
	}
	if m.Loads.Count != 1 || m.Dispatches.Count != 4 {
		t.Errorf("histograms: loads=%d dispatches=%d", m.Loads.Count, m.Dispatches.Count)
	}

	s.Close()
	s.Close() // idempotent
	if got := p.Metrics().SessionsActive; got != 0 {
		t.Errorf("active after close = %d", got)
	}
	if err := s.Click(ctx, "b"); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("click after close = %v, want ErrSessionClosed", err)
	}
}

func TestPoolBoundsSessions(t *testing.T) {
	p := NewPool(Config{MaxSessions: 1})
	ctx := context.Background()

	s1, err := p.Load(ctx, counterPage, pageHref)
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := p.Load(waitCtx, counterPage, pageHref); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full pool load = %v, want DeadlineExceeded", err)
	}
	s1.Close()
	s2, err := p.Load(ctx, counterPage, pageHref)
	if err != nil {
		t.Fatalf("load after close: %v", err)
	}
	s2.Close()

	m := p.Metrics()
	if m.SessionsRejected != 1 || m.SessionsLoaded != 2 || m.SessionsPeak != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestPoolCacheSharedAcrossSessions(t *testing.T) {
	p := NewPool(Config{MaxSessions: 4})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		s, err := p.Load(ctx, counterPage, pageHref)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
	}
	// Every session builds its own engine, all of one shape: the page
	// script compiles once and the other two sessions bind to it.
	st := p.Cache().Stats()
	if st.Parses != 1 || st.Compiles != 1 {
		t.Errorf("parses = %d compiles = %d, want 1 and 1 (page script compiled once)", st.Parses, st.Compiles)
	}
	if st.ProgramHits != 2 || st.ModuleHits != 0 {
		t.Errorf("program hits = %d module hits = %d, want 2 and 0", st.ProgramHits, st.ModuleHits)
	}
}

func TestPoolEvalCached(t *testing.T) {
	p := NewPool(Config{MaxSessions: 2})
	ctx := context.Background()
	const n = 10
	for i := 0; i < n; i++ {
		seq, err := p.Eval(ctx, `sum(1 to 4)`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seq[0].String() != "10" {
			t.Fatalf("result = %v", seq)
		}
	}
	m := p.Metrics()
	if m.Cache.Compiles != 1 || m.Cache.ProgramHits != n-1 {
		t.Errorf("cache = %+v, want 1 compile / %d hits", m.Cache, n-1)
	}
	if m.Queries.Count != n {
		t.Errorf("query histogram count = %d, want %d", m.Queries.Count, n)
	}
}

func TestPoolEvalBudget(t *testing.T) {
	p := NewPool(Config{MaxSessions: 2, MaxSteps: 500})
	_, err := p.Eval(context.Background(), `sum(for $i in 1 to 1000000 return $i)`, nil)
	if !errors.Is(err, xquery.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestPoolShutdown(t *testing.T) {
	p := NewPool(Config{MaxSessions: 4})
	ctx := context.Background()
	s, err := p.Load(ctx, counterPage, pageHref)
	if err != nil {
		t.Fatal(err)
	}
	_ = s

	if err := p.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().SessionsActive; got != 0 {
		t.Errorf("active after shutdown = %d", got)
	}
	if _, err := p.Load(ctx, counterPage, pageHref); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("load after shutdown = %v, want ErrPoolClosed", err)
	}
	if _, err := p.Eval(ctx, `1`, nil); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("eval after shutdown = %v, want ErrPoolClosed", err)
	}
	if err := p.Shutdown(ctx); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("second shutdown = %v, want ErrPoolClosed", err)
	}
}

func TestSessionContextCancellationAbortsListeners(t *testing.T) {
	// A listener that loops forever is unstuck by cancelling the
	// session's context, not by waiting out a wall-clock budget.
	page := strings.Replace(counterPage,
		`with xs:integer(string(//span[@id="n"])) + 1`,
		`with sum(for $i in 1 to 2000 return sum(for $j in 1 to 2000 return $j mod 7))`, 1)

	p := NewPool(Config{MaxSessions: 2})
	ctx, cancel := context.WithCancel(context.Background())
	s, err := p.Load(ctx, page, pageHref)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// The click itself returns errors through the host's async error
	// channel; the Do turn returns once dispatch finishes (aborted by
	// cancellation).
	_ = s.Click(context.Background(), "b")
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("listener ran %s, cancellation not cooperative", elapsed)
	}
	s.Close()
}

func TestLoadPageContextCancelledDuringLoad(t *testing.T) {
	// Cancellation during the page-load script aborts LoadPage itself.
	page := `<html><head><script type="text/xquery">
	  sum(for $i in 1 to 2000 return sum(for $j in 1 to 2000 return $j mod 7))
	</script></head><body/></html>`
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	p := NewPool(Config{MaxSessions: 2})
	start := time.Now()
	_, err := p.Load(ctx, page, pageHref)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("load ran %s before aborting", elapsed)
	}
	if got := p.Metrics().SessionsRejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

func TestPoolEvalStrict(t *testing.T) {
	p := NewPool(Config{MaxSessions: 2, Strict: true})
	ctx := context.Background()

	// Statically broken: unbound variable. Rejected before the cache.
	for i := 0; i < 2; i++ {
		_, err := p.Eval(ctx, `1 + $nowhere`, nil)
		if !errors.Is(err, xquery.ErrAnalysisFailed) {
			t.Fatalf("err = %v, want ErrAnalysisFailed", err)
		}
	}
	if _, err := p.Eval(ctx, `sum(1 to 4)`, nil); err != nil {
		t.Fatal(err)
	}

	m := p.Metrics()
	if m.QueriesRejected != 2 {
		t.Errorf("QueriesRejected = %d, want 2", m.QueriesRejected)
	}
	if m.Cache.Compiles != 1 {
		t.Errorf("cache compiles = %d, want 1 (rejected programs stay out)", m.Cache.Compiles)
	}
}

func TestPoolEvalStrictOff(t *testing.T) {
	p := NewPool(Config{MaxSessions: 2})
	// Without Strict the unbound variable only fails at runtime, and the
	// rejection counter stays untouched.
	if _, err := p.Eval(context.Background(), `1 + $nowhere`, nil); err == nil {
		t.Fatal("unbound variable ran successfully")
	}
	if m := p.Metrics(); m.QueriesRejected != 0 {
		t.Errorf("QueriesRejected = %d, want 0", m.QueriesRejected)
	}
}
