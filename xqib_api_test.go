package xqib_test

import (
	"context"
	"errors"
	"testing"
	"time"

	xqib "repro"
)

// One Option vocabulary serves both constructors: the same
// WithModuleResolver value resolves imports on a bare engine AND on
// every script engine of a loaded page.
func TestUnifiedOptionBothConstructors(t *testing.T) {
	resolver := xqib.NewLocalResolver(map[string]string{
		"urn:math": `module namespace m = "urn:math";
			declare function m:square($x) { $x * $x };`,
	})
	opt := xqib.WithModuleResolver(resolver)

	e := xqib.NewEngine(opt)
	seq, err := e.EvalQuery(`import module namespace m = "urn:math"; m:square(3)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if xqib.FormatSequence(seq) != "9" {
		t.Errorf("engine result = %s", xqib.FormatSequence(seq))
	}

	h, err := xqib.LoadPage(`<html><head><script type="text/xquery">
		import module namespace m = "urn:math";
		browser:alert(string(m:square(4)))
	</script></head><body/></html>`, "http://example.com/", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Alerts(); len(a) != 1 || a[0] != "16" {
		t.Errorf("page alerts = %v", a)
	}
}

// Every re-exported sentinel is reachable with errors.Is through the
// facade, without importing internal packages.
func TestSentinelErrorsThroughFacade(t *testing.T) {
	e := xqib.NewEngine()

	// ErrNoResolver: import with no resolver installed.
	if _, err := e.EvalQuery(`import module namespace x = "urn:x"; 1`, nil); !errors.Is(err, xqib.ErrNoResolver) {
		t.Errorf("import err = %v, want ErrNoResolver", err)
	}

	// ErrUnknownFunction: calling an undeclared function.
	if _, err := e.EvalQuery(`local:nope()`, nil); !errors.Is(err, xqib.ErrUnknownFunction) {
		t.Errorf("call err = %v, want ErrUnknownFunction", err)
	}

	// ErrBudgetExceeded: MaxSteps budget.
	p, err := e.Compile(`sum(for $i in 1 to 1000000 return $i)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(xqib.RunConfig{MaxSteps: 100}); !errors.Is(err, xqib.ErrBudgetExceeded) {
		t.Errorf("budget err = %v, want ErrBudgetExceeded", err)
	}

	// ErrPoolClosed / ErrSessionClosed: serving-layer lifecycle.
	pool := xqib.NewPool(xqib.PoolConfig{MaxSessions: 1})
	ctx := context.Background()
	s, err := pool.Load(ctx, `<html><body><input id="b"/></body></html>`, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Click(ctx, "b"); !errors.Is(err, xqib.ErrSessionClosed) {
		t.Errorf("closed session err = %v, want ErrSessionClosed", err)
	}
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Load(ctx, `<html/>`, "http://example.com/"); !errors.Is(err, xqib.ErrPoolClosed) {
		t.Errorf("closed pool err = %v, want ErrPoolClosed", err)
	}
}

// WithStore routes fn:doc and fn:collection through the persistent
// store on both facade constructors — including page scripts, where
// the browser profile would otherwise block fn:doc entirely.
func TestWithStoreBothConstructors(t *testing.T) {
	st, err := xqib.OpenStore(t.TempDir(), xqib.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.CreateCollection("/db/inv"); err != nil {
		t.Fatal(err)
	}
	if err := st.PutXML("/db/inv/a.xml", `<item n="1"/>`); err != nil {
		t.Fatal(err)
	}
	if err := st.PutXML("/db/inv/b.xml", `<item n="2"/>`); err != nil {
		t.Fatal(err)
	}

	opt := xqib.WithStore(st)

	e := xqib.NewEngine(opt)
	seq, err := e.EvalQuery(`count(collection("/db/inv"))`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := xqib.FormatSequence(seq); got != "2" {
		t.Errorf("engine collection count = %s, want 2", got)
	}

	h, err := xqib.LoadPage(`<html><head><script type="text/xquery">
		browser:alert(string(doc("/db/inv/a.xml")/item/@n))
	</script></head><body/></html>`, "http://example.com/", opt)
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Alerts(); len(a) != 1 || a[0] != "1" {
		t.Errorf("page alerts = %v", a)
	}
}

// OpenStore durability: documents written before Close are readable
// after reopening the same directory, and the store sentinels are
// reachable with errors.Is through the facade.
func TestOpenStoreRecoveryAndSentinels(t *testing.T) {
	dir := t.TempDir()
	st, err := xqib.OpenStore(dir, xqib.WithCheckpointEvery(1000))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateCollection("/db"); err != nil {
		t.Fatal(err)
	}
	if err := st.PutXML("/db/x.xml", `<x/>`); err != nil {
		t.Fatal(err)
	}

	// ErrDocNotFound / ErrNoCollection on absent targets.
	if _, err := st.Doc("/db/nope.xml"); !errors.Is(err, xqib.ErrDocNotFound) {
		t.Errorf("doc err = %v, want ErrDocNotFound", err)
	}
	if _, err := st.Collection("/db/nope"); !errors.Is(err, xqib.ErrNoCollection) {
		t.Errorf("collection err = %v, want ErrNoCollection", err)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// ErrStoreClosed after Close.
	if err := st.PutXML("/db/y.xml", `<y/>`); !errors.Is(err, xqib.ErrStoreClosed) {
		t.Errorf("closed err = %v, want ErrStoreClosed", err)
	}

	st2, err := xqib.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Doc("/db/x.xml"); err != nil {
		t.Errorf("after reopen: %v", err)
	}
}

// RunConfig.Context and EvalQueryContext thread cancellation through
// the facade types.
func TestFacadeContextCancellation(t *testing.T) {
	e := xqib.NewEngine()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := e.EvalQueryContext(ctx, `sum(for $i in 1 to 2000000 return $i mod 7)`, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// WithQueryBudget + WithFunctions compose on a pool-free LoadPage.
func TestFacadeQueryBudgetOnPage(t *testing.T) {
	_, err := xqib.LoadPage(`<html><head><script type="text/xquery">
		sum(for $i in 1 to 1000000 return $i)
	</script></head><body/></html>`, "http://example.com/",
		xqib.WithQueryBudget(1000, 0))
	if !errors.Is(err, xqib.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// Strict mode surfaces the update-independence analyzer's warnings on
// the Result: an insert into a subtree the same snapshot detaches must
// arrive as an XQ0401 dead-update diagnostic through the facade.
func TestStrictSurfacesDeadUpdateWarning(t *testing.T) {
	doc, err := xqib.ParseXML(`<app><cart><item/></cart></app>`)
	if err != nil {
		t.Fatal(err)
	}
	e := xqib.NewEngine()
	prog, err := e.Compile(`insert node <sku/> into /app/cart,
replace node /app/cart with <cart/>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(xqib.RunConfig{Strict: true, ContextItem: xqib.NewNode(doc)})
	if err != nil {
		t.Fatalf("strict run failed: %v", err)
	}
	var found *xqib.Diagnostic
	for i := range res.Diagnostics {
		if res.Diagnostics[i].Code == xqib.CodeDeadUpdate {
			found = &res.Diagnostics[i]
		}
	}
	if found == nil {
		t.Fatalf("Diagnostics = %v, want an %s dead-update warning",
			res.Diagnostics, xqib.CodeDeadUpdate)
	}
	if found.Severity != xqib.SevWarning {
		t.Errorf("severity = %v, want warning", found.Severity)
	}
}
