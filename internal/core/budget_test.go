package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/xquery"
)

// budgetPage has one listener that queues an update and then blows the
// step budget, and one cheap listener that should still work afterwards.
const budgetPage = `<html><head><script type="text/xqueryp">
	declare updating function local:runaway($evt, $obj) {
		(insert node <div id="partial"/> into //div[@id="log"],
		 insert node <div id="never"/> into
			//div[@id="log"][every $i in 1 to 1000000 satisfies $i >= 0])
	};
	declare updating function local:small($evt, $obj) {
		insert node <div id="ok"/> into //div[@id="log"]
	};
	on event "click" at //input[@id="runaway"] attach listener local:runaway;
	on event "click" at //input[@id="small"] attach listener local:small
</script></head>
<body>
	<input type="button" id="runaway"/>
	<input type="button" id="small"/>
	<div id="log"/>
</body></html>`

// TestListenerBudgetExceeded is the acceptance scenario for per-query
// execution limits: a listener that exceeds its step budget fails with
// ErrBudgetExceeded, its already-queued pending updates are discarded
// (no partial PUL application), and later listeners get a fresh budget.
func TestListenerBudgetExceeded(t *testing.T) {
	h, err := LoadPage(budgetPage, "http://example.com/", WithQueryBudget(50_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	before := h.SerializePage()
	updatesBefore := h.UpdateCount()

	if err := h.Click("runaway"); err != nil {
		t.Fatal(err)
	}
	errs := h.WaitIdle(time.Second)
	if len(errs) != 1 || !errors.Is(errs[0], xquery.ErrBudgetExceeded) {
		t.Fatalf("async errors = %v, want one ErrBudgetExceeded", errs)
	}
	// The first insert was queued before the budget tripped, but the
	// PUL must not be applied partially: the DOM is untouched.
	if got := h.SerializePage(); got != before {
		t.Errorf("DOM changed after budget-tripped listener:\n%s", got)
	}
	if n := h.UpdateCount(); n != updatesBefore {
		t.Errorf("update count %d, want %d (no primitives applied)", n, updatesBefore)
	}

	// A later listener runs with a fresh budget, unpoisoned by the
	// tripped one.
	if err := h.Click("small"); err != nil {
		t.Fatal(err)
	}
	if errs := h.WaitIdle(time.Second); len(errs) != 0 {
		t.Fatalf("small listener errors: %v", errs)
	}
	if got := h.SerializePage(); !strings.Contains(got, `id="ok"`) {
		t.Errorf("small listener's insert missing:\n%s", got)
	}
	if n := h.UpdateCount(); n != updatesBefore+1 {
		t.Errorf("update count %d, want %d", n, updatesBefore+1)
	}
}

// TestQueryBudgetTimeoutOnHost exercises the wall-clock half of
// WithQueryBudget through the same listener machinery.
func TestQueryBudgetTimeoutOnHost(t *testing.T) {
	h, err := LoadPage(budgetPage, "http://example.com/", WithQueryBudget(0, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Click("runaway"); err != nil {
		t.Fatal(err)
	}
	errs := h.WaitIdle(time.Second)
	if len(errs) != 1 || !errors.Is(errs[0], xquery.ErrBudgetExceeded) {
		t.Fatalf("async errors = %v, want one ErrBudgetExceeded", errs)
	}
}

// TestUnlimitedBudgetByDefault: pages loaded without WithQueryBudget
// keep the previous unlimited behaviour.
func TestUnlimitedBudgetByDefault(t *testing.T) {
	h, err := LoadPage(budgetPage, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Click("small"); err != nil {
		t.Fatal(err)
	}
	if errs := h.WaitIdle(time.Second); len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if got := h.SerializePage(); !strings.Contains(got, `id="ok"`) {
		t.Errorf("insert missing:\n%s", got)
	}
}

// A quantifier whose body cannot apply an update streams its domain in
// the host, as anywhere: over 20,000 elements it stops at the first
// witness, well inside a 2,000-step budget.
func TestQuantifierStopsEarlyInTheHost(t *testing.T) {
	page := `<html><head><script type="text/xqueryp">
	browser:alert(string(some $d in //d satisfies true()))
</script></head><body>` + strings.Repeat("<d></d>", 20_000) + `</body></html>`
	h, err := LoadPage(page, "http://example.com/", WithQueryBudget(2000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a := h.Alerts(); len(a) != 1 || a[0] != "true" {
		t.Errorf("alerts %q, want one \"true\"", a)
	}
}
