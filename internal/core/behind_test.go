package core

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// A behind call runs on a goroutine of its own, after the statement that
// attached it: it evaluates over the variables as they were at attach
// time, whatever the listener assigns afterwards, and reads nothing the
// listener goes on writing (go test -race). The function it calls sees
// the page's globals.
func TestBehindCallSeesVariablesAsAttached(t *testing.T) {
	const page = `<html><head><script type="text/xqueryp">
	declare variable $g := "g:";
	declare function local:echo($s) { concat($g, $s) };
	declare sequential function local:onResult($readyState, $result) {
		if ($readyState eq 4) then browser:alert(string($result)) else ();
	};
	declare sequential function local:go($evt, $obj) {
		declare variable $x := "before";
		on event "stateChanged" behind local:echo($x) attach listener local:onResult;
		set $x := "after";
	};
	on event "click" at //input[@id="b"] attach listener local:go
</script></head><body><input id="b"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	const clicks = 50
	for i := 0; i < clicks; i++ {
		if err := h.Click("b"); err != nil {
			t.Fatal(err)
		}
		if errs := h.WaitIdle(time.Second); len(errs) > 0 {
			t.Fatalf("async errors: %v", errs)
		}
	}
	if a := h.Alerts(); len(a) != clicks || slices.ContainsFunc(a, func(s string) bool { return s != "g:before" }) {
		t.Errorf("behind calls read %v, want %d times \"g:before\"", a, clicks)
	}
}

// A behind call attached in a loop sees its own item, not the item the
// loop has moved on to by the time the call runs.
func TestBehindInLoopSeesItsOwnBinding(t *testing.T) {
	const page = `<html><head><script type="text/xqueryp">
	declare function local:echo($s) { $s };
	declare sequential function local:onResult($readyState, $result) {
		if ($readyState eq 4) then browser:alert(string($result)) else ();
	};
	for $s in ("a", "b", "c")
	return on event "stateChanged" behind local:echo($s) attach listener local:onResult
</script></head><body/></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if errs := h.WaitIdle(time.Second); len(errs) > 0 {
		t.Fatalf("async errors: %v", errs)
	}
	a := h.Alerts()
	slices.Sort(a) // the calls complete in any order
	if got := strings.Join(a, ""); got != "abc" {
		t.Errorf("behind calls read %q, want a, b and c once each", got)
	}
}

// A behind call runs on a goroutine of its own while the listener that
// attached it goes on filling and applying its pending update list, so
// the call has none: an updating target fails like any updating
// expression where updates are not allowed, and WaitIdle reports it.
// The page is left as it was (go test -race).
func TestBehindUpdatingCallFails(t *testing.T) {
	const page = `<html><head><script type="text/xqueryp">
	declare updating function local:mark() { insert node <m/> into //div[@id="log"] };
	declare sequential function local:onResult($readyState, $result) { () };
	declare sequential function local:go($evt, $obj) {
		on event "stateChanged" behind local:mark() attach listener local:onResult;
		insert node <n/> into //div[@id="log"];
	};
	on event "click" at //input[@id="b"] attach listener local:go
</script></head><body><input id="b"/><div id="log"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	const clicks = 20
	for i := 0; i < clicks; i++ {
		if err := h.Click("b"); err != nil {
			t.Fatal(err)
		}
		errs := h.WaitIdle(time.Second)
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "updating expression not allowed") {
			t.Fatalf("click %d: async errors %v, want one updating-expression error", i+1, errs)
		}
	}
	got := h.SerializePage()
	if n, m := strings.Count(got, "<n></n>"), strings.Count(got, "<m></m>"); n != clicks || m != 0 {
		t.Errorf("%d n and %d m elements on the page, want %d and 0:\n%s", n, m, clicks, got)
	}
}
