package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
)

// TestDocStaysStableAcrossNestedListeners: a listener the page script
// calls synchronously — through `trigger event`, and the readyState-1
// call of an `on … behind` statement — is an evaluation of its own, with
// its own document memo. When it ends, the script's memo is intact, so
// doc("u") still answers the tree the script resolved before the
// listener ran (DESIGN.md §5y), however unstable the resolver.
func TestDocStaysStableAcrossNestedListeners(t *testing.T) {
	resolves := 0
	docs := func(uri string) (*dom.Node, error) {
		resolves++
		return markup.Parse(`<r><x/></r>`) // a new tree per call
	}
	const page = `<html><head><script type="text/xqueryp">
	declare sequential function local:onClick($evt, $obj) { doc("u")/r };
	declare sequential function local:onState($readyState, $result) { doc("u")/r };
	declare function local:one() { 1 };
	{
		declare variable $a := doc("u");
		on event "click" at //input[@id="b"] attach listener local:onClick;
		trigger event "click" at //input[@id="b"];
		insert node <t>{$a is doc("u")}</t> into //div[@id="log"];
		on event "done" behind local:one() attach listener local:onState;
		insert node <b>{$a is doc("u")}</b> into //div[@id="log"];
	}
</script></head><body><input id="b"/><div id="log"/></body></html>`
	h, err := LoadPage(page, "http://example.com/", WithStoreResolvers(docs, nil))
	if err != nil {
		t.Fatal(err)
	}
	if errs := h.WaitIdle(time.Second); len(errs) != 0 {
		t.Fatalf("async errors: %v", errs)
	}
	got := h.SerializePage()
	for _, want := range []string{"<t>true</t>", "<b>true</b>"} {
		if !strings.Contains(got, want) {
			t.Errorf("page lacks %s: doc(\"u\") changed identity across a nested listener\n%s", want, got)
		}
	}
	// The script once, the click listener once, the readyState-1 and -4
	// calls once each.
	if resolves != 4 {
		t.Errorf("the resolver ran %d times, want 4", resolves)
	}
}
