package core

import (
	"strings"
	"testing"
	"time"
)

// TestListenerReadsItsOwnClock: a listener turn is an evaluation of its
// own (Figure 1), so current-dateTime() is the instant the turn started,
// not the page load's. A listener that runs well after the load reads a
// later time than the script's global did.
func TestListenerReadsItsOwnClock(t *testing.T) {
	const page = `<html><head><script type="text/xqueryp">
	declare variable $t0 := current-dateTime();
	declare updating function local:onClick($evt, $obj) {
		insert node <t>{current-dateTime() gt $t0}</t> into //div[@id="log"]
	};
	on event "click" at //input[@id="b"] attach listener local:onClick;
</script></head><body><input id="b"/><div id="log"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := h.Click("b"); err != nil {
		t.Fatal(err)
	}
	if errs := h.WaitIdle(time.Second); len(errs) != 0 {
		t.Fatalf("async errors: %v", errs)
	}
	if got := h.SerializePage(); !strings.Contains(got, "<t>true</t>") {
		t.Errorf("the listener read the page load's clock: current-dateTime() gt $t0 is not true\n%s", got)
	}
}

// TestFullTextScoresArePerTurn: ft:score answers what an ftcontains of
// the same evaluation recorded. A turn that matched nothing scores 0,
// whatever an earlier turn matched.
func TestFullTextScoresArePerTurn(t *testing.T) {
	const page = `<html><head><script type="text/xqueryp">
	declare updating function local:match($evt, $obj) {
		insert node <m>{count(//p[. ftcontains "apple"])}</m> into //div[@id="log"]
	};
	declare updating function local:score($evt, $obj) {
		insert node <s>{ft:score((//p)[1])}</s> into //div[@id="log"]
	};
	on event "click" at //input[@id="a"] attach listener local:match;
	on event "click" at //input[@id="b"] attach listener local:score;
</script></head><body><input id="a"/><input id="b"/>
<p>apple pie and apple tart</p><p>pear</p><div id="log"/></body></html>`
	h, err := LoadPage(page, "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := h.Click(id); err != nil {
			t.Fatal(err)
		}
	}
	if errs := h.WaitIdle(time.Second); len(errs) != 0 {
		t.Fatalf("async errors: %v", errs)
	}
	got := h.SerializePage()
	if !strings.Contains(got, "<m>1</m>") {
		t.Fatalf("the first turn did not match the paragraph\n%s", got)
	}
	if !strings.Contains(got, "<s>0</s>") {
		t.Errorf("the second turn read a score the first one recorded, want <s>0</s>\n%s", got)
	}
}

// TestHostCalledFunctionsRecordScores: a page whose script body only
// attaches a listener still records full-text scores where a function
// the host calls by name reads them — the listener, and local:main() —
// and they are the scores a script body that reads them directly gets.
// The paragraphs are a tree of their own, so the page's text (the
// script included) does not enter the scores.
func TestHostCalledFunctionsRecordScores(t *testing.T) {
	const scores = `string-join(
		let $d := <d><p>apple pie and apple tart</p><p>pear</p><p>apple</p></d>
		for $p in $d//p[. ftcontains "apple"] return string(ft:score($p)), " ")`
	logged := func(h *Host, el string) string {
		page := h.SerializePage()
		open := `<div id="log">`
		i := strings.Index(page, open)
		if i < 0 {
			t.Fatalf("no log in\n%s", page)
		}
		page = page[i+len(open):]
		if !strings.HasPrefix(page, "<"+el+">") || !strings.Contains(page, "</"+el+">") {
			return ""
		}
		return page[len(el)+2 : strings.Index(page, "</"+el+">")]
	}
	load := func(script string) *Host {
		t.Helper()
		h, err := LoadPage(`<html><head><script type="text/xqueryp">`+script+
			`</script></head><body><input id="a"/><div id="log"/></body></html>`, "http://example.com/")
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	want := logged(load(`insert node <r>{`+scores+`}</r> as first into //div[@id="log"]`), "r")
	if f := strings.Fields(want); len(f) != 2 || f[0] == "0" || f[1] == "0" {
		t.Fatalf("a script body that reads the scores got %q", want)
	}

	h := load(`
	declare updating function local:f($evt, $obj) {
		insert node <s>{` + scores + `}</s> as first into //div[@id="log"]
	};
	declare updating function local:main() {
		insert node <m>{` + scores + `}</m> as first into //div[@id="log"]
	};
	on event "click" at //input[@id="a"] attach listener local:f;`)
	if got := logged(h, "m"); got != want {
		t.Errorf("local:main() scored %q, want %q", got, want)
	}
	if err := h.Click("a"); err != nil {
		t.Fatal(err)
	}
	if errs := h.WaitIdle(time.Second); len(errs) != 0 {
		t.Fatalf("async errors: %v", errs)
	}
	if got := logged(h, "s"); got != want {
		t.Errorf("the listener scored %q, want %q", got, want)
	}
}
