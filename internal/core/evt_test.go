package core

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
)

// evtPage is a page whose click listener on #b is local:f, declared by
// decls, and whose #log collects what the listener inserts.
func evtPage(decls string) string {
	return `<html><head><script type="text/xqueryp">` + decls + `
on event "click" at //input[@id="b"] attach listener local:f
</script></head><body><input id="b"/><div id="log"/></body></html>`
}

// clickWithDetail dispatches a click carrying two Detail entries at #b
// and returns, after every behind call has completed, what #log holds
// and the event as the listener saw it built by EventToXML.
func clickWithDetail(t *testing.T, h *Host) (log, want string, errs []error) {
	t.Helper()
	b := h.Page.ElementByID("b")
	ev := &dom.Event{Type: "click", Bubbles: true, Cancelable: true, Button: 1,
		Detail: map[string]string{"zone": "north", "area": "7"}}
	h.Dispatch(ev, b)
	errs = h.WaitIdle(time.Second)
	var sb strings.Builder
	for _, c := range h.Page.ElementByID("log").Children() {
		sb.WriteString(markup.Serialize(c))
	}
	seen := *ev
	seen.Phase = dom.AtTarget // the listener runs at the target
	return sb.String(), markup.Serialize(EventToXML(&seen, time.Time{})), errs
}

var timeStampText = regexp.MustCompile(`<timeStamp>[^<]*</timeStamp>`)

// A listener that reads $evt, in any of the ways the dialect can name
// a variable, gets the element EventToXML builds (its timeStamp is the
// turn's); one that never names it is handed () and still runs.
func TestListenerReadsEvtWhereverItNamesIt(t *testing.T) {
	const keep = `declare updating function local:keep($e) { insert node $e into //div[@id="log"] };`
	tests := []struct {
		name, decls string
		event       bool // the log holds the event; else <ok/>
	}{
		{"direct", `declare updating function local:f($evt, $obj) { insert node $evt into //div[@id="log"] };`, true},
		{"let", `declare updating function local:f($evt, $obj) {
			let $e := $evt return insert node $e into //div[@id="log"] };`, true},
		{"argument", keep + `declare updating function local:f($evt, $obj) { local:keep($evt) };`, true},
		{"nested FLWOR", `declare updating function local:f($evt, $obj) {
			for $a in (1, 2) return for $b in (2, 3) where $a + 1 eq $b and $a eq 1
			return insert node $evt into //div[@id="log"] };`, true},
		{"path", `declare updating function local:f($evt, $obj) {
			insert node $evt/type/.. into //div[@id="log"] };`, true},
		{"behind", `declare function local:echo($e) { $e };
			declare sequential function local:done($readyState, $result) {
				if ($readyState eq 4) then insert node $result into //div[@id="log"] else ();
			};
			declare sequential function local:f($evt, $obj) {
				on event "stateChanged" behind local:echo($evt) attach listener local:done;
			};`, true},
		// Only an assignment names it: the parameter must still be bound,
		// or the assignment fails.
		{"set target", `declare sequential function local:f($evt, $obj) {
			set $evt := <set/>;
			insert node <ok/> into //div[@id="log"];
		};`, false},
		{"unread", `declare updating function local:f($evt, $obj) { insert node <ok/> into //div[@id="log"] };`, false},
		// A declared type is checked whatever the body reads.
		{"typed unread", `declare updating function local:f($evt as element(event), $obj) {
			insert node <ok/> into //div[@id="log"] };`, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h, err := LoadPage(evtPage(tt.decls), "http://example.com/")
			if err != nil {
				t.Fatal(err)
			}
			log, want, errs := clickWithDetail(t, h)
			if len(errs) > 0 {
				t.Fatalf("async errors: %v", errs)
			}
			if !tt.event {
				want = "<ok/>"
			}
			if got := timeStampText.ReplaceAllString(log, ""); got != timeStampText.ReplaceAllString(want, "") {
				t.Errorf("log = %s, want %s", log, want)
			}
			if tt.event && !timeStampText.MatchString(log) {
				t.Errorf("log = %s has no timeStamp", log)
			}
		})
	}
}

// A typed $evt is converted, so a type the event does not match fails
// the call, read or not, as it always did; so does a listener that does
// not resolve, when the event arrives.
func TestListenerFailuresStayAsTheyWere(t *testing.T) {
	tests := []struct{ name, decls, want string }{
		{"typed mismatch", `declare updating function local:f($evt as xs:integer, $obj) {
			insert node <ok/> into //div[@id="log"] };`, "argument $evt of"},
		{"unresolved", `declare updating function local:g($evt, $obj) { () };`, "unknown function"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h, err := LoadPage(evtPage(tt.decls), "http://example.com/")
			if err != nil {
				t.Fatal(err)
			}
			log, _, errs := clickWithDetail(t, h)
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), tt.want) {
				t.Fatalf("async errors = %v, want one containing %q", errs, tt.want)
			}
			if log != "" {
				t.Errorf("log = %s, want it empty", log)
			}
		})
	}
}

// $evt/timeStamp is the turn's clock, the one fn:current-dateTime()
// reads: the two agree to the millisecond.
func TestEvtTimeStampIsTheTurnsClock(t *testing.T) {
	h, err := LoadPage(evtPage(`declare updating function local:f($evt, $obj) {
		insert node <t>{string($evt/timeStamp)}|{
			seconds-from-duration(current-dateTime() - xs:dateTime("1970-01-01T00:00:00Z"))}</t>
		into //div[@id="log"] };`), "http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := h.Click("b"); err != nil {
			t.Fatal(err)
		}
	}
	if errs := h.WaitIdle(time.Second); len(errs) > 0 {
		t.Fatalf("async errors: %v", errs)
	}
	for _, c := range h.Page.ElementByID("log").Children() {
		// 2008-06-09T14:30:05.123: the seconds of the minute are the last
		// six characters; the clock's are a decimal like 5.123456789.
		stamp, secs, _ := strings.Cut(c.StringValue(), "|")
		whole, frac, _ := strings.Cut(secs, ".")
		frac += "000"
		if len(stamp) != 23 || len(whole) > 2 {
			t.Fatalf("listener wrote %q", c.StringValue())
		}
		if clock := strings.Repeat("0", 2-len(whole)) + whole + "." + frac[:3]; stamp[17:] != clock {
			t.Errorf("timeStamp %s, fn:current-dateTime() at %s seconds: they differ", stamp, secs)
		}
	}
}

// One attach statement registers one record for all its targets; a
// detach, by key, removes it from the targets it names and leaves the
// others, and attaching again is one registration, not two.
func TestDetachRemovesASharedRegistration(t *testing.T) {
	h, err := LoadPage(`<html><head><script type="text/xqueryp">
declare updating function local:f($evt, $obj) { insert node <c id="{$obj/@id}"/> into //div[@id="log"] };
declare sequential function local:off($evt, $obj) {
  on event "click" at //button[@id = ("b2", "b3")] detach listener local:f;
  on event "click" at //button[@id = "b3"] attach listener local:f;
};
declare sequential function local:on($evt, $obj) {
  on event "click" at //button attach listener local:f;
};
on event "click" at //button attach listener local:f;
on event "click" at //input[@id="off"] attach listener local:off;
on event "click" at //input[@id="on"] attach listener local:on
</script></head><body><input id="off"/><input id="on"/><button id="b1"/><button id="b2"/><button id="b3"/><div id="log"/></body></html>`,
		"http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	clicks := func() string {
		for _, id := range []string{"b1", "b2", "b3"} {
			if err := h.Click(id); err != nil {
				t.Fatal(err)
			}
		}
		if errs := h.WaitIdle(time.Second); len(errs) > 0 {
			t.Fatalf("async errors: %v", errs)
		}
		var ids []string
		log := h.Page.ElementByID("log")
		for _, c := range log.Children() {
			ids = append(ids, c.AttrValue("id"))
		}
		log.RemoveChildren()
		return strings.Join(ids, " ")
	}
	if got := clicks(); got != "b1 b2 b3" {
		t.Errorf("before the detach, clicks logged %q", got)
	}
	if err := h.Click("off"); err != nil {
		t.Fatal(err)
	}
	if got := clicks(); got != "b1 b3" {
		t.Errorf("after detaching from b2 and b3 and attaching to b3 again, clicks logged %q", got)
	}
	if err := h.Click("on"); err != nil {
		t.Fatal(err)
	}
	if got := clicks(); got != "b1 b2 b3" {
		t.Errorf("after attaching to every button again, clicks logged %q, want each button once", got)
	}
	for _, id := range []string{"b1", "b2", "b3"} {
		if n := h.Page.ElementByID(id).ListenerCount("click"); n != 1 {
			t.Errorf("#%s has %d click listeners, want 1", id, n)
		}
	}
}
