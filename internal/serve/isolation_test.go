package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// Every page engine shares one browser: layer, whose functions read the
// browser and window they act on from the run (browser.Hooks). These
// pages exercise each way a session could see another's state through
// it: browser:self() and browser:alert in the page's main, in listeners
// registered through the §5.1 functions and the §4.3 grammar, in a
// frame's main, and in the listener a frame's behind call completes.

const isolationPage = `<html><head><script type="text/xqueryp">
declare updating function local:bump($evt, $obj) {
  replace value of node //span[@id="n"] with xs:integer(string(//span[@id="n"])) + 1
};
declare sequential function local:hello($evt, $obj) {
  browser:alert(concat("hello from ", string(browser:self()/location/href)));
};
declare sequential function local:arm($evt, $obj) {
  browser:addEventListener(//input[@id="hof"], "click", "local:bump");
  on event "click" at //input[@id="gram"] attach listener local:hello;
};
browser:alert(concat("loaded ", string(browser:self()/location/href))),
browser:addEventListener(//input[@id="b"], "click", "local:bump"),
on event "click" at //input[@id="arm"] attach listener local:arm
</script></head><body><span id="n">0</span>
<input id="b"/><input id="arm"/><input id="hof"/><input id="gram"/></body></html>`

const isolationFrame = `<html><head><script type="text/xqueryp">
declare function local:echo($s) { $s };
declare sequential function local:done($readyState, $result) {
  if ($readyState eq 4)
  then browser:alert(concat("behind in ", string(browser:self()/@name), ": ", string($result)))
  else ();
};
browser:alert(concat("frame self ", string(browser:self()/@name))),
on event "stateChanged" behind local:echo(string(browser:self()/location/href)) attach listener local:done
</script></head><body/></html>`

func TestSessionsOfOnePageSeeOnlyTheirOwnWindow(t *testing.T) {
	p := NewPool(Config{MaxSessions: 4, MaxSteps: 1_000_000})
	defer p.Shutdown(context.Background())
	ctx := context.Background()

	type visit struct {
		href, frame string
		rounds      int
		s           *Session
	}
	visits := []*visit{
		{href: "http://example.com/one", frame: "f1", rounds: 7},
		{href: "http://example.com/two", frame: "f2", rounds: 11},
	}
	for _, v := range visits {
		s, err := p.Load(ctx, isolationPage, v.href)
		if err != nil {
			t.Fatal(err)
		}
		v.s = s
	}

	// Both sessions run at once, so their turns interleave.
	var wg sync.WaitGroup
	errs := make(chan error, len(visits))
	for _, v := range visits {
		wg.Add(1)
		go func(v *visit) {
			defer wg.Done()
			errs <- v.s.Do(ctx, func(h *core.Host) error {
				if _, err := h.LoadFrame(v.frame, isolationFrame, v.href+"/frame"); err != nil {
					return err
				}
				if errs := h.WaitIdle(5 * time.Second); len(errs) > 0 {
					return fmt.Errorf("%s: async errors: %v", v.href, errs)
				}
				return nil
			})
			for i := 0; i < v.rounds; i++ {
				for _, id := range []string{"b", "arm", "hof", "gram"} {
					if err := v.s.Click(ctx, id); err != nil {
						errs <- err
						return
					}
				}
			}
		}(v)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, v := range visits {
		// b's listener from the page's main and hof's from local:arm,
		// both through browser:addEventListener, bumped this page only.
		if got, want := counterValue(t, v.s), fmt.Sprint(2*v.rounds); got != want {
			t.Errorf("%s: counter = %s, want %s", v.href, got, want)
		}
		want := []string{"loaded " + v.href,
			"frame self " + v.frame, "behind in " + v.frame + ": " + v.href + "/frame"}
		for i := 0; i < v.rounds; i++ {
			want = append(want, "hello from "+v.href)
		}
		if got := v.s.Host().Alerts(); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: alerts = %q, want %q", v.href, got, want)
		}
	}
}
