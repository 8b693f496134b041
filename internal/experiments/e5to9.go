package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// PerfCase is one E5 workload: a declarative XQuery run and the
// imperative JavaScript-style equivalent over the same DOM. The
// imperative side is compiled Go (no interpreter), so it bounds what a
// perfectly-JITted JavaScript engine could do — see DESIGN.md.
type PerfCase struct {
	Name       string
	XQuery     func() error
	Imperative func() error
}

// E5Cases builds the microbenchmark pairs (shared with bench_test.go).
func E5Cases() ([]PerfCase, error) {
	var cases []PerfCase

	// (a) Query: find the divs containing a word (§2.2 example).
	for _, n := range []int{100, 1000} {
		page, err := loveDivsPage(n)
		if err != nil {
			return nil, err
		}
		engine := xquery.New()
		prog, err := engine.Compile(`count(//div[contains(., 'love')])`)
		if err != nil {
			return nil, err
		}
		want := n / 2
		root := page
		cases = append(cases, PerfCase{
			Name: fmt.Sprintf("query divs n=%d", n),
			XQuery: func() error {
				res, err := prog.Run(xquery.RunConfig{ContextItem: xdm.NewNode(root)})
				if err != nil {
					return err
				}
				if res.Value[0].String() != fmt.Sprintf("%d", want) {
					return fmt.Errorf("wrong count %s", res.Value[0])
				}
				return nil
			},
			Imperative: func() error {
				count := 0
				root.Walk(func(nd *dom.Node) bool {
					if nd.Type == dom.ElementNode && nd.Name.Local == "div" &&
						strings.Contains(nd.StringValue(), "love") {
						count++
					}
					return true
				})
				if count != want {
					return fmt.Errorf("wrong count %d", count)
				}
				return nil
			},
		})
	}

	// (b) Bulk insert: add n paragraphs to the body.
	for _, n := range []int{100, 500} {
		nn := n
		engine := xquery.New()
		prog, err := engine.Compile(fmt.Sprintf(
			`insert node (for $i in 1 to %d return <p>{$i}</p>) into //body`, nn))
		if err != nil {
			return nil, err
		}
		cases = append(cases, PerfCase{
			Name: fmt.Sprintf("bulk insert n=%d", n),
			XQuery: func() error {
				page, err := markup.ParseHTML(`<html><body/></html>`)
				if err != nil {
					return err
				}
				_, err = prog.Run(xquery.RunConfig{ContextItem: xdm.NewNode(page)})
				return err
			},
			Imperative: func() error {
				page, err := markup.ParseHTML(`<html><body/></html>`)
				if err != nil {
					return err
				}
				body := page.Elements("body")[0]
				for i := 1; i <= nn; i++ {
					p := dom.NewElement(dom.Name("p"))
					if err := p.AppendChild(dom.NewText(fmt.Sprintf("%d", i))); err != nil {
						return err
					}
					if err := body.AppendChild(p); err != nil {
						return err
					}
				}
				return nil
			},
		})
	}

	// (c) Table generation: the multiplication table (E4's workload as
	// a performance case; host reused so only the click is measured).
	hostXQ, err := apps.RunMultiplicationXQuery(10)
	if err != nil {
		return nil, err
	}
	cases = append(cases, PerfCase{
		Name: "generate 10x10 table",
		XQuery: func() error {
			return hostXQ.Click("generate")
		},
		Imperative: func() error {
			_, err := apps.RunMultiplicationJS(10)
			return err
		},
	})

	// (d) Event dispatch + trivial handler.
	hostEvt, err := core.LoadPage(`<html><head><script type="text/xquery">
declare updating function local:l($evt, $obj) {
  replace value of node //span[@id="c"] with "hit"
};
on event "click" at //input[@id="b"] attach listener local:l
</script></head><body><input id="b"/><span id="c">0</span></body></html>`,
		"http://example.com/")
	if err != nil {
		return nil, err
	}
	btnXQ := hostEvt.Page.ElementByID("b")

	jsPage, err := markup.ParseHTML(`<html><body><input id="b"/><span id="c">0</span></body></html>`)
	if err != nil {
		return nil, err
	}
	span := jsPage.ElementByID("c")
	btnJS := jsPage.ElementByID("b")
	btnJS.AddEventListener("click", false, nil, func(ev *dom.Event) {
		span.ReplaceElementContent("hit")
	})
	cases = append(cases, PerfCase{
		Name: "event dispatch + handler",
		XQuery: func() error {
			hostEvt.Dispatch(&dom.Event{Type: "click", Bubbles: true, Button: 1}, btnXQ)
			return nil
		},
		Imperative: func() error {
			btnJS.DispatchEvent(&dom.Event{Type: "click", Bubbles: true, Button: 1})
			return nil
		},
	})
	return cases, nil
}

func loveDivsPage(n int) (*dom.Node, error) {
	var b strings.Builder
	b.WriteString(`<html><body>`)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&b, `<div>item %d full of love</div>`, i)
		} else {
			fmt.Fprintf(&b, `<div>item %d plain</div>`, i)
		}
	}
	b.WriteString(`</body></html>`)
	return markup.ParseHTML(b.String())
}

// E5Performance times each pair (paper §7 future work: "study the
// performance of XQuery in the browser as compared to JavaScript").
func E5Performance() (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "XQuery vs imperative DOM scripting (declarative engine vs compiled-Go baseline)",
		Header: []string{"workload", "xquery/op", "imperative/op", "slowdown"},
		Notes: []string{
			"the imperative side is compiled Go: an upper bound on JavaScript JIT performance, so real slowdowns would be smaller",
		},
	}
	cases, err := E5Cases()
	if err != nil {
		return t, err
	}
	for _, c := range cases {
		xq, err := MeasureNsPerOp(c.XQuery, 20, 100*time.Millisecond)
		if err != nil {
			return t, fmt.Errorf("%s xquery: %w", c.Name, err)
		}
		im, err := MeasureNsPerOp(c.Imperative, 20, 100*time.Millisecond)
		if err != nil {
			return t, fmt.Errorf("%s imperative: %w", c.Name, err)
		}
		t.Rows = append(t.Rows, []string{
			c.Name, ns(xq), ns(im), fmt.Sprintf("%.1fx", xq/im),
		})
	}
	return t, nil
}

// E6Async measures the §4.4 behind-construct: non-blocking calls,
// readyState progression, and UI responsiveness while a call is
// pending.
func E6Async() (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  "Asynchronous behind-calls (§4.4 AJAX suggest)",
		Header: []string{"typed", "hint", "keyup latency", "hint latency", "UI responsive while pending"},
	}
	s, err := apps.NewSuggest()
	if err != nil {
		return t, err
	}
	defer s.Close()
	for _, typed := range []string{"B", "Li", "A"} {
		start := time.Now()
		if err := s.Type(typed); err != nil {
			return t, err
		}
		keyLat := time.Since(start)
		if errs := s.Wait(); len(errs) > 0 {
			return t, errs[0]
		}
		total := time.Since(start)
		t.Rows = append(t.Rows, []string{
			typed, s.Hint(), dur(keyLat), dur(total), "yes (keyup returned before completion)",
		})
	}
	return t, nil
}

// E7Security demonstrates the §4.2.1 same-origin checks and measures
// the pull-accessor overhead against an unchecked policy.
func E7Security() (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "Same-origin window security (§4.2.1): pull accessors",
		Header: []string{"probe", "same-origin read", "cross-origin read", "pull cost (checked)", "pull cost (allow-all)"},
	}
	buildHost := func(policy browser.SecurityPolicy) (*core.Host, error) {
		h, err := core.LoadPage(`<html><head><script type="text/xquery">
declare sequential function local:probe($evt, $obj) {
  browser:alert(concat(
    string(browser:top()//window[@name="same"]/status), "|",
    string(browser:top()//window[@name="other"]/status)));
};
on event "click" at //input[@id="go"] attach listener local:probe
</script></head><body><input id="go"/></body></html>`,
			"http://a.example.com/", core.WithPolicy(policy))
		if err != nil {
			return nil, err
		}
		same := &browser.Window{Name: "same", Status: "visible"}
		sameLoc, _ := browser.ParseLocation("http://a.example.com/frame")
		same.Location = sameLoc
		other := &browser.Window{Name: "other", Status: "secret"}
		otherLoc, _ := browser.ParseLocation("https://bank.example.org/")
		other.Location = otherLoc
		h.Window.AddFrame(same)
		h.Window.AddFrame(other)
		return h, nil
	}

	checked, err := buildHost(browser.SameOriginPolicy{})
	if err != nil {
		return t, err
	}
	if err := checked.Click("go"); err != nil {
		return t, err
	}
	alerts := checked.Alerts()
	parts := strings.SplitN(alerts[len(alerts)-1], "|", 2)

	costChecked, err := MeasureNsPerOp(func() error {
		return checked.Click("go")
	}, 50, 100*time.Millisecond)
	if err != nil {
		return t, err
	}
	open, err := buildHost(browser.AllowAllPolicy{})
	if err != nil {
		return t, err
	}
	costOpen, err := MeasureNsPerOp(func() error {
		return open.Click("go")
	}, 50, 100*time.Millisecond)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"window status via browser:top()//window",
		fmt.Sprintf("%q", parts[0]),
		fmt.Sprintf("%q (empty sequence)", parts[1]),
		ns(costChecked),
		ns(costOpen),
	})
	return t, nil
}

// E8EventRegistration compares the paper's grammar extension (§4.3)
// with the high-order-function API the Zorba implementation used
// (§5.1): identical dispatch, comparable cost.
func E8EventRegistration() (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  "Ablation: event registration — §4.3 grammar vs §5.1 high-order functions",
		Header: []string{"route", "load+register", "dispatch/op", "fires identically"},
	}
	grammarPage := `<html><head><script type="text/xquery">
declare updating function local:l($evt, $obj) {
  replace value of node //span[@id="c"] with "hit"
};
on event "click" at //input[@id="b"] attach listener local:l
</script></head><body><input id="b"/><span id="c">0</span></body></html>`
	hofPage := `<html><head><script type="text/xquery">
declare updating function local:l($evt, $obj) {
  replace value of node //span[@id="c"] with "hit"
};
browser:addEventListener(//input[@id="b"], "click", "local:l")
</script></head><body><input id="b"/><span id="c">0</span></body></html>`

	for _, route := range []struct{ name, page string }{
		{"grammar extension (§4.3)", grammarPage},
		{"high-order function (§5.1)", hofPage},
	} {
		start := time.Now()
		h, err := core.LoadPage(route.page, "http://example.com/")
		if err != nil {
			return t, err
		}
		loadTime := time.Since(start)
		if err := h.Click("b"); err != nil {
			return t, err
		}
		fired := h.Page.ElementByID("c").StringValue() == "hit"
		cost, err := MeasureNsPerOp(func() error { return h.Click("b") },
			50, 100*time.Millisecond)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			route.name, dur(loadTime), ns(cost), fmt.Sprintf("%v", fired),
		})
	}
	return t, nil
}

// E9EndpointGranularity replays the E2 session against whole-document
// and per-query endpoints (§6.1's interface adjustment).
func E9EndpointGranularity() (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  "Ablation: whole-document vs per-query REST endpoints (§6.1)",
		Header: []string{"endpoint style", "server reqs", "server queries", "server bytes", "cache hits"},
		Notes: []string{
			"per-query endpoints force a server evaluation per interaction and defeat the document cache",
		},
	}
	r, err := apps.NewReference20(apps.DefaultCorpus)
	if err != nil {
		return t, err
	}
	defer r.Close()
	session := r.Session(40, 7)

	perQuery, err := apps.ReplayPerQueryClient(r, session)
	if err != nil {
		return t, err
	}
	cached, err := apps.NewClientSideApp(r, true)
	if err != nil {
		return t, err
	}
	wholeDoc, err := cached.Replay(session)
	if err != nil {
		return t, err
	}
	for _, row := range []struct {
		name string
		m    apps.Metrics
	}{
		{"per-query (original modules)", perQuery},
		{"whole-document + cache (adjusted)", wholeDoc},
	} {
		t.Rows = append(t.Rows, []string{
			row.name,
			fmt.Sprintf("%d", row.m.ServerRequests),
			fmt.Sprintf("%d", row.m.ServerQueries),
			fmt.Sprintf("%d", row.m.ServerBytes),
			fmt.Sprintf("%d", row.m.ClientCacheHits),
		})
	}
	return t, nil
}
