package xqib

// One benchmark per experiment of DESIGN.md §4 (E1..E9). The same
// workloads back cmd/experiments, which prints paper-shaped tables;
// these testing.B entry points give statistically solid per-op numbers:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/experiments"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// --- E1: plug-in pipeline (Figure 1) -----------------------------------------

func e1Page(divs int) string {
	var b strings.Builder
	b.WriteString(`<html><head><script type="text/xquery">
declare updating function local:onClick($evt, $obj) {
  replace value of node //span[@id="count"]
  with xs:integer(string(//span[@id="count"])) + 1
};
on event "click" at //input[@id="button"]
attach listener local:onClick
</script></head><body>
<input id="button" type="button"/><span id="count">0</span>`)
	for i := 0; i < divs; i++ {
		fmt.Fprintf(&b, `<div class="filler" id="d%d">content %d</div>`, i, i)
	}
	b.WriteString(`</body></html>`)
	return b.String()
}

// BenchmarkE1_PipelineLoad measures the full load pipeline: parse page,
// init plug-in, compile the script, run main (listener registration).
func BenchmarkE1_PipelineLoad(b *testing.B) {
	for _, divs := range []int{10, 100, 1000} {
		page := e1Page(divs)
		b.Run(fmt.Sprintf("divs=%d", divs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.LoadPage(page, "http://example.com/"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE1_PipelineDispatch measures stage 4: one browser event
// through capture/target/bubble plus the XQuery listener and its
// update application.
func BenchmarkE1_PipelineDispatch(b *testing.B) {
	for _, divs := range []int{10, 100, 1000} {
		h, err := core.LoadPage(e1Page(divs), "http://example.com/")
		if err != nil {
			b.Fatal(err)
		}
		btn := h.Page.ElementByID("button")
		b.Run(fmt.Sprintf("divs=%d", divs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.Dispatch(&dom.Event{Type: "click", Bubbles: true, Button: 1}, btn)
			}
		})
	}
}

// --- E2: server-to-client migration (Figure 2) ---------------------------------

func benchReference20(b *testing.B, replay func(r *apps.Reference20, session []apps.Interaction) (apps.Metrics, error)) {
	r, err := apps.NewReference20(apps.DefaultCorpus)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	session := r.Session(20, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay(r, session); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_ServerSide(b *testing.B) {
	benchReference20(b, func(r *apps.Reference20, session []apps.Interaction) (apps.Metrics, error) {
		app, err := apps.NewServerSideApp(r)
		if err != nil {
			return apps.Metrics{}, err
		}
		return app.Replay(session)
	})
}

func BenchmarkE2_ClientSideCached(b *testing.B) {
	benchReference20(b, func(r *apps.Reference20, session []apps.Interaction) (apps.Metrics, error) {
		app, err := apps.NewClientSideApp(r, true)
		if err != nil {
			return apps.Metrics{}, err
		}
		return app.Replay(session)
	})
}

func BenchmarkE2_ClientSideUncached(b *testing.B) {
	benchReference20(b, func(r *apps.Reference20, session []apps.Interaction) (apps.Metrics, error) {
		app, err := apps.NewClientSideApp(r, false)
		if err != nil {
			return apps.Metrics{}, err
		}
		return app.Replay(session)
	})
}

// --- E3: mash-up co-existence (Figure 3) ----------------------------------------

func BenchmarkE3_MashupEvent(b *testing.B) {
	m, err := apps.NewMashup()
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	cities := []string{"Madrid", "Zurich", "Oslo", "Lisbon"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Search(cities[i%len(cities)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: lines of code / table generation ----------------------------------------

func BenchmarkE4_MultiplicationTableXQuery(b *testing.B) {
	h, err := apps.RunMultiplicationXQuery(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Click("generate"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_MultiplicationTableJS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := apps.RunMultiplicationJS(10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: XQuery vs imperative DOM scripting ---------------------------------------

func BenchmarkE5(b *testing.B) {
	cases, err := experiments.E5Cases()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		name := strings.ReplaceAll(c.Name, " ", "_")
		b.Run(name+"/xquery", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.XQuery(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/imperative", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.Imperative(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5 addendum: streaming early exit ---------------------------------------
//
// The lazy iterator runtime decides (//div)[1], fn:exists(//div) and
// some-satisfies after pulling O(1) items; each is paired with a query
// that has to consume the whole of the same path
// (experiments.EarlyExitPairs). Run with -benchmem: the allocs/op gap
// is the experiment.

func benchEarlyExit(b *testing.B, pair int) {
	e := xquery.New()
	queries := experiments.EarlyExitPairs[pair]
	for _, size := range []int{10_000, 100_000} {
		item, err := experiments.EarlyExitDoc(size)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range []struct{ name, src string }{{"exit", queries.Exit}, {"consume", queries.Consume}} {
			p := e.MustCompile(q.src)
			b.Run(fmt.Sprintf("n=%d/%s", size, q.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.Run(xquery.RunConfig{ContextItem: item, DisableIndexes: true}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkE5_EarlyExitFirst(b *testing.B)  { benchEarlyExit(b, 0) }
func BenchmarkE5_EarlyExitExists(b *testing.B) { benchEarlyExit(b, 1) }
func BenchmarkE5_EarlyExitSome(b *testing.B)   { benchEarlyExit(b, 2) }

// --- E6: asynchronous behind-calls --------------------------------------------------

func BenchmarkE6_AsyncSuggest(b *testing.B) {
	s, err := apps.NewSuggest()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	inputs := []string{"A", "B", "Li", "Gu"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Type(inputs[i%len(inputs)]); err != nil {
			b.Fatal(err)
		}
		if errs := s.Wait(); len(errs) > 0 {
			b.Fatal(errs[0])
		}
	}
}

// --- E7: same-origin security --------------------------------------------------------

func BenchmarkE7_SecurityCheck(b *testing.B) {
	h, err := core.LoadPage(`<html><head><script type="text/xquery">
declare sequential function local:probe($evt, $obj) {
  browser:alert(string(count(browser:top()//window)));
};
on event "click" at //input[@id="go"] attach listener local:probe
</script></head><body><input id="go"/></body></html>`, "http://a.example.com/")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Click("go"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: event registration routes ----------------------------------------------------

func BenchmarkE8_EventRegistration(b *testing.B) {
	pages := map[string]string{
		"grammar": `<html><head><script type="text/xquery">
declare updating function local:l($evt, $obj) {
  replace value of node //span[@id="c"] with "hit"
};
on event "click" at //input[@id="b"] attach listener local:l
</script></head><body><input id="b"/><span id="c">0</span></body></html>`,
		"hof": `<html><head><script type="text/xquery">
declare updating function local:l($evt, $obj) {
  replace value of node //span[@id="c"] with "hit"
};
browser:addEventListener(//input[@id="b"], "click", "local:l")
</script></head><body><input id="b"/><span id="c">0</span></body></html>`,
	}
	for name, page := range pages {
		h, err := core.LoadPage(page, "http://example.com/")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := h.Click("b"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: endpoint granularity -----------------------------------------------------------

func BenchmarkE9_EndpointGranularity(b *testing.B) {
	r, err := apps.NewReference20(apps.DefaultCorpus)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	session := r.Session(20, 7)
	b.Run("per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apps.ReplayPerQueryClient(r, session); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("whole-doc-cached", func(b *testing.B) {
		app, err := apps.NewClientSideApp(r, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := app.Replay(session); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- engine microbenchmarks (supporting E5 and the paper's
// "highly optimisable" claim in §1) ------------------------------------------------------

func BenchmarkEngineCompile(b *testing.B) {
	e := xquery.New()
	src := `declare function local:f($x) { $x * 2 };
	for $i in 1 to 10 where $i mod 2 = 0 order by -$i return local:f($i)`
	for i := 0; i < b.N; i++ {
		if _, err := e.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineFLWOR(b *testing.B) {
	e := xquery.New()
	prog, err := e.Compile(`sum(for $i in 1 to 1000 where $i mod 3 = 0 return $i)`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(xquery.RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnginePathQuery(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<lib>")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, `<book year="%d"><title>T%d</title></book>`, 1990+i%20, i)
	}
	sb.WriteString("</lib>")
	doc, err := markup.Parse(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	e := xquery.New()
	prog, err := e.Compile(`count(//book[@year > 2000]/title)`)
	if err != nil {
		b.Fatal(err)
	}
	cfg := xquery.RunConfig{ContextItem: xdm.NewNode(doc)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineFullText(b *testing.B) {
	e := xquery.New()
	prog, err := e.Compile(`"the quick brown foxes were running" ftcontains ("fox" with stemming) ftand "running"`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(xquery.RunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDOMParseHTML(b *testing.B) {
	page := e1Page(200)
	b.SetBytes(int64(len(page)))
	for i := 0; i < b.N; i++ {
		if _, err := markup.ParseHTML(page); err != nil {
			b.Fatal(err)
		}
	}
}
