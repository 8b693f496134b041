package core_test

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/xmldb"
	"repro/internal/xquery"
)

// cartPage renders the shopping-cart application's page over an
// n-product database, the way its server half does.
func cartPage(tb testing.TB, n int) string {
	tb.Helper()
	var b strings.Builder
	b.WriteString("<products>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<product><name>product-%03d</name><price>%d</price></product>", i, 10+i)
	}
	b.WriteString("</products>")
	st, err := xmldb.Open("")
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.PutXML("products.xml", b.String()); err != nil {
		tb.Fatal(err)
	}
	page, err := apps.RenderShoppingCartXQuery(st)
	if err != nil {
		tb.Fatal(err)
	}
	return page
}

// BenchmarkLoadPage loads a page the way a serving pool does — a fresh
// host and engine per load, one program cache shared by all of them —
// and reports the plug-in stages a visit pays before its main query
// runs: init_us (browser state, engine, script extraction) and
// compile_us (every script through the cache).
func BenchmarkLoadPage(b *testing.B) {
	for _, page := range []struct{ name, src string }{
		{"cart", cartPage(b, 100)},
		{"table", apps.MultiplicationPage()},
	} {
		b.Run(page.name, func(b *testing.B) {
			cache := xquery.NewCache(0)
			var times core.StageTimes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := core.LoadPage(page.src, "http://bench.example.com/", core.WithProgramCache(cache))
				if err != nil {
					b.Fatal(err)
				}
				times.InitPlugin += h.Times.InitPlugin
				times.CompileScripts += h.Times.CompileScripts
			}
			b.ReportMetric(float64(times.InitPlugin.Microseconds())/float64(b.N), "init_us")
			b.ReportMetric(float64(times.CompileScripts.Microseconds())/float64(b.N), "compile_us")
			if st := cache.Stats(); st.Compiles != 1 {
				b.Errorf("compiles = %d over %d loads, want 1", st.Compiles, b.N)
			}
		})
	}
}

// BenchmarkListenerTurn is one browser event on a long-lived page —
// event, listener, pending updates — on the three interactive pages of
// cmd/bench's event_loop workload at its sizes: a Buy click on the
// 300-product cart (emptied every 32 buys, as a checkout would), a
// Reference 2.0 navigation over a 512-article catalog with the
// documents in the client's cache, and regenerating the 12×12
// multiplication table. Every turn mutates its page, and every turn's
// //elem[@id = K] lookups (and the host's getElementById) still answer
// from the page's id map, which the mutations keep current (DESIGN.md
// §5aa) — nav's variable-keyed $cat//issue[@id = $issue] too (§5ab).
func BenchmarkListenerTurn(b *testing.B) {
	b.Run("cart", func(b *testing.B) {
		h, err := core.LoadPage(cartPage(b, 300), "http://shop.example.com/cart")
		if err != nil {
			b.Fatal(err)
		}
		cart := h.Page.ElementByID("shoppingcart")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.Click(fmt.Sprintf("product-%03d", i%300)); err != nil {
				b.Fatal(err)
			}
			if i%32 == 31 {
				b.StopTimer()
				if len(cart.Children()) != 32 {
					b.Fatalf("cart holds %d items after 32 buys", len(cart.Children()))
				}
				cart.RemoveChildren()
				b.StartTimer()
			}
		}
	})
	b.Run("nav", func(b *testing.B) {
		r, err := apps.NewReference20(apps.CorpusConfig{Journals: 4, Volumes: 4, Issues: 4, Articles: 8, RefsPerArticle: 40, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		app, err := apps.NewClientSideApp(r, true)
		if err != nil {
			b.Fatal(err)
		}
		session := r.Session(48, 1) // few enough documents for the client's cache
		for _, it := range session {
			if err := app.Do(it); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := app.Do(session[i%len(session)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if app.ContentHTML() == "" {
			b.Fatal("navigation rendered nothing")
		}
	})
	b.Run("table", func(b *testing.B) {
		h, err := core.LoadPage(apps.MultiplicationPage(), "http://example.com/mult.html")
		if err != nil {
			b.Fatal(err)
		}
		h.Page.ElementByID("size").SetAttr(dom.Name("value"), "12")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.Click("generate"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if n := len(h.Page.ElementByID("out").Elements("td")); n != 144 {
			b.Fatalf("table has %d cells, want 144", n)
		}
	})
}

// TestNavTurnStreamsFromOneNode pins what streaming from a one-node
// focus buys the Reference 2.0 navigation of BenchmarkListenerTurn/nav:
// $doc/article/…, $cat//issue[@id = $issue]/article and $a/@id each
// stream from their one node instead of being materialized and sorted
// in a sorted stage, and the issue listing probes the id map with its
// variable key. That took a turn from 904 allocations to 584
// (EXPERIMENTS.md E5y); a step evaluation that allocates once for all
// its focus nodes, paths seeded by their node and literals built at
// plan time took it to 439 (EXPERIMENTS.md E5ad); its views built
// through one sized dom.Builder each took it from 370 to 304
// (EXPERIMENTS.md E5ag).
func TestNavTurnStreamsFromOneNode(t *testing.T) {
	r, err := apps.NewReference20(apps.CorpusConfig{Journals: 4, Volumes: 4, Issues: 4, Articles: 8, RefsPerArticle: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	app, err := apps.NewClientSideApp(r, true)
	if err != nil {
		t.Fatal(err)
	}
	session := r.Session(48, 1)
	replay := func() {
		for _, it := range session {
			if err := app.Do(it); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay() // the client's cache holds the session's documents from here on
	// 304 objects; 310 under -race, where sync.Pool drops a quarter of
	// what is put back.
	if perTurn := testing.AllocsPerRun(3, replay) / float64(len(session)); perTurn > 320 {
		t.Errorf("a navigation turn allocates %.0f times, want at most 320", perTurn)
	}
}

// TestListenerLookupAllocsIndependentOfPageSize pins what the planned
// [@id = K] predicate buys a listener: on a page the previous event
// mutated, //div[@id="k"] is answered from the page's id map, so a turn
// allocates the same whether the page holds 100 other divs or 2,000:
// nothing is visited, let alone allocated, per other div.
func TestListenerLookupAllocsIndependentOfPageSize(t *testing.T) {
	turn := func(candidates int) float64 {
		var b strings.Builder
		b.WriteString(`<html><head><script type="text/xqueryp">
declare updating function local:touch($evt, $obj) {
  replace value of node //div[@id="k"]/@n with string($obj/@id)
};
on event "click" at //input[@id="go"] attach listener local:touch
</script></head><body><input id="go" type="button"/>`)
		for i := 0; i < candidates; i++ {
			b.WriteString(`<div id="d` + strconv.Itoa(i) + `"/>`)
		}
		b.WriteString(`<div id="k" n=""/></body></html>`)
		h, err := core.LoadPage(b.String(), "http://example.com/")
		if err != nil {
			t.Fatal(err)
		}
		click := func() {
			if err := h.Click("go"); err != nil {
				t.Fatal(err)
			}
		}
		click() // the load-time path index dies here; the id map stays current
		allocs := testing.AllocsPerRun(20, click)
		if got := h.Page.ElementByID("k").AttrValue("n"); got != "go" {
			t.Fatalf("listener wrote %q", got)
		}
		return allocs
	}
	// Equal, up to the allocation or two that sync.Pool's randomised
	// misses under the race detector move between runs; one allocation
	// per candidate would be 1,900 apart, the old walker stack was 5.
	if small, large := turn(100), turn(2000); math.Abs(small-large) > 2 {
		t.Errorf("a turn allocates %v times with 100 candidates and %v with 2,000", small, large)
	}
}

// turnCost measures one listener turn on a loaded page after a warm-up
// turn: the objects and bytes it allocates, the least of runs turns'. A
// turn whose pooled scratch was dropped reads the scratch made again
// too: sync.Pool drops what it holds at collections, and under -race a
// quarter of what is put back, at random.
func turnCost(turn func()) (allocs, kb float64) {
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	turn()
	allocs, kb = math.Inf(1), math.Inf(1)
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		turn()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
		kb = min(kb, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	}
	return allocs, kb
}

// TestTableTurnBuildsItsContentOnce pins what adoption buys the paper's
// §6.3 table: regenerating the 12×12 table allocates each of its 157
// elements, 145 attributes and 144 text nodes once. With every <td>
// copied into its <tr>, every <tr> into the <table> and the <table>
// into the pending update list the same turn took 5,383 objects and
// 504 KB (EXPERIMENTS.md E5k); with 208-byte nodes and a separately
// allocated box per loop binding, 2,437 and 178 KB (E5l); with a
// Context copy and a frame per loop item, 2,275 and 137 KB (E5r); with
// a one-item sequence per loop item, a $evt element per click and each
// <tr>'s child list grown one <td> at a time, 1,620 and 82 KB; with an
// attribute list allocated beside each <td id>'s attribute node, 1,414
// and 77 KB (an element's single attribute sits in the element since);
// with each node, each child list and each attribute value template's
// string allocated on its own, 1,269 and 75.9 KB — the outermost
// constructor now records its content and builds the table through one
// sized dom.Builder (EXPERIMENTS.md E5ag).
func TestTableTurnBuildsItsContentOnce(t *testing.T) {
	h, err := core.LoadPage(apps.MultiplicationPage(), "http://example.com/mult.html")
	if err != nil {
		t.Fatal(err)
	}
	h.Page.ElementByID("size").SetAttr(dom.Name("value"), "12")
	allocs, kb := turnCost(func() {
		if err := h.Click("generate"); err != nil {
			t.Fatal(err)
		}
	})
	if n := len(h.Page.ElementByID("out").Elements("td")); n != 144 {
		t.Fatalf("table has %d cells, want 144", n)
	}
	// 295 objects and 66.5 KB, under -race too.
	if allocs > 300 || kb > 68 {
		t.Errorf("a 12×12 table turn allocates %.0f objects and %.1f KB, want at most 300 and 68", allocs, kb)
	} else {
		t.Logf("a 12×12 table turn allocates %.0f objects and %.1f KB", allocs, kb)
	}
}

// TestInsertAllocatesLinearlyInItems: a turn that inserts n constructed
// items costs the same per item at n = 2,000 as at n = 100, and each
// item is allocated once — the items go to the pending update list as
// they are, not copied into a scratch element's child list and taken
// back out of it one by one.
func TestInsertAllocatesLinearlyInItems(t *testing.T) {
	perItem := func(n int) float64 {
		h, err := core.LoadPage(`<html><head><script type="text/xqueryp">
declare updating function local:fill($evt, $obj) {
  (delete node //ul[@id="l"]/li,
   insert node (for $i in 1001 to `+strconv.Itoa(1000+n)+` return <li n="{$i}"/>) into //ul[@id="l"])
};
on event "click" at //input[@id="go"] attach listener local:fill
</script></head><body><input id="go" type="button"/><ul id="l"/></body></html>`, "http://example.com/")
		if err != nil {
			t.Fatal(err)
		}
		allocs, _ := turnCost(func() {
			if err := h.Click("go"); err != nil {
				t.Fatal(err)
			}
		})
		if got := len(h.Page.ElementByID("l").Children()); got != n {
			t.Fatalf("list holds %d items, want %d", got, n)
		}
		return allocs / float64(n)
	}
	// The fixed cost of a turn is spread over more items at 2,000, so
	// the larger turn is the cheaper one per item unless something grows
	// faster than the list. (The items count from 1001 so that every
	// @n costs its string: strconv hands out 0-99 for free, which made
	// the first 99 of 100 items an object cheaper than the 2,000's.)
	// An item costs 3 objects (the range's boxed integer and the
	// apply's undo records of the item it inserts and of the one it
	// deletes): the items are carved from the blocks of one built tree,
	// their @n values are slices of its one string, the loop's Context
	// copy and frame are the entry's, not the item's, and the loop binds
	// it as a cell of a 64-cell chunk. Its element, attribute and value
	// allocated on their own made that 8, a
	// one-item sequence per item 9, a copy and a frame per item 11,
	// copying the item into the pending list 18.
	if small, large := perItem(100), perItem(2000); large > small || large > 4 {
		t.Errorf("a turn allocates %.2f objects per inserted item at n = 100 and %.2f at n = 2,000, want no more at 2,000 and at most 4", small, large)
	}
}

// TestIgnoredEvtIsNotBuilt: a listener that never names $evt is handed
// () for it, so its turn allocates no event element. A listener that
// names it, on a branch never taken, pays for the element: the two
// turns differ by at least what EventToXML allocates. The element's
// shape is known before it is built, so it is built through one sized
// dom.Builder: at most 8 objects (40 when each field element, text and
// child list was an allocation of its own).
func TestIgnoredEvtIsNotBuilt(t *testing.T) {
	turn := func(body string) float64 {
		h, err := core.LoadPage(`<html><head><script type="text/xqueryp">
declare function local:f($evt, $obj) { `+body+` };
on event "click" at //input[@id="b"] attach listener local:f
</script></head><body><input id="b" type="button"/></body></html>`, "http://example.com/")
		if err != nil {
			t.Fatal(err)
		}
		allocs, _ := turnCost(func() {
			if err := h.Click("b"); err != nil {
				t.Fatal(err)
			}
		})
		if errs := h.WaitIdle(time.Second); len(errs) > 0 {
			t.Fatalf("async errors: %v", errs)
		}
		return allocs
	}
	target := dom.NewElement(dom.Name("input"))
	target.SetAttr(dom.Name("id"), "b")
	ev := &dom.Event{Type: "click", Button: 1, Target: target, Phase: dom.AtTarget}
	now := time.Now()
	built := testing.AllocsPerRun(20, func() { core.EventToXML(ev, now) })
	ignored, named := turn(`()`), turn(`if (count($obj) eq 2) then $evt else ()`)
	t.Logf("turn: %.0f objects ignoring $evt, %.0f naming it; an event element: %.0f", ignored, named, built)
	if built > 8 {
		t.Errorf("an event element allocates %.0f objects, want at most 8", built)
	}
	if named-ignored < built {
		t.Errorf("a turn allocates %.0f objects when its listener ignores $evt and %.0f when it names it; an event element is %.0f, so the first builds one too", ignored, named, built)
	}
}

// TestAttachAllocsOneSideRecordPerTarget: one "attach listener"
// statement registers one key and one callback for all its targets, so
// attaching to 800 buttons costs what attaching to 100 does plus one
// side record (the node's listener list) for each further button. A
// key, a boxed key and a closure per target made that four.
func TestAttachAllocsOneSideRecordPerTarget(t *testing.T) {
	const runs = 10
	attach := func(n int) float64 {
		var b strings.Builder
		b.WriteString(`<html><head><script type="text/xqueryp">
declare function local:f($evt, $obj) { () };
declare sequential function local:attach($evt, $obj) {
  on event "click" at //button attach listener local:f;
};
on event "click" at //input[@id="go"] attach listener local:attach
</script></head><body><input id="go" type="button"/>`)
		for i := 0; i < n; i++ {
			b.WriteString(`<button>Buy</button>`)
		}
		b.WriteString(`</body></html>`)
		// Each run attaches on a page of its own: a second attach to the
		// same buttons is a duplicate, which registers nothing.
		pages := make([]*core.Host, runs+1)
		for i := range pages {
			h, err := core.LoadPage(b.String(), "http://example.com/")
			if err != nil {
				t.Fatal(err)
			}
			pages[i] = h
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := pages[next].Click("go"); err != nil {
				t.Fatal(err)
			}
			next++
		})
		for _, h := range pages {
			if errs := h.WaitIdle(time.Second); len(errs) > 0 {
				t.Fatalf("async errors: %v", errs)
			}
			if got := len(h.Page.Elements("button")); got != n || h.Page.Elements("button")[n-1].ListenerCount("click") != 1 {
				t.Fatalf("page has %d buttons, the last with %d click listeners", got, h.Page.Elements("button")[n-1].ListenerCount("click"))
			}
		}
		return allocs
	}
	small, large := attach(100), attach(800)
	t.Logf("attach: %.0f objects to 100 buttons, %.0f to 800", small, large)
	if perTarget := (large - small) / 700; perTarget > 1.03 {
		t.Errorf("attaching to 100 buttons allocates %.0f objects and to 800 %.0f: %.2f per further button, want one side record", small, large, perTarget)
	}
}
