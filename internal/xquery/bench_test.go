package xquery

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dom/index"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/markup"
	"repro/internal/xdm"
)

// The A/B scenarios behind the index, full-text and optimizer speedups
// EXPERIMENTS.md quotes (E5b, E5d, E5e). Each is the same program run
// twice over the same document — with the feature and with its oracle
// switch, or for an optimizer rewrite as the annotate-only oracle
// program (compileOracle) — and is held to three things: byte-identical results with the
// counters showing the feature did the work (TestABScenarios), a floor
// on the ratio well under the recorded one (TestABScenarioFloors), and
// a Benchmark pair for the number itself:
//
//	go test ./internal/xquery -run '^$' -bench ABScenario -benchmem
type abScenario struct {
	name  string
	query string
	doc   func(testing.TB) xdm.Item
	// slow is the oracle's switch; the fast side runs the zero config.
	slow RunConfig
	// unoptimized makes the oracle the same query compiled from a module
	// nobody optimized: the optimizer rewrites have no run-time switch.
	unoptimized bool
	// did names the counter that must show the feature at work: "index"
	// or "ft" (one build over the immutable tree, a hit per run), "ids"
	// (the tree's id map answered, and no path index was built for it),
	// "join", "hoist" or "pushdown" (the rewrite fired exactly once).
	did string
	// floor is the least fast-over-slow speedup tolerated (0: none);
	// the trailing comments are the ratios EXPERIMENTS.md records.
	floor float64
}

var abScenarios = []abScenario{
	{name: "descendant", query: `count(//item)`, doc: widePage,
		slow: RunConfig{DisableIndexes: true}, did: "index", floor: 5}, // 14x
	{name: "id_probe", query: `//div[@id = "d71"]`, doc: widePage,
		slow: RunConfig{DisableIndexes: true}, did: "ids", floor: 5}, // 1700x
	{name: "ft_word", query: `count(//article[. ftcontains "marlin"])`, doc: articlePage,
		slow: RunConfig{DisableIndexes: true}, did: "ft", floor: 5}, // 29x
	{name: "ft_phrase", query: `count(//article[. ftcontains "coral reef"])`, doc: articlePage,
		slow: RunConfig{DisableIndexes: true}, did: "ft"},
	{name: "ft_score", query: `(for $a in //article[. ftcontains "marlin"]
		order by ft:score($a) descending
		return string($a/@id))[1]`, doc: articlePage,
		slow: RunConfig{DisableIndexes: true}, did: "ft"},
	// O(n+m) hash join against the O(n*m) nested loop.
	{name: "join", query: `for $o in //order for $i in //item where $o/@ref eq $i/@id
		return concat($o/@n, ":", $i/@n)`, doc: shopPage,
		unoptimized: true, did: "join", floor: 2}, // 64x
	// A loop-invariant let, recomputed per tuple when nobody hoists it.
	{name: "hoist", query: `for $i in //item
		let $total := sum(for $o in //order return string-length(string($o/@ref)))
		where $total > 0 return concat($i/@n, "/", $total)`, doc: shopPage,
		unoptimized: true, did: "hoist", floor: 2}, // 46x
	// A where conjunct pushed into the domain path becomes an id probe.
	{name: "pushdown", query: `for $d in //div where $d/@id = "d71" return string($d)`, doc: shopPage,
		unoptimized: true, did: "pushdown", floor: 2}, // 1100x
}

func parsePage(tb testing.TB, src string) xdm.Item {
	tb.Helper()
	d, err := markup.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	return xdm.NewNode(d)
}

// widePage is a flat page of 5,000 elements with an id attribute and a
// text child each, every tenth one an <item>.
func widePage(tb testing.TB) xdm.Item {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 5000; i++ {
		if i%10 == 0 {
			fmt.Fprintf(&sb, `<item id="i%d">v%d</item>`, i, i)
		} else {
			fmt.Fprintf(&sb, `<div id="d%d">c%d</div>`, i, i)
		}
	}
	sb.WriteString("</root>")
	return parsePage(tb, sb.String())
}

// articlePage holds 2,500 articles of 32 filler words none of the
// queries look for; every 50th also says "marlin", every 40th "coral
// reef".
func articlePage(tb testing.TB) xdm.Item {
	filler := strings.Fields(`the browser engine evaluates queries against
		documents while pages render nodes update scripts dispatch events
		forms submit values windows layout styles cascade trees traverse`)
	var sb strings.Builder
	sb.WriteString("<root>")
	seed := uint32(1)
	for i := 0; i < 2500; i++ {
		fmt.Fprintf(&sb, `<article id="a%d"><h>report %d</h><p>`, i, i)
		for w := 0; w < 32; w++ {
			seed = seed*1664525 + 1013904223
			sb.WriteString(filler[seed%uint32(len(filler))])
			sb.WriteByte(' ')
		}
		if i%50 == 0 {
			sb.WriteString("marlin ")
		}
		if i%40 == 0 {
			sb.WriteString("coral reef ")
		}
		sb.WriteString("</p></article>")
	}
	sb.WriteString("</root>")
	return parsePage(tb, sb.String())
}

// shopPage holds 150 items, 150 orders referencing them (every third
// one dangling: an empty probe group) and 1,500 divs of padding, so the
// pushed-down predicate has an id map worth probing.
func shopPage(tb testing.TB) xdm.Item {
	const entries = 150
	var sb strings.Builder
	sb.WriteString("<shop>")
	for i := 0; i < entries; i++ {
		fmt.Fprintf(&sb, `<item id="sku%d" n="i%d"/>`, i, i)
	}
	for i := 0; i < entries; i++ {
		ref := i
		if i%3 == 0 {
			ref = entries + i
		}
		fmt.Fprintf(&sb, `<order ref="sku%d" n="o%d"/>`, ref, i)
	}
	for i := 0; i < entries*10; i++ {
		fmt.Fprintf(&sb, `<div id="d%d">c%d</div>`, i, i)
	}
	sb.WriteString("</shop>")
	return parsePage(tb, sb.String())
}

// sides compiles the scenario and returns its two runs over one parse
// of its document.
func (sc abScenario) sides(tb testing.TB) (p *Program, doc xdm.Item, fast, slow func() string) {
	tb.Helper()
	p, err := New().Compile(sc.query)
	if err != nil {
		tb.Fatalf("%s: %v", sc.name, err)
	}
	oracle := p
	if sc.unoptimized {
		if oracle, err = compileOracle(tb, New(), sc.query); err != nil {
			tb.Fatalf("%s: %v", sc.name, err)
		}
	}
	doc = sc.doc(tb)
	run := func(p *Program, cfg RunConfig) func() string {
		cfg.ContextItem = doc
		return func() string {
			res, err := p.Run(cfg)
			if err != nil {
				tb.Fatalf("%s: %v", sc.name, err)
			}
			return FormatSequence(res.Value, markup.AppendXML)
		}
	}
	return p, doc, run(p, RunConfig{}), run(oracle, sc.slow)
}

func TestABScenarios(t *testing.T) {
	for _, sc := range abScenarios {
		t.Run(sc.name, func(t *testing.T) {
			p, doc, fast, slow := sc.sides(t)
			const runs = 3
			idx0, ft0 := index.Snapshot(), ftindex.Snapshot()
			var got string
			for i := 0; i < runs; i++ {
				got = fast()
			}
			idx, ft := index.Snapshot(), ftindex.Snapshot()
			if want := slow(); got != want || got == "" {
				t.Fatalf("result %.120q, oracle %.120q (must match and be non-empty)", got, want)
			}
			st := p.RewriteStats()
			switch sc.did {
			case "index":
				if b, h := idx.Builds-idx0.Builds, idx.Hits-idx0.Hits; b != 1 || h < runs {
					t.Errorf("%d index builds and %d hits over %d runs of an immutable tree, want 1 build and a hit per run", b, h, runs)
				}
			case "ids":
				if n, _ := xdm.IsNode(doc); !n.HasIDMap() || idx.Builds != idx0.Builds {
					t.Errorf("id map built: %v; %d path index builds, want the map and none", n.HasIDMap(), idx.Builds-idx0.Builds)
				}
			case "ft":
				if b, h := ft.Builds-ft0.Builds, ft.Hits-ft0.Hits; b != 1 || h < runs {
					t.Errorf("%d full-text builds and %d hits over %d runs of an immutable tree, want 1 build and a hit per run", b, h, runs)
				}
			case "join", "hoist", "pushdown":
				fired := map[string]int{"join": st.Joins, "hoist": st.Hoists, "pushdown": st.Pushdowns}[sc.did]
				if fired != 1 {
					t.Errorf("rewrites %+v, want the %s fired exactly once", st, sc.did)
				}
			}
		})
	}
}

// fastest is the least of n timings of f: the floor tests compare best
// cases, so a descheduled run costs a repeat and not a failure.
func fastest(n int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		best = min(best, time.Since(start))
	}
	return best
}

func TestABScenarioFloors(t *testing.T) {
	for _, sc := range abScenarios {
		if sc.floor == 0 {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			_, _, fast, slow := sc.sides(t)
			fast() // builds what the fast side probes
			f := fastest(5, func() { fast() })
			s := fastest(2, func() { slow() })
			if ratio := float64(s) / float64(f); ratio < sc.floor {
				t.Errorf("%v against the oracle's %v: %.1fx, want at least %.0fx", f, s, ratio, sc.floor)
			}
		})
	}
}

func BenchmarkABScenario(b *testing.B) {
	for _, sc := range abScenarios {
		_, _, fast, slow := sc.sides(b)
		for _, side := range []struct {
			name string
			run  func() string
		}{{"fast", fast}, {"oracle", slow}} {
			b.Run(sc.name+"/"+side.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					side.run()
				}
			})
		}
	}
}
