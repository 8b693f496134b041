package parser_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/xquery/analysis"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

// adhocQuery has the shape of the store's ad hoc read queries: a
// string built around a path with two attribute predicates.
const adhocQuery = `concat("a17", ":", count(/article[@id = "a17"]/references/ref[@year = "1994"]))`

// parseCorpus is the text a page load and an ad hoc store read parse:
// the script blocks of the demo pages, the shopping-cart server module
// and the ad hoc query.
func parseCorpus(tb testing.TB) map[string][]string {
	pages := map[string]string{
		"multiplication": apps.MultiplicationPage(),
		"suggest":        apps.SuggestPage("http://example.com/suggest.wsdl"),
		"mashup":         apps.MashupPage("http://example.com/w", "http://example.com/wde", "http://example.com/cam"),
	}
	corpus := map[string][]string{
		"cart":  {apps.ShoppingCartXQueryServer},
		"adhoc": {adhocQuery},
	}
	for name, page := range pages {
		for _, s := range analysis.ExtractScripts(page) {
			corpus[name] = append(corpus[name], s.Source)
		}
		if len(corpus[name]) == 0 {
			tb.Fatalf("%s page has no script blocks", name)
		}
	}
	return corpus
}

// BenchmarkParse parses each corpus entry's texts once per iteration.
func BenchmarkParse(b *testing.B) {
	for name, srcs := range parseCorpus(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					if _, err := parser.ParseModule(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestParseAllocs pins the allocations of one ad hoc query parse. The
// lexer's lookahead buffer keeps its capacity as tokens are consumed,
// so a parse allocates for the tree and the token texts, not once per
// token for the buffer.
func TestParseAllocs(t *testing.T) {
	const max = 70
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := parser.ParseModule(adhocQuery); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > max {
		t.Errorf("parsing the ad hoc query allocates %.0f times, want at most %d", allocs, max)
	}
}

// TestCompileAllocs pins the allocations of compiling each corpus entry
// once: parse, the planning pass (plan.Prepare: the binding table, the
// static properties, the planner and the optimizer) and the compiled
// function layer. Name resolution rides on the parse, and the binding
// table is one allocation per module, so no pass allocates per
// variable reference.
func TestCompileAllocs(t *testing.T) {
	max := map[string]float64{"cart": 257, "adhoc": 108, "multiplication": 418, "suggest": 303, "mashup": 630}
	for name, srcs := range parseCorpus(t) {
		allocs := testing.AllocsPerRun(50, func() {
			for _, src := range srcs {
				m, err := parser.ParseModule(src)
				if err != nil {
					t.Fatal(err)
				}
				runtime.CompileFunctions(m) // plans the module (plan.Prepare) first
			}
		})
		t.Logf("%s: %.0f allocations", name, allocs)
		if allocs > max[name] {
			t.Errorf("compiling %s allocates %.0f times, want at most %.0f", name, allocs, max[name])
		}
	}
}
