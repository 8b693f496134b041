package xquery

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dom/index"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
)

// pathIndexCorpus exercises every access method the path planner
// assigns — name probes, id probes, the scan fallback — plus shapes
// designed to tempt a wrong plan: positional predicates, axes the
// planner must leave alone, ids that do not exist, empty and duplicate
// ids, union dedup that routes through the index sort.
var pathIndexCorpus = []string{
	`//book`,
	`count(//book)`,
	`//book/title/string()`,
	`(//book)[2]/@id/string()`,
	`//book[position() < 3]/author/string()`,
	`//book[last()]/@id/string()`,
	`//author`,
	`//missing`,
	`/descendant::book[1]/@id/string()`,
	`//*[@id = "b2"]/title/string()`,
	`//book[@id = "b3"]`,
	`//book[@id = "nope"]`,
	`//book[@id = ""]`,
	`descendant::book[@id eq "b1"]/author/string()`,
	`//book[@id = "b2"][1]/title/string()`,
	`//book[price > 50]/@id/string()`,
	`(//book, //book[2], //author)/name()`,
	`(//author | //title)/string()`,
	`string-join(//book/ancestor-or-self::*/name(), "/")`,
	`fn:exists(//book[author = "Knuth"])`,
	`some $b in //book satisfies $b/@year = "1994"`,
	`for $b in //book order by $b/@year return $b/@id/string()`,
	`fn:id("b2")/title/string()`,
	`fn:id(("b3", "b1"))/@id/string()`,
	`fn:id("b1 b2")/name()`,
	`fn:id("")`,
	`count(//book/following::author)`,
	`//book/child::title/string()`,
}

// runModes runs one query with indexes on and off against the same
// document and reports each formatted result (or error).
func runModes(t *testing.T, p *Program, doc xdm.Item) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, m := range []struct {
		name    string
		noIndex bool
	}{
		{"index", false},
		{"scan", true},
	} {
		res, err := p.Run(RunConfig{ContextItem: doc, DisableIndexes: m.noIndex})
		if err != nil {
			out[m.name] = "error: " + err.Error()
			continue
		}
		out[m.name] = FormatSequence(res.Value, markup.AppendXML)
	}
	return out
}

// TestPathIndexDifferential: with indexes force-enabled and
// force-disabled, every corpus query over the same document must
// produce byte-identical output.
func TestPathIndexDifferential(t *testing.T) {
	e := New()
	doc := xdm.NewNode(libraryDoc(t))
	for _, q := range pathIndexCorpus {
		p, err := e.Compile(q)
		if err != nil {
			t.Fatalf("%q: compile: %v", q, err)
		}
		got := runModes(t, p, doc)
		want := got["scan"]
		for mode, res := range got {
			if res != want {
				t.Errorf("%q: %s = %q, scan = %q", q, mode, res, want)
			}
		}
	}
}

// TestPathIndexDifferentialAfterUpdates interleaves DOM mutations with
// reads: after each updating query the stale index must be ignored, so
// indexed and scan modes keep agreeing on the new tree.
func TestPathIndexDifferentialAfterUpdates(t *testing.T) {
	e := New()
	doc := xdm.NewNode(libraryDoc(t))
	updates := []string{
		`insert node <book year="2026" id="b4"><title>New</title><author>Nobody</author></book> into /library`,
		`replace value of node (//book/@id)[1] with "b9"`,
		`delete node //book[@id = "b2"]`,
		`rename node (//book/title)[1] as "heading"`,
		`insert node attribute id {"b2"} into //book[@year = "2026"][1]`,
	}
	reads := []string{
		`//book/@id/string()`,
		`//book[@id = "b2"]/name()`,
		`fn:id("b2 b9")/@year/string()`,
		`count(//title)`,
		`count(//heading)`,
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range reads {
			p, err := e.Compile(q)
			if err != nil {
				t.Fatalf("%q: compile: %v", q, err)
			}
			got := runModes(t, p, doc)
			want := got["scan"]
			for mode, res := range got {
				if res != want {
					t.Errorf("%s: %q: %s = %q, scan = %q", stage, q, mode, res, want)
				}
			}
		}
	}
	check("initial")
	for _, u := range updates {
		p, err := e.Compile(u)
		if err != nil {
			t.Fatalf("%q: compile: %v", u, err)
		}
		// Run the update itself with indexes on: its target paths
		// probe the index, and its PUL must invalidate it.
		if _, err := p.Run(RunConfig{ContextItem: doc}); err != nil {
			t.Fatalf("%q: run: %v", u, err)
		}
		check(u)
	}
}

// TestPathIndexLazyRebuildAcrossUpdates pins the invalidation contract
// at the engine level: an updating query bumps the document version,
// the stale index is never consulted (post-update reads scan and stay
// correct), no rebuild happens until probe traffic at the new version
// crosses the amortisation threshold, and repeated reads on an
// unchanged tree never rebuild.
func TestPathIndexLazyRebuildAcrossUpdates(t *testing.T) {
	e := New()
	doc := xdm.NewNode(libraryDoc(t))
	read := e.MustCompile(`count(//book)`)
	update := e.MustCompile(`insert node <book id="bx"/> into /library`)

	runRead := func(want string) {
		t.Helper()
		res, err := read.Run(RunConfig{ContextItem: doc})
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatSequence(res.Value, markup.AppendXML); got != want {
			t.Fatalf("count(//book) = %s, want %s", got, want)
		}
	}
	base := index.Snapshot().Builds
	runRead("3")
	if d := index.Snapshot().Builds - base; d != 1 {
		t.Fatalf("first indexed read built %d indexes, want 1 (cold tree builds immediately)", d)
	}
	runRead("3")
	runRead("3")
	if d := index.Snapshot().Builds - base; d != 1 {
		t.Fatalf("repeat reads on an unchanged tree built %d indexes, want 1", d)
	}
	if _, err := update.Run(RunConfig{ContextItem: doc}); err != nil {
		t.Fatal(err)
	}
	if d := index.Snapshot().Builds - base; d != 1 {
		t.Fatalf("the update itself built %d extra indexes, want 0 (rebuild must be lazy)", d-1)
	}
	// The first post-update reads fall below Probe's amortisation
	// threshold: they scan (correct results, no rebuild). Sustained
	// reads at the settled version then rebuild exactly once.
	runRead("4")
	if d := index.Snapshot().Builds - base; d != 1 {
		t.Fatalf("a single post-update read built %d extra indexes, want 0 (scan until amortised)", d-1)
	}
	for i := 0; i < 8; i++ {
		runRead("4")
	}
	if d := index.Snapshot().Builds - base; d != 2 {
		t.Fatalf("sustained post-update reads built %d total indexes, want 2 (exactly one rebuild)", d)
	}
}

// TestPathIndexProfilerAndMetrics: index hits surface in the profiler's
// Path row and in the process-wide counters serve.Metrics snapshots.
func TestPathIndexProfilerAndMetrics(t *testing.T) {
	e := New()
	doc := xdm.NewNode(libraryDoc(t))
	p := e.MustCompile(`count(//book) + count(//author)`)
	before := index.Snapshot()
	prof := runtime.NewProfiler()
	if _, err := p.Run(RunConfig{ContextItem: doc, Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	if hits := prof.IndexHitsFor("Path"); hits != 2 {
		t.Errorf("profiler Path index hits = %d, want 2 (one per // step)", hits)
	}
	if !strings.Contains(prof.Format(), "idxhits") {
		t.Errorf("profiler report missing idxhits column:\n%s", prof.Format())
	}
	after := index.Snapshot()
	if after.Hits-before.Hits < 2 {
		t.Errorf("global index hits grew by %d, want >= 2", after.Hits-before.Hits)
	}
	if after.Builds <= 0 {
		t.Errorf("global index builds = %d, want > 0", after.Builds)
	}

	// The scan mode must record no hits.
	prof = runtime.NewProfiler()
	if _, err := p.Run(RunConfig{ContextItem: doc, Profiler: prof, DisableIndexes: true}); err != nil {
		t.Fatal(err)
	}
	if hits := prof.IndexHitsFor("Path"); hits != 0 {
		t.Errorf("DisableIndexes run recorded %d index hits, want 0", hits)
	}
}

// FuzzIndexDifferential cross-checks the index-backed path evaluator
// against the scan baseline: any input that compiles and succeeds in
// both modes must agree, and the indexed mode may never introduce an
// error the scan does not hit.
func FuzzIndexDifferential(f *testing.F) {
	for _, s := range pathIndexCorpus {
		f.Add(s)
	}
	doc, err := markup.Parse(libraryXML)
	if err != nil {
		f.Fatal(err)
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e := New()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		p, err := e.Compile(src)
		if err != nil {
			return
		}
		run := func(noIndex bool) (string, error) {
			res, err := p.Run(RunConfig{
				ContextItem:    xdm.NewNode(doc),
				DisableIndexes: noIndex,
				MaxSteps:       200_000,
				Timeout:        time.Second,
				Now:            now,
			})
			if err != nil {
				return "", err
			}
			return FormatSequence(res.Value, markup.AppendXML), nil
		}
		indexed, ierr := run(false)
		scanned, serr := run(true)
		if ierr != nil && serr == nil {
			t.Fatalf("%q: indexed errored (%v) but scan succeeded (%q)", src, ierr, scanned)
		}
		if ierr == nil && serr == nil && indexed != scanned {
			t.Fatalf("%q: indexed %q != scan %q", src, indexed, scanned)
		}
	})
}

// TestPathIndexWideDocAgreement drives the two modes over a much wider
// document than the library fixture, including mid-test mutations, so
// the binary-search slicing and the merge sort see non-trivial list
// sizes.
func TestPathIndexWideDocAgreement(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 500; i++ {
		if i%7 == 0 {
			fmt.Fprintf(&sb, `<item id="i%d"><sub id="s%d"/>t%d</item>`, i, i, i)
		} else {
			fmt.Fprintf(&sb, `<div id="d%d">c%d</div>`, i, i)
		}
	}
	sb.WriteString("</root>")
	d, err := markup.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	doc := xdm.NewNode(d)
	e := New()
	queries := []string{
		`count(//item)`,
		`count(//sub)`,
		`(//item)[37]/@id/string()`,
		`//item[@id = "i343"]/sub/@id/string()`,
		`(//sub | //item)[100]/name()`,
		`fn:id("i70 d71 s77")/name()`,
		`count(//item/descendant::sub)`,
	}
	mutate := e.MustCompile(`delete node //item[@id = "i343"]`)
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			p, err := e.Compile(q)
			if err != nil {
				t.Fatalf("%q: compile: %v", q, err)
			}
			got := runModes(t, p, doc)
			want := got["scan"]
			for mode, res := range got {
				if res != want {
					t.Errorf("round %d: %q: %s = %q, scan = %q", round, q, mode, res, want)
				}
			}
		}
		if round == 0 {
			if _, err := mutate.Run(RunConfig{ContextItem: doc}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
