package xmldb

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/markup"
	"repro/internal/xquery"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/plan"
)

// joinStore holds a catalog of three issues and a journal collection
// of four articles, and an empty collection. Issue i1 lists two of the
// articles, i2 one the journal does not hold, i3 all four (the
// benchmark's issues have four).
func joinStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open("", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, col := range []string{"/db/j1", "/db/empty"} {
		if err := s.CreateCollection(col); err != nil {
			t.Fatal(err)
		}
	}
	put := func(uri, src string) {
		if err := s.PutXML(uri, src); err != nil {
			t.Fatal(err)
		}
	}
	put("/db/catalog.xml", `<catalog>
		<issue id="i1"><article id="a1" title="One"/><article id="a3" title="Three"/></issue>
		<issue id="i2"><article id="a9" title="Nine"/></issue>
		<issue id="i3"><article id="a4"/><article id="a3"/><article id="a2"/><article id="a1"/></issue></catalog>`)
	for i, y := range []int{1990, 1991, 1990, 1992} {
		put(fmt.Sprintf("/db/j1/a%d.xml", i+1), fmt.Sprintf(`<article id="a%d" year="%d"/>`, i+1, y))
	}
	return s
}

// storeTrees compiles src three ways: optimized, annotate-only and
// unplanned.
func storeTrees(t *testing.T, e *xquery.Engine, src string) [3]*xquery.Program {
	t.Helper()
	var out [3]*xquery.Program
	var err error
	if out[0], err = e.Compile(src); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	for i, prepare := range []func(*ast.Module){plan.Annotate, func(*ast.Module) {}} {
		m, err := parser.ParseModule(src)
		if err != nil {
			t.Fatal(err)
		}
		m.EnsurePlanned(func() { prepare(m) })
		if out[i+1], err = e.CompileModule(m); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestStoredJoinsAndHoistsDifferential holds joins and hoisted lets
// over the store's doc() and collection() to one answer — value or
// error text — across the optimized, the annotate-only and the
// unplanned tree, and checks that the optimizer did take each.
func TestStoredJoinsAndHoistsDifferential(t *testing.T) {
	s := joinStore(t)
	const catalog = `doc("/db/catalog.xml")`
	errNope := fmt.Sprintf(`error: fn:collection("/db/nope"): %v: /db/nope`, ErrNoCollection)
	for _, c := range []struct {
		src           string
		joins, hoists bool
		want          string // the optimized tree's answer: a value, or the error text
	}{
		// A matching key, in both projections of the benchmark's shape.
		{src: `for $c in ` + catalog + `//issue[@id = "i1"]/article, $a in collection("/db/j1")/article
			where $a/@id = $c/@id return concat($c/@title, " ", $a/@year)`, joins: true, want: "One 1990 Three 1990"},
		{src: `for $c in ` + catalog + `//issue[@id = "i1"]/article, $a in collection("/db/j1")/article
			where $c/@id = $a/@id return concat($a/@year, " ", $c/@id)`, joins: true, want: "1990 a1 1990 a3"},
		// No match.
		{src: `for $c in ` + catalog + `//issue[@id = "i2"]/article, $a in collection("/db/j1")/article
			where $a/@id = $c/@id return string($a/@id)`, joins: true, want: ""},
		// A missing collection in the build domain: the same error.
		{src: `for $c in ` + catalog + `//article, $a in collection("/db/nope")/article
			where $a/@id = $c/@id return 1`, joins: true, want: errNope},
		// An empty outer loop never evaluates the domain: no error.
		{src: `for $c in ` + catalog + `//issue[@id = "none"]/article, $a in collection("/db/nope")/article
			where $a/@id = $c/@id return 1`, joins: true, want: ""},
		{src: `for $c in ` + catalog + `//article, $a in collection("/db/empty")/article
			where $a/@id = $c/@id return 1`, joins: true, want: ""},
		// Hoisted lets and conjuncts over doc() and collection().
		{src: `for $c in ` + catalog + `//article let $all := collection("/db/j1")/article
			return count($all[@id = $c/@id])`, hoists: true, want: "1 1 0 1 1 1 1"},
		{src: `for $i in 1 to 3 let $d := ` + catalog + ` return count($d//article) + $i`, hoists: true, want: "8 9 10"},
		{src: `for $a in collection("/db/j1")/article where ` + catalog + `//issue[@id = "i2"]
			return string($a/@id)`, hoists: true, want: "a1 a2 a3 a4"},
		{src: `for $a in collection("/db/j1")/article let $n := count(collection("/db/nope"))
			return $n`, hoists: true, want: errNope},
		{src: `for $a in collection("/db/empty")/article let $n := count(collection("/db/nope"))
			return $n`, hoists: true, want: ""},
	} {
		e := xquery.New()
		trees := storeTrees(t, e, c.src)
		st := trees[0].RewriteStats()
		if c.joins && st.Joins == 0 || c.hoists && st.Hoists == 0 {
			t.Errorf("%s: rewrites %+v, want a join %v, a hoist %v", c.src, st, c.joins, c.hoists)
		}
		var outs [3]string
		for i, p := range trees {
			res, err := p.Run(xquery.RunConfig{Docs: s.Resolver(), Collections: s.CollectionSource()})
			if err != nil {
				outs[i] = "error: " + err.Error()
			} else {
				outs[i] = xquery.FormatSequence(res.Value, markup.AppendXML)
			}
		}
		if outs[0] != outs[1] || outs[0] != outs[2] {
			t.Errorf("%s:\n optimized     %q\n annotate-only %q\n unplanned     %q", c.src, outs[0], outs[1], outs[2])
		}
		if outs[0] != c.want {
			t.Errorf("%s = %q, want %q", c.src, outs[0], c.want)
		}
	}
}

// TestStoredJoinScansOnce: the benchmark's catalog join reads the
// collection once, the build side of a hash join, where the nested
// loop it replaces scanned it once per outer tuple (four here).
func TestStoredJoinScansOnce(t *testing.T) {
	s := joinStore(t)
	p := xquery.New().MustCompile(`for $c in doc("/db/catalog.xml")//issue[@id = "i3"]/article,
		$a in collection("/db/j1")/article where $a/@id = $c/@id return string($a/@id)`)
	before := s.Stats.Snapshot().Scans
	res, err := p.Run(xquery.RunConfig{Docs: s.Resolver(), Collections: s.CollectionSource()})
	if err != nil {
		t.Fatal(err)
	}
	if got := xquery.FormatSequence(res.Value, nil); got != "a4 a3 a2 a1" {
		t.Errorf("join = %q", got)
	}
	if scans := s.Stats.Snapshot().Scans - before; scans != 1 {
		t.Errorf("the join scanned the collection %d times, want 1", scans)
	}
}

// TestStoredJoinAllocations pins what a one-node focus streams in the
// benchmark's catalog join over 64 stored articles: doc(u)//issue[@id =
// "k"]/article, $a/@id and $c/@title each stream from their one node
// instead of being materialized and sorted in a sorted stage, which
// took this join from 2,130 allocations to 1,048 (EXPERIMENTS.md E5y),
// and step evaluations that allocate once for all their focus nodes,
// paths seeded by their node and literals built at plan time took it
// from 970 to 668 (EXPERIMENTS.md E5ad).
func TestStoredJoinAllocations(t *testing.T) {
	s, err := Open("", WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateCollection("/db/j1"); err != nil {
		t.Fatal(err)
	}
	var cat strings.Builder
	cat.WriteString("<catalog>")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&cat, `<issue id="i%d">`, i)
		for a := 0; a < 4; a++ {
			id := fmt.Sprintf("a%d", 4*i+a)
			fmt.Fprintf(&cat, `<article id="%s" title="T%s"/>`, id, id)
			if err := s.PutXML("/db/j1/"+id+".xml", fmt.Sprintf(`<article id="%s" year="%d"/>`, id, 1990+a)); err != nil {
				t.Fatal(err)
			}
		}
		cat.WriteString("</issue>")
	}
	cat.WriteString("</catalog>")
	if err := s.PutXML("/db/catalog.xml", cat.String()); err != nil {
		t.Fatal(err)
	}
	p := xquery.New().MustCompile(`for $c in doc("/db/catalog.xml")//issue[@id = "i7"]/article,
		$a in collection("/db/j1")/article where $a/@id = $c/@id return concat($c/@title, " ", $a/@year)`)
	run := func() {
		res, err := p.Run(xquery.RunConfig{Docs: s.Resolver(), Collections: s.CollectionSource()})
		if err != nil {
			t.Fatal(err)
		}
		if got := xquery.FormatSequence(res.Value, nil); got != "Ta28 1990 Ta29 1991 Ta30 1992 Ta31 1993" {
			t.Fatalf("join = %q", got)
		}
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 740 {
		t.Errorf("the catalog join allocates %.0f times, want at most 740", allocs)
	}
}
