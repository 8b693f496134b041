package xmldb

import (
	"sync"
	"testing"

	"repro/internal/xquery/parser"
	"repro/internal/xquery/plan"
)

// TestQueryRoutesReadsInPlace: Store.Query reads the published revision
// in place unless the query can change a document, and routes it
// through clone-and-commit when it can. Each row checks the static
// decision and what a run adds to Stats.Commits — 0 for a read, 1 for a
// write that runs to the end (a query that fails, here for want of a
// browser host, an implementation or a module, commits nothing either
// way, so for those rows the decision is what is checked).
func TestQueryRoutesReadsInPlace(t *testing.T) {
	const doc = `<doc><p>the marlin swims</p><p>a shark</p></doc>`
	for _, c := range []struct {
		name, query string
		writes      bool
	}{
		// Read in place.
		{"a count", `count(//p)`, false},
		{"ft:score", `for $p in //p[. ftcontains "marlin"] return ft:score($p)`, false},
		{"kwic:summarize", `kwic:summarize((//p)[1], "marlin")`, false},
		{"copy modify of a copy", `copy $c := (//p)[1] modify delete node $c/text() return string($c)`, false},
		{"a recursive pure function",
			`declare function local:up($n) { if ($n/..) then 1 + local:up($n/..) else 0 }; local:up((//p)[1])`, false},
		{"get style", `get style "color" of (//p)[1]`, false},

		// Clone and commit.
		{"insert", `insert node <q/> into /doc`, true},
		{"delete", `delete node (//p)[2]`, true},
		{"replace", `replace value of node (//p)[2] with "x"`, true},
		{"rename", `rename node (//p)[2] as "q"`, true},
		{"fn:put", `fn:put(/doc, "b.xml")`, true},
		{"an updating function", `declare updating function local:u($n) { delete node $n }; local:u((//p)[2])`, true},
		{"a sequential function", `declare sequential function local:s($n) { 1 }; local:s(1)`, true},
		{"an external function", `declare function local:e($n) external; local:e(1)`, true},
		{"an imported function", `import module namespace m = "urn:m"; m:f(1)`, true},
		{"an undeclared namespace", `declare namespace u = "urn:u"; u:f(1)`, true},
		{"an event statement", `trigger event "click" at (//p)[1]`, true},
		{"a listener attachment", `declare function local:l($e, $o) { () }; on event "click" at (//p)[1] attach listener local:l`, true},
		{"a style statement", `set style "color" of (//p)[1] to "red"`, true},
		{"fn:put in a modify clause", `copy $c := (//p)[1] modify fn:put($c, "b.xml") return 1`, true},
	} {
		m, err := parser.ParseModule(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m.EnsurePlanned(func() { plan.Prepare(m) })
		if got := m.Effects&mutating != 0; got != c.writes {
			t.Errorf("%s: routed as a write %v, want %v", c.name, got, c.writes)
		}

		s := newStore(t)
		if err := s.PutXML("p.xml", doc); err != nil {
			t.Fatal(err)
		}
		before := s.Stats.Snapshot().Commits
		_, err = s.Query("p.xml", c.query)
		commits := s.Stats.Snapshot().Commits - before
		want := int64(0)
		if c.writes && err == nil {
			want = 1
		}
		if commits != want {
			t.Errorf("%s: %d commits (error %v), want %d", c.name, commits, err, want)
		}
		s.Close()
	}
}

// TestQueryReadsInPlaceConcurrently: readers of one published revision
// share its tree, and a union needs a document-order sort that no index
// answers. Run under -race: the labels the sort reads are written by
// one reader and published to the others, never written under them.
func TestQueryReadsInPlaceConcurrently(t *testing.T) {
	s := newStore(t)
	defer s.Close()
	if err := s.PutXML("a.xml", `<r><a><b/><c/></a><a><c/><b/></a></r>`); err != nil {
		t.Fatal(err)
	}
	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if out, err := s.Query("a.xml", `count(r/a/c/.. | r/a/b/..)`); err != nil || out != "2" {
					t.Errorf("count(r/a/c/.. | r/a/b/..) = %q, %v; want 2", out, err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
