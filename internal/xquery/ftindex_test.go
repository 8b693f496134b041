package xquery

import (
	"strings"
	"testing"
	"time"

	ftindex "repro/internal/fulltext/index"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
)

// ftArticlesXML is the full-text fixture: articles with overlapping
// vocabulary (word matches, phrases, stemming and case variants,
// wildcard targets) plus inline markup that splits tokens across text
// nodes — `anti<b>body</b>` tokenizes as "antibody" at the stream
// level but as "anti"/"body" inside the inline element, the exact
// shape the split-token candidate floor exists for.
var ftArticlesXML = `<articles>
  <article id="a1"><h>Marlin watch</h><p>The marlin returned to the coral reef at dawn, running fast.</p></article>
  <article id="a2"><h>Reef report</h><p>Coral bleaching spreads; the reef needs protection from fishing fleets.</p></article>
  <article id="a3"><h>Lab notes</h><p>The anti<b>body</b> assay ran overnight. NASA published the results.</p></article>
  <article id="a4"><h>Fisheries</h><p>Fishers report fewer marlin; the fishery council runs new quotas.</p></article>
  <article id="a5"><h>Quiet day</h><p>Nothing notable happened near the harbour today.</p></article>
</articles>`

func ftArticlesDoc(t testing.TB) xdm.Item {
	t.Helper()
	d, err := markup.Parse(ftArticlesXML)
	if err != nil {
		t.Fatal(err)
	}
	return xdm.NewNode(d)
}

// ftIndexCorpus exercises every selection shape the planner can probe
// and every one it must leave to the scan: plain words, phrases,
// ftand/ftor/ftnot, the stemming/case/wildcard options, multi-phrase
// sources, text-node scopes, split tokens and their pieces, scoring
// and snippets.
var ftIndexCorpus = []string{
	`count(//article[. ftcontains "marlin"])`,
	`//article[. ftcontains "coral reef"]/@id/string()`,
	`//article[. ftcontains "marlin" ftand "reef"]/@id/string()`,
	`//article[. ftcontains "marlin" ftor "fishing"]/@id/string()`,
	`//article[. ftcontains "reef" ftand ftnot "marlin"]/@id/string()`,
	`//article[. ftcontains ftnot "marlin"]/@id/string()`,
	`//article[. ftcontains "RUNS" with stemming]/@id/string()`,
	`//article[. ftcontains "Marlin" case sensitive]/@id/string()`,
	`//article[. ftcontains "nasa" case insensitive]/@id/string()`,
	`//article[. ftcontains "fish.*" with wildcards]/@id/string()`,
	`//article[. ftcontains "r.?ef" with wildcards]/@id/string()`,
	`//article[. ftcontains { ("marlin", "bleaching") } any]/@id/string()`,
	`//article[. ftcontains { ("coral", "reef") } all]/@id/string()`,
	`//article[. ftcontains "coral reef" phrase]/@id/string()`,
	`//p[. ftcontains "antibody"]/../@id/string()`,
	`//b[. ftcontains "body"]/string()`,
	`count(//text()[. ftcontains "reef"])`,
	`//article[. ftcontains "missingword"]/@id/string()`,
	`//article[. ftcontains ""]/@id/string()`,
	`for $a in //article[. ftcontains "marlin" ftor "reef"]
	   order by ft:score($a) descending, $a/@id ascending
	   return $a/@id/string()`,
	`ft:tokenize("The quick-brown fox, twice.")`,
	`kwic:summarize((//article[. ftcontains "marlin"])[1], "marlin", 18)`,
	`kwic:summarize((//article)[2], "reef", 12)`,
	`//article[p ftcontains "marlin"]/@id/string()`,
	`//article[. ftcontains { string(@id) }]/@id/string()`,
	`count(//article[. ftcontains "the"])`,
}

// TestFTIndexDifferential: every corpus query must produce
// byte-identical output with indexes on and off —
// DisableIndexes turns the full-text probes off, making the
// tokenize-and-scan path the oracle.
func TestFTIndexDifferential(t *testing.T) {
	e := New()
	doc := ftArticlesDoc(t)
	for _, q := range ftIndexCorpus {
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

// TestFTIndexDifferentialAfterUpdates interleaves DOM mutations with
// full-text reads: each update bumps the document version, so stale
// posting lists must never answer and both modes keep agreeing on
// the new tree.
func TestFTIndexDifferentialAfterUpdates(t *testing.T) {
	e := New()
	doc := ftArticlesDoc(t)
	updates := []string{
		`insert node <article id="a6"><p>A second marlin sighting near the reef.</p></article> into /articles`,
		`replace value of node (//article[@id = "a5"]/p)[1] with "marlin everywhere"`,
		`delete node //article[@id = "a1"]`,
		`rename node (//article/h)[1] as "title"`,
		`insert node <b>reef</b> into (//article[@id = "a4"]/p)[1]`,
	}
	reads := []string{
		`//article[. ftcontains "marlin"]/@id/string()`,
		`//article[. ftcontains "coral reef"]/@id/string()`,
		`count(//article[. ftcontains "reef" ftor "marlin"])`,
		`for $a in //article[. ftcontains "marlin"]
		   order by ft:score($a) descending, $a/@id ascending
		   return $a/@id/string()`,
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
		if _, err := p.Run(RunConfig{ContextItem: doc}); err != nil {
			t.Fatalf("%q: run: %v", u, err)
		}
		check(u)
	}
}

// TestFTIndexLazyRebuild pins the invalidation contract: a cold tree
// builds exactly once, repeat reads never rebuild, an update builds
// nothing by itself, and post-update reads rebuild exactly once after
// Probe's amortisation threshold passes. The threshold counts probes,
// not reads — one ftcontains read probes at the step and then once
// per scanned article, so the first post-update read crosses it.
func TestFTIndexLazyRebuild(t *testing.T) {
	e := New()
	doc := ftArticlesDoc(t)
	read := e.MustCompile(`count(//article[. ftcontains "marlin"])`)
	update := e.MustCompile(`insert node <article id="ax"><p>marlin</p></article> into /articles`)

	runRead := func(want string) {
		t.Helper()
		res, err := read.Run(RunConfig{ContextItem: doc})
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatSequence(res.Value, markup.AppendXML); got != want {
			t.Fatalf("count = %s, want %s", got, want)
		}
	}
	base := ftindex.Snapshot().Builds
	runRead("2")
	if d := ftindex.Snapshot().Builds - base; d != 1 {
		t.Fatalf("first ft read built %d indexes, want 1 (cold tree builds immediately)", d)
	}
	runRead("2")
	runRead("2")
	if d := ftindex.Snapshot().Builds - base; d != 1 {
		t.Fatalf("repeat reads on an unchanged tree built %d indexes, want 1", d)
	}
	if _, err := update.Run(RunConfig{ContextItem: doc}); err != nil {
		t.Fatal(err)
	}
	if d := ftindex.Snapshot().Builds - base; d != 1 {
		t.Fatalf("the update built %d extra ft indexes, want 0 (mutators pay zero bookkeeping)", d-1)
	}
	for i := 0; i < 8; i++ {
		runRead("3")
	}
	if d := ftindex.Snapshot().Builds - base; d != 2 {
		t.Fatalf("sustained post-update reads built %d total indexes, want 2 (exactly one amortised rebuild)", d)
	}
}

// TestFTProfilerAndMetrics: probes and builds surface in the
// profiler's ft: counters and the process-wide ftindex counters that
// serve.Metrics snapshots; the DisableIndexes oracle records nothing.
func TestFTProfilerAndMetrics(t *testing.T) {
	e := New()
	doc := ftArticlesDoc(t)
	p := e.MustCompile(`count(//article[. ftcontains "marlin"])`)
	before := ftindex.Snapshot()
	prof := runtime.NewProfiler()
	if _, err := p.Run(RunConfig{ContextItem: doc, Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	if probes := prof.Count("ft:probes"); probes < 1 {
		t.Errorf("profiler ft:probes = %d, want >= 1", probes)
	}
	if builds := prof.Count("ft:builds"); builds != 1 {
		t.Errorf("profiler ft:builds = %d, want 1 (cold tree)", builds)
	}
	if !strings.Contains(prof.Format(), "ft:probes") {
		t.Errorf("profiler report missing ft:probes row:\n%s", prof.Format())
	}
	after := ftindex.Snapshot()
	if after.Hits <= before.Hits {
		t.Errorf("global ft hits did not grow (%d -> %d)", before.Hits, after.Hits)
	}
	if after.Builds != before.Builds+1 {
		t.Errorf("global ft builds grew by %d, want 1", after.Builds-before.Builds)
	}

	prof = runtime.NewProfiler()
	if _, err := p.Run(RunConfig{ContextItem: ftArticlesDoc(t), Profiler: prof, DisableIndexes: true}); err != nil {
		t.Fatal(err)
	}
	if probes := prof.Count("ft:probes"); probes != 0 {
		t.Errorf("DisableIndexes run recorded %d ft probes, want 0", probes)
	}
	if builds := prof.Count("ft:builds"); builds != 0 {
		t.Errorf("DisableIndexes run recorded %d ft builds, want 0", builds)
	}
}

// FuzzFTIndexDifferential cross-checks the index-backed ftcontains
// path against the scan baseline, including updating inputs: any
// query that compiles and succeeds in both modes must agree
// byte-for-byte, and the indexed mode may never introduce an error
// the scan does not hit. Updating queries run against a fresh
// document per mode, so interleaved mutation is part of the fuzzed
// surface.
func FuzzFTIndexDifferential(f *testing.F) {
	for _, s := range ftIndexCorpus {
		f.Add(s)
	}
	f.Add(`//article[. ftcontains "marlin"] | (let $x := delete node //b return //p)`)
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
			// A fresh document per mode: updating fuzz inputs mutate
			// their tree, and both modes must see the same starting
			// state for the outputs to be comparable.
			d, err := markup.Parse(ftArticlesXML)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(RunConfig{
				ContextItem:    xdm.NewNode(d),
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
