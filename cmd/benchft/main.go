// Command benchft measures the version-stamped full-text indexes
// against the tokenize-and-scan baseline and writes a machine-readable
// snapshot (BENCH_ft.json by default):
//
//	benchft -out BENCH_ft.json       # full timed run
//	benchft -check                   # also assert indexed ftcontains wins ≥5×
//	benchft -smoke                   # short fixed-iteration run (CI gate)
//
// Scenarios (all over the same article-heavy synthetic page):
//
//	ft_word_indexed     count(//article[. ftcontains "marlin"]) with the
//	                    planner's full-text probes enabled (the default)
//	ft_word_scan        the same query under DisableIndexes — the
//	                    tokenize-every-article baseline
//	ft_phrase_indexed   a two-word phrase selection: candidates come
//	                    from posting-list intersection, the phrase is
//	                    verified against candidate token windows only
//	ft_score_indexed    top-scoring article via ft:score with an
//	                    order-by clause — TF-IDF over index statistics
//
// Both -check and -smoke assert the acceptance bar: the indexed
// ftcontains run at least 5× faster than the scan, byte-identical
// results under both modes, and the process-wide full-text counters
// showing actual index hits. -smoke times a short fixed iteration
// count so the gate runs on every CI pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	ftindex "repro/internal/fulltext/index"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// smokeIters is the fixed per-scenario iteration count for -smoke: big
// enough that the indexed/scan ratio is stable, small enough that the
// scan baseline (which re-tokenizes every article per iteration) keeps
// CI fast.
const smokeIters = 60

// filler is the background vocabulary articles are filled from; none
// of these words appear in the benchmark queries, so the scan baseline
// pays for tokenizing them without ever matching.
var filler = []string{
	"the", "browser", "engine", "evaluates", "queries", "against",
	"documents", "while", "pages", "render", "nodes", "update",
	"scripts", "dispatch", "events", "forms", "submit", "values",
	"windows", "layout", "styles", "cascade", "trees", "traverse",
}

// ftDoc builds the article-heavy page: entries articles of ~32 filler
// words each; every 50th article also contains the rare word "marlin",
// every 40th the phrase "coral reef".
func ftDoc(entries int) (xdm.Item, error) {
	var sb strings.Builder
	sb.WriteString("<root>")
	seed := uint32(1)
	for i := 0; i < entries; i++ {
		fmt.Fprintf(&sb, `<article id="a%d"><h>report %d</h><p>`, i, i)
		for w := 0; w < 32; w++ {
			seed = seed*1664525 + 1013904223 // deterministic filler pick
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
	d, err := markup.Parse(sb.String())
	if err != nil {
		return nil, err
	}
	return xdm.NewNode(d), nil
}

type result struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op,omitempty"`
}

type snapshot struct {
	Timestamp string   `json:"timestamp"`
	GoVersion string   `json:"go_version"`
	Smoke     bool     `json:"smoke"`
	Scenarios []result `json:"scenarios"`
	Speedup   float64  `json:"ftcontains_speedup"`
	FTBuilds  int64    `json:"ft_builds"`
	FTHits    int64    `json:"ft_hits"`
}

func main() {
	out := flag.String("out", "BENCH_ft.json", "snapshot output file")
	smoke := flag.Bool("smoke", false, "short fixed-iteration run (CI regression gate)")
	check := flag.Bool("check", false, "assert indexed ftcontains is >=5x faster than the scan")
	flag.Parse()

	item, err := ftDoc(2500)
	if err != nil {
		fatal(err)
	}
	e := xquery.New()
	word, err := e.Compile(`count(//article[. ftcontains "marlin"])`)
	if err != nil {
		fatal(err)
	}
	phrase, err := e.Compile(`count(//article[. ftcontains "coral reef"])`)
	if err != nil {
		fatal(err)
	}
	score, err := e.Compile(`(for $a in //article[. ftcontains "marlin"]
		order by ft:score($a) descending
		return string($a/@id))[1]`)
	if err != nil {
		fatal(err)
	}

	run := func(p *xquery.Program, disable bool) (*xquery.Result, error) {
		return p.Run(xquery.RunConfig{ContextItem: item, DisableIndexes: disable})
	}
	format := func(r *xquery.Result) string {
		return xquery.FormatSequence(r.Value, markup.AppendXML)
	}

	// Correctness gate before any timing: every program must produce
	// byte-identical output with and without indexes — this is the same
	// differential oracle the test suite fuzzes.
	for _, p := range []*xquery.Program{word, phrase, score} {
		indexed, err := run(p, false)
		if err != nil {
			fatal(err)
		}
		scanned, err := run(p, true)
		if err != nil {
			fatal(err)
		}
		if got, want := format(indexed), format(scanned); got != want {
			fatal(fmt.Errorf("indexed result %q differs from scan result %q", got, want))
		}
	}

	scenarios := []struct {
		name    string
		prog    *xquery.Program
		disable bool
	}{
		{"ft_word_indexed", word, false},
		{"ft_word_scan", word, true},
		{"ft_phrase_indexed", phrase, false},
		{"ft_score_indexed", score, false},
	}

	snap := snapshot{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Smoke:     *smoke,
	}
	perOp := map[string]int64{}
	for _, sc := range scenarios {
		var r result
		if *smoke {
			start := time.Now()
			for i := 0; i < smokeIters; i++ {
				if _, err := run(sc.prog, sc.disable); err != nil {
					fatal(fmt.Errorf("%s: %w", sc.name, err))
				}
			}
			r = result{
				Name:       sc.name,
				Iterations: smokeIters,
				NsPerOp:    time.Since(start).Nanoseconds() / smokeIters,
			}
		} else {
			br := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := run(sc.prog, sc.disable); err != nil {
						b.Fatal(err)
					}
				}
			})
			r = result{
				Name:        sc.name,
				Iterations:  br.N,
				NsPerOp:     br.NsPerOp(),
				AllocsPerOp: br.AllocsPerOp(),
			}
		}
		perOp[sc.name] = r.NsPerOp
		snap.Scenarios = append(snap.Scenarios, r)
	}

	if perOp["ft_word_indexed"] > 0 {
		snap.Speedup = float64(perOp["ft_word_scan"]) /
			float64(perOp["ft_word_indexed"])
	}
	st := ftindex.Snapshot()
	snap.FTBuilds = st.Builds
	snap.FTHits = st.Hits

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchft: wrote %s (%d scenarios, ftcontains speedup %.1fx, %d ft builds, %d hits)\n",
		*out, len(snap.Scenarios), snap.Speedup, snap.FTBuilds, snap.FTHits)

	// The counters must show the index actually answered the
	// selections: the tree never mutates here, so one lazy build serves
	// every indexed iteration, and hits grow with them.
	if st.Builds < 1 || st.Builds > 4 {
		fatal(fmt.Errorf("ft index builds = %d over an immutable tree, want 1..4", st.Builds))
	}
	if st.Hits < int64(smokeIters) {
		fatal(fmt.Errorf("ft index hits = %d, want >= %d (one per indexed iteration)", st.Hits, smokeIters))
	}
	if (*check || *smoke) && snap.Speedup < 5 {
		fatal(fmt.Errorf("indexed ftcontains speedup %.2fx, want >= 5x", snap.Speedup))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchft:", err)
	os.Exit(1)
}
