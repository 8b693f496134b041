// Command benchpath measures the version-stamped document indexes
// against the scan baseline and writes a machine-readable snapshot
// (BENCH_pathindex.json by default):
//
//	benchpath -out BENCH_pathindex.json       # full timed run
//	benchpath -check                          # also assert indexed //x wins ≥5×
//	benchpath -smoke                          # short fixed-iteration run (CI gate)
//
// Scenarios (all over the same wide ~10k-node synthetic page):
//
//	descendant_indexed   count(//item) with the path planner's index
//	                     probes enabled (the default)
//	descendant_scan      the same query under DisableIndexes — the
//	                     axis-walk baseline
//	id_probe             //div[@id = "d71"] — the planner's id-index
//	                     access path
//
// Both -check and -smoke assert the acceptance bar: the indexed //x
// run at least 5× faster than the scan, identical results under both
// modes, and the process-wide index counters showing actual probe
// hits. -smoke times a short fixed iteration count so the gate runs on
// every CI pass without benchserve-scale wall time.
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

	"repro/internal/dom/index"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// smokeIters is the fixed per-scenario iteration count for -smoke: big
// enough that the indexed/scan ratio is stable (each op is µs-scale),
// small enough to keep CI fast.
const smokeIters = 300

// pathDoc builds the wide synthetic page: entries/1 elements each with
// an id attribute and a text child (~3 nodes per entry), every tenth
// one an <item>.
func pathDoc(entries int) (xdm.Item, error) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < entries; i++ {
		if i%10 == 0 {
			fmt.Fprintf(&sb, `<item id="i%d">v%d</item>`, i, i)
		} else {
			fmt.Fprintf(&sb, `<div id="d%d">c%d</div>`, i, i)
		}
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
	Timestamp   string   `json:"timestamp"`
	GoVersion   string   `json:"go_version"`
	Smoke       bool     `json:"smoke"`
	Scenarios   []result `json:"scenarios"`
	Speedup     float64  `json:"descendant_speedup"`
	IndexBuilds int64    `json:"index_builds"`
	IndexHits   int64    `json:"index_hits"`
}

func main() {
	out := flag.String("out", "BENCH_pathindex.json", "snapshot output file")
	smoke := flag.Bool("smoke", false, "short fixed-iteration run (CI regression gate)")
	check := flag.Bool("check", false, "assert indexed //x is >=5x faster than the scan")
	flag.Parse()

	item, err := pathDoc(5000)
	if err != nil {
		fatal(err)
	}
	e := xquery.New()
	descendant, err := e.Compile(`count(//item)`)
	if err != nil {
		fatal(err)
	}
	idProbe, err := e.Compile(`//div[@id = "d71"]`)
	if err != nil {
		fatal(err)
	}

	run := func(p *xquery.Program, disable bool) (*xquery.Result, error) {
		return p.Run(xquery.RunConfig{ContextItem: item, DisableIndexes: disable})
	}
	format := func(r *xquery.Result) string {
		return xquery.FormatSequence(r.Value, markup.AppendXML)
	}

	// Correctness gate before any timing: indexed and scan runs must
	// agree, and the id probe must find its one element.
	indexed, err := run(descendant, false)
	if err != nil {
		fatal(err)
	}
	scanned, err := run(descendant, true)
	if err != nil {
		fatal(err)
	}
	if got, want := format(indexed), format(scanned); got != want {
		fatal(fmt.Errorf("indexed result %q differs from scan result %q", got, want))
	}
	if hit, err := run(idProbe, false); err != nil {
		fatal(err)
	} else if len(hit.Value) != 1 {
		fatal(fmt.Errorf("id probe returned %d items, want 1", len(hit.Value)))
	}

	scenarios := []struct {
		name    string
		prog    *xquery.Program
		disable bool
	}{
		{"descendant_indexed", descendant, false},
		{"descendant_scan", descendant, true},
		{"id_probe", idProbe, false},
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

	if perOp["descendant_indexed"] > 0 {
		snap.Speedup = float64(perOp["descendant_scan"]) /
			float64(perOp["descendant_indexed"])
	}
	st := index.Snapshot()
	snap.IndexBuilds = st.Builds
	snap.IndexHits = st.Hits

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchpath: wrote %s (%d scenarios, descendant speedup %.1fx, %d index builds, %d hits)\n",
		*out, len(snap.Scenarios), snap.Speedup, snap.IndexBuilds, snap.IndexHits)

	// The counters must show the index actually answered the probes:
	// the tree never mutates here, so one build serves every indexed
	// iteration, and hits grow with them.
	if st.Builds < 1 || st.Builds > 4 {
		fatal(fmt.Errorf("index builds = %d over an immutable tree, want 1..4 (one per probed program at most)", st.Builds))
	}
	if st.Hits < int64(smokeIters) {
		fatal(fmt.Errorf("index hits = %d, want >= %d (one per indexed iteration)", st.Hits, smokeIters))
	}
	if (*check || *smoke) && snap.Speedup < 5 {
		fatal(fmt.Errorf("indexed descendant speedup %.2fx, want >= 5x", snap.Speedup))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpath:", err)
	os.Exit(1)
}
