// Command benchcompile measures the compile-to-closures backend (the
// plan → optimize → compile pipeline) against the tree-walker baseline
// and writes a machine-readable snapshot (BENCH_compile.json by
// default):
//
//	benchcompile -out BENCH_compile.json      # full timed run
//	benchcompile -check                       # also assert the FLWOR-heavy win is >=2x
//	benchcompile -smoke                       # short fixed-iteration run (CI gate)
//
// Scenarios (each timed compiled and walked over the same synthetic
// shop document):
//
//	flwor_join       a two-variable FLWOR whose equality predicate the
//	                 optimizer lowers to a hash join — O(n+m) compiled
//	                 versus the walker's O(n*m) nested loop
//	flwor_hoist      a loop-invariant let recomputed per tuple by the
//	                 walker, memoized per FLWOR entry when compiled
//	flwor_pushdown   a where conjunct pushed into the domain path,
//	                 upgrading the step to an id-index probe
//	flwor_core       a plain compute-bound FLWOR: closures versus the
//	                 walker's per-node dispatch, no rewrite wins
//
// -check and -smoke assert the acceptance bar: identical results from
// both backends for every scenario (gated before any timing), and the
// FLWOR-heavy scenarios (join, hoist, pushdown) each at least 2x
// faster compiled than walked.
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

	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// smokeIters is the fixed per-scenario iteration count for -smoke:
// enough that the compiled/walked ratio is stable (the walked join is
// the slowest op at a few ms), small enough to keep CI fast.
const smokeIters = 40

// shopDoc builds the synthetic page: entries items with string ids,
// entries orders referencing them (every third order dangling), plus
// div padding so the pushdown scenario has an id index worth probing.
func shopDoc(entries int) (xdm.Item, error) {
	var sb strings.Builder
	sb.WriteString("<shop>")
	for i := 0; i < entries; i++ {
		fmt.Fprintf(&sb, `<item id="sku%d" n="i%d"/>`, i, i)
	}
	for i := 0; i < entries; i++ {
		ref := i
		if i%3 == 0 {
			ref = entries + i // dangling reference: empty probe group
		}
		fmt.Fprintf(&sb, `<order ref="sku%d" n="o%d"/>`, ref, i)
	}
	for i := 0; i < entries*10; i++ {
		fmt.Fprintf(&sb, `<div id="d%d">c%d</div>`, i, i)
	}
	sb.WriteString("</shop>")
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
	Timestamp string             `json:"timestamp"`
	GoVersion string             `json:"go_version"`
	Smoke     bool               `json:"smoke"`
	Scenarios []result           `json:"scenarios"`
	Speedups  map[string]float64 `json:"speedups"`
	Rewrites  map[string]int     `json:"rewrites"`
}

type scenario struct {
	name  string
	query string
	// heavy marks the FLWOR-heavy scenarios held to the 2x bar.
	heavy bool
}

func main() {
	out := flag.String("out", "BENCH_compile.json", "snapshot output file")
	smoke := flag.Bool("smoke", false, "short fixed-iteration run (CI regression gate)")
	check := flag.Bool("check", false, "assert the FLWOR-heavy compiled runs are >=2x faster")
	flag.Parse()

	item, err := shopDoc(150)
	if err != nil {
		fatal(err)
	}
	e := xquery.New()

	scenarios := []scenario{
		{"flwor_join", `for $o in //order for $i in //item where $o/@ref eq $i/@id
			return concat($o/@n, ":", $i/@n)`, true},
		{"flwor_hoist", `for $i in //item
			let $total := sum(for $o in //order return string-length(string($o/@ref)))
			where $total > 0 return concat($i/@n, "/", $total)`, true},
		{"flwor_pushdown", `for $d in //div where $d/@id = "d71" return string($d)`, true},
		{"flwor_core", `for $i in 1 to 2000 return $i * 3 + 1`, false},
	}

	progs := map[string]*xquery.Program{}
	rewrites := map[string]int{}
	for _, sc := range scenarios {
		p, err := e.Compile(sc.query)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sc.name, err))
		}
		progs[sc.name] = p
		st := p.RewriteStats()
		rewrites["fold"] += st.Folds
		rewrites["pushdown"] += st.Pushdowns
		rewrites["hoist"] += st.Hoists
		rewrites["join"] += st.Joins
	}
	if rewrites["join"] == 0 || rewrites["hoist"] == 0 || rewrites["pushdown"] == 0 {
		fatal(fmt.Errorf("optimizer rewrites missing: %v", rewrites))
	}

	run := func(name string, walk bool) (*xquery.Result, error) {
		return progs[name].Run(xquery.RunConfig{ContextItem: item, DisableCompile: walk})
	}

	// Correctness gate before any timing: both backends must agree on
	// every scenario.
	for _, sc := range scenarios {
		compiled, err := run(sc.name, false)
		if err != nil {
			fatal(fmt.Errorf("%s compiled: %w", sc.name, err))
		}
		walked, err := run(sc.name, true)
		if err != nil {
			fatal(fmt.Errorf("%s walked: %w", sc.name, err))
		}
		got := xquery.FormatSequence(compiled.Value, markup.AppendXML)
		want := xquery.FormatSequence(walked.Value, markup.AppendXML)
		if got != want {
			fatal(fmt.Errorf("%s: compiled result %q differs from walker %q", sc.name, clip(got), clip(want)))
		}
		if len(compiled.Value) == 0 {
			fatal(fmt.Errorf("%s: empty result, scenario measures nothing", sc.name))
		}
	}

	snap := snapshot{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Smoke:     *smoke,
		Speedups:  map[string]float64{},
		Rewrites:  rewrites,
	}
	perOp := map[string]int64{}
	for _, sc := range scenarios {
		for _, walk := range []bool{false, true} {
			name := sc.name
			if walk {
				name += "_walk"
			}
			var r result
			if *smoke {
				start := time.Now()
				for i := 0; i < smokeIters; i++ {
					if _, err := run(sc.name, walk); err != nil {
						fatal(fmt.Errorf("%s: %w", name, err))
					}
				}
				r = result{Name: name, Iterations: smokeIters,
					NsPerOp: time.Since(start).Nanoseconds() / smokeIters}
			} else {
				br := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := run(sc.name, walk); err != nil {
							b.Fatal(err)
						}
					}
				})
				r = result{Name: name, Iterations: br.N, NsPerOp: br.NsPerOp(),
					AllocsPerOp: br.AllocsPerOp()}
			}
			perOp[name] = r.NsPerOp
			snap.Scenarios = append(snap.Scenarios, r)
		}
		if perOp[sc.name] > 0 {
			snap.Speedups[sc.name] = float64(perOp[sc.name+"_walk"]) / float64(perOp[sc.name])
		}
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchcompile: wrote %s (join %.1fx, hoist %.1fx, pushdown %.1fx, core %.1fx)\n",
		*out, snap.Speedups["flwor_join"], snap.Speedups["flwor_hoist"],
		snap.Speedups["flwor_pushdown"], snap.Speedups["flwor_core"])

	if *check || *smoke {
		for _, sc := range scenarios {
			if sc.heavy && snap.Speedups[sc.name] < 2 {
				fatal(fmt.Errorf("%s compiled speedup %.2fx, want >= 2x", sc.name, snap.Speedups[sc.name]))
			}
		}
	}
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcompile:", err)
	os.Exit(1)
}
