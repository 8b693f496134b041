package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

var updateJSON = flag.Bool("update", false, "rewrite BENCHMARK.json from the metric and workload tables")

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {90, 900}, {100, 1000}, {0.01, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	// Ten samples lie beyond p99 of a thousand.
	if beyond := len(s) - int(percentile(s, 99)); beyond != minBeyond {
		t.Errorf("%d samples beyond p99 of 1000, want %d", beyond, minBeyond)
	}
}

func TestMedianOfWindows(t *testing.T) {
	ws := []window{{ops: 30}, {ops: 10}, {ops: 50}, {ops: 20}, {ops: 40}}
	s := summarize(ws, func(w window) float64 { return float64(w.ops) })
	if s.q1 != 20 || s.med != 30 || s.q3 != 40 {
		t.Errorf("summarize = %+v, want quartiles 20, 30, 40", s)
	}
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles(1..4) = %g, %g, %g, want 1.75, 2.5, 3.25", q1, med, q3)
	}
	if median(nil) != 0 {
		t.Error("median of nothing must be 0")
	}
}

// TestReferenceKernel: the kernel does the same work every time, and a
// burst too short for one iteration still yields a speed.
func TestReferenceKernel(t *testing.T) {
	a, b := refIteration(), refIteration()
	if a != b || a == 0 {
		t.Errorf("refIteration() = %d, then %d; want the same non-zero value", a, b)
	}
	if s := refSpeed(2, 0); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("refSpeed of an empty burst = %g, want a positive number", s)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "shard", Parent: 0, Start: 10, End: 50},  // two parallel shard calls
		{Name: "shard", Parent: 0, Start: 30, End: 70},  // overlap 30..50 counts once
		{Name: "hedge", Parent: 0, Start: 90, End: 140}, // runs past its parent: clipped at 100
		{Name: "parse", Parent: 1, Start: 20, End: 30},
		{Name: "root2", Parent: -1, Start: 200, End: 210},
	}
	want := []int64{100 - (70 - 10) - (100 - 90), 40 - 10, 40, 50, 10, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tot := map[string]agg{}
	aggregate(tot, spans)
	if a := tot["shard"]; a.N != 2 || a.Ns != 80 || a.Self != 70 {
		t.Errorf("aggregate(shard) = %+v", a)
	}
}

// opStream renders the choices a client makes from its generator: the
// op mix, the Zipf ranks and the corpus it runs against.
func opStream(seed int64, idx, n int) string {
	c := &client{rng: clientRNG(seed, idx)}
	m := newMix("a", 55, "b", 25, "c", 15, "d", 5)
	z := newZipf(evalSources, 1.1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s/%d ", m.names[m.next(c)], z.pick(c.rng))
	}
	return b.String()
}

func TestGeneratorsReproduce(t *testing.T) {
	if a, b := opStream(7, 1, 5000), opStream(7, 1, 5000); a != b {
		t.Error("the same seed and client gave two op streams")
	}
	if opStream(7, 1, 100) == opStream(8, 1, 100) || opStream(7, 1, 100) == opStream(7, 2, 100) {
		t.Error("another seed or client gave the same op stream")
	}
	a, b := genCorpus(7), genCorpus(7)
	if a.catalogXML() != b.catalogXML() || !reflect.DeepEqual(a.Vocab, b.Vocab) {
		t.Error("the same seed gave two corpora")
	}
	for i := range a.Articles {
		if a.Articles[i].xml() != b.Articles[i].xml() {
			t.Fatalf("article %d differs between two generations of one seed", i)
		}
	}
	if genCorpus(8).Articles[0].xml() == a.Articles[0].xml() {
		t.Error("another seed gave the same article")
	}
	sa, sb := genEvalSources(a, 7), genEvalSources(b, 7)
	if len(sa) != evalSources || !reflect.DeepEqual(sa, sb) {
		t.Errorf("eval sources: %d texts, reproducible %v", len(sa), reflect.DeepEqual(sa, sb))
	}
	texts := map[string]bool{}
	for _, s := range sa {
		texts[s.q] = true
	}
	if len(texts) != evalSources {
		t.Errorf("%d distinct eval texts, want %d", len(texts), evalSources)
	}
	if q := genFedQueries(a); len(q) != 64 {
		t.Errorf("%d federated queries, want 64", len(q))
	}

	// The four query shapes alternate down the Zipf ranks.
	var head [4]int
	for _, s := range sa[:16] {
		switch {
		case strings.Contains(s.q, "$c in doc("):
			head[1]++
		case strings.Contains(s.q, "ftcontains"):
			head[2]++
		case strings.HasPrefix(s.q, "count(doc("):
			head[3]++
		default:
			head[0]++
		}
	}
	if head != [4]int{3, 3, 4, 6} {
		t.Errorf("the 16 top ranks hold %v texts of the four shapes, want [3 3 4 6]", head)
	}

	// The mix deals exact shares per deck; the Zipf draw follows its weights.
	c := &client{rng: clientRNG(1, 0)}
	m := newMix("a", 55, "b", 25, "c", 15, "d", 5)
	z := newZipf(evalSources, 1.1)
	var classes [4]int
	top := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		classes[m.next(c)]++
		if z.pick(c.rng) == 0 {
			top++
		}
	}
	for i, pct := range []int{55, 25, 15, 5} {
		if classes[i] != pct*draws/100 {
			t.Errorf("class %d dealt %d times in %d, want exactly %d%%", i, classes[i], draws, pct)
		}
	}
	if share := float64(top) / draws; share < z.cdf[0]-0.01 || share > z.cdf[0]+0.01 {
		t.Errorf("rank 0 drawn %.3f of the time, want %.3f", share, z.cdf[0])
	}
}

// benchmarkJSON is BENCHMARK.json's schema. metricDef's own JSON form
// fits both metric lists: a per-layer metric has no bound to write.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// in step; `go test -run TestBenchmarkJSON -update` rewrites the file.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON{
		Command:    []string{"bash", "cmd/bench/run.sh"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: 18,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadDoc{w.name, w.why})
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(want.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(want.PerLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		for _, c := range w.classes {
			if !seen["op."+c+".p50_us"] {
				t.Errorf("%s: op class %s has no per-layer metric", w.name, c)
			}
		}
	}

	if *updateJSON {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in this package; run go test -run TestBenchmarkJSON -update")
	}
	if defaultSeconds() != want.RunSeconds {
		t.Errorf("defaultSeconds() = %d, want run_seconds %d", defaultSeconds(), want.RunSeconds)
	}
}

// TestSmoke runs every workload, untraced and traced, for one second
// each and holds the result lines to the contract: exactly the four
// keys, every declared metric present with its unit, no failed op.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, w := range workloads {
		e2e, err := runEndToEnd(w, 3, time.Second, out)
		if err != nil {
			t.Fatal(err)
		}
		if e2e.failed != 0 || e2e.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, e2e.failed, e2e.attempted, e2e.firstErr)
		}
		checkResult(t, w.name, e2e.result(endToEnd, e2e.medians()), endToEnd, true)

		tr, err := runTraced(w, 3, time.Second, out)
		if err != nil {
			t.Fatal(err)
		}
		if tr.failed != 0 || tr.attempted == 0 {
			t.Errorf("%s traced: %d of %d ops failed: %v", w.name, tr.failed, tr.attempted, tr.firstErr)
		}
		checkResult(t, w.name, tr.result(perLayer, tr.values), perLayer, false)
		for _, c := range w.classes {
			if tr.values["op."+c+".p50_us"] <= 0 {
				t.Errorf("%s: op class %s never ran", w.name, c)
			}
		}
		for name, v := range tr.values {
			if strings.HasPrefix(name, "fed.") && v != 0 && w != fedCollectionWorkload {
				t.Errorf("%s: %s = %g, must read 0 outside fed_collection", w.name, name, v)
			}
		}
		if w == storeReadWorkload && tr.values["xmldb.commits_per_op"] != 0 {
			t.Errorf("store_read committed: xmldb.commits_per_op = %g", tr.values["xmldb.commits_per_op"])
		}
		if _, err := os.Stat(out + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	left, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if f.IsDir() {
			t.Errorf("run directory %s was left behind", f.Name())
		}
	}
}

func checkResult(t *testing.T, workload string, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("%s: result line has %d keys, want correct, attempted, failed, metrics", workload, len(line))
	}
	var metrics map[string]metric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%s: %d metrics in the result, %d declared", workload, len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.Name, m.Unit, d.Unit)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %g, must never be 0", workload, d.Name, m.Value)
		}
	}
}
