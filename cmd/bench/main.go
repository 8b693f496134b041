// Command bench is the repository's benchmark: five workloads of real
// work over the paper's loop (page load → main query → browser event →
// listener → pending updates → next event), driven through the serving
// layer against the store and the mediator, with every output checked
// against an answer the generator knows. README.md beside this file
// describes the workloads, the metrics and how the layers interact.
//
//	bench -seed 1                       every workload, untraced then traced, as tables
//	bench -smoke                        the same with short windows
//	bench -selfcheck                    the untraced suite twice; fails when two runs
//	                                    of the same code disagree by more than a bound
//	bench -record                       append the full run to history.jsonl
//	bench -workload W -seed N -seconds S -trace 0|1
//	                                    one run of one workload; the last line of output
//	                                    is the JSON result BENCHMARK.json's driver reads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []*workload{
	pageLoadWorkload,
	eventLoopWorkload,
	storeReadWorkload,
	storeWriteWorkload,
	fedCollectionWorkload,
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// benchmarkFile is BENCHMARK.json as seen from this directory, where
// both run.sh and `go run .` start the program.
const benchmarkFile = "../../BENCHMARK.json"

// defaultSeconds is how long one run measures: run_seconds of
// BENCHMARK.json, so the window settings live in one place.
func defaultSeconds() int {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return 18
	}
	var f struct {
		RunSeconds int `json:"run_seconds"`
	}
	if json.Unmarshal(b, &f) != nil || f.RunSeconds <= 0 {
		return 18
	}
	return f.RunSeconds
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print its JSON result line")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Int("seconds", defaultSeconds(), "seconds one run measures")
		traced    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		smoke     = flag.Bool("smoke", false, "short windows: a functional check, not a measurement")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice and compare the runs with the bounds")
		record    = flag.Bool("record", false, "append the full run to history.jsonl")
		outDir    = flag.String("out", "out", "directory for trace files and scratch stores")
	)
	flag.Parse()
	total := time.Duration(*seconds) * time.Second
	if *smoke {
		total = time.Second
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	switch {
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if err := runOne(w, *seed, total, *traced != 0, *outDir); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if !selfCheck(*seed, total, *outDir) {
			os.Exit(1)
		}
	default:
		if !runSuite(*seed, total, *outDir, *record && !*smoke) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne is the driver's entry: one workload, one run, one JSON line.
func runOne(w *workload, seed int64, total time.Duration, traced bool, outDir string) error {
	var (
		o    outcome
		defs []metricDef
		vals map[string]float64
	)
	if traced {
		r, err := runTraced(w, seed, total, outDir)
		if err != nil {
			return err
		}
		o, defs, vals = r.outcome, perLayer, r.values
	} else {
		r, err := runEndToEnd(w, seed, total, outDir)
		if err != nil {
			return err
		}
		o, defs, vals = r.outcome, endToEnd, r.medians()
	}
	if o.firstErr != nil {
		fmt.Fprintln(os.Stderr, "bench: first failure:", o.firstErr)
	}
	b, err := json.Marshal(o.result(defs, vals))
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runSuite runs every workload untraced and traced and prints every
// metric by name with its unit. It reports whether every op of every
// workload was correct.
func runSuite(seed int64, total time.Duration, outDir string, record bool) bool {
	fmt.Printf("bench: seed %d, %d clients (closed loop), %d windows x %s untraced + %s traced per workload, %s %s/%s nproc=%d\n",
		seed, numClients(), nWindows, total/nWindows*(refShare-1)/refShare, total/2, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	ok := true
	rec := historyLine{Time: time.Now().UTC().Format(time.RFC3339), Commit: gitCommit(), Seed: seed,
		Go: runtime.Version(), NProc: runtime.NumCPU(), Clients: numClients(), Seconds: total.Seconds(),
		Workloads: map[string]map[string]float64{}}
	for _, w := range workloads {
		e2e, err := runEndToEnd(w, seed, total, outDir)
		if err != nil {
			fatal(err)
		}
		tr, err := runTraced(w, seed, total, outDir)
		if err != nil {
			fatal(err)
		}
		printWorkload(w, e2e, tr)
		if e2e.failed+tr.failed > 0 {
			ok = false
		}
		vals := e2e.medians()
		vals["failed_share"] = ratio(float64(e2e.failed+tr.failed), float64(e2e.attempted+tr.attempted))
		for k, v := range tr.values {
			vals[k] = v
		}
		rec.Workloads[w.name] = vals
	}
	if record {
		if err := appendHistory(rec); err != nil {
			fatal(err)
		}
		fmt.Println("bench: appended this run to history.jsonl")
	}
	if !ok {
		fmt.Println("bench: FAILED: some operations failed or returned wrong output")
	}
	return ok
}

func printWorkload(w *workload, e *endToEndRun, t *tracedRun) {
	fmt.Printf("\n== %s ==\n%s\n", w.name, w.why)
	fmt.Printf("end to end: %d ops attempted, %d failed (failed_share %.6f ratio); %d windows, %d ops in them; timings at reference speed, the host ran at %.3f of it\n",
		e.attempted, e.failed, ratio(float64(e.failed), float64(e.attempted)), nWindows, e.samples, e.speed)
	for _, d := range endToEnd {
		s := e.values[d.Name]
		note := ""
		if d.Name == "latency_tail_ms" {
			note = fmt.Sprintf("  p%g", w.tailPct)
			if lvl := tailLevel(e.samples); lvl < w.tailPct {
				note += fmt.Sprintf(" (only %d samples: fewer than %d beyond it)", e.samples, minBeyond)
			}
		}
		fmt.Printf("  %-20s %12.4f %-6s [q1 %.4f, q3 %.4f]%s\n", d.Name, s.med, d.Unit, s.q1, s.q3, note)
	}
	if e.firstErr != nil {
		fmt.Printf("  first failure: %v\n", e.firstErr)
	}
	fmt.Printf("per layer: counters over %d untraced ops, timers over %d replayed ops of the traced window; %d failed\n",
		t.counted, t.sampled, t.failed)
	for _, d := range perLayer {
		v := t.values[d.Name]
		if v == 0 && strings.HasPrefix(d.Name, "op.") {
			continue // another workload's op class
		}
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, v, d.Unit)
	}
	if t.firstErr != nil {
		fmt.Printf("  first failure: %v\n", t.firstErr)
	}
	fmt.Println("  spans (traced window): name, count, total ms, self ms")
	names := make([]string, 0, len(t.totals))
	for n := range t.totals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := t.totals[n]
		fmt.Printf("    %-24s %8d %12.2f %12.2f\n", n, a.N, float64(a.Ns)/1e6, float64(a.Self)/1e6)
	}
}

// selfCheck runs the untraced suite twice on the same code and holds the
// two runs to the benchmark's own bounds.
func selfCheck(seed int64, total time.Duration, outDir string) bool {
	ok := true
	fmt.Printf("%-15s %-18s %14s %14s %8s %6s\n", "workload", "metric", "run 1", "run 2", "gap", "bound")
	for _, w := range workloads {
		var runs [2]*endToEndRun
		for i := range runs {
			r, err := runEndToEnd(w, seed, total, outDir)
			if err != nil {
				fatal(err)
			}
			if r.failed > 0 {
				fmt.Printf("%-15s run %d: %d of %d ops failed: %v\n", w.name, i+1, r.failed, r.attempted, r.firstErr)
				ok = false
			}
			runs[i] = r
		}
		for _, d := range endToEnd {
			a, b := runs[0].values[d.Name].med, runs[1].values[d.Name].med
			gap := ratio(math.Abs(b-a), a)
			verdict := ""
			if gap > d.Bound {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Printf("%-15s %-18s %14.4f %14.4f %7.2f%% %5.0f%%%s\n", w.name, d.Name, a, b, 100*gap, 100*d.Bound, verdict)
		}
	}
	return ok
}

// historyLine is one line of history.jsonl.
type historyLine struct {
	Time      string                        `json:"time"`
	Commit    string                        `json:"commit"`
	Seed      int64                         `json:"seed"`
	Go        string                        `json:"go"`
	NProc     int                           `json:"nproc"`
	Clients   int                           `json:"clients"`
	Seconds   float64                       `json:"seconds"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// gitCommit names the code that ran: HEAD, marked when the tree has
// uncommitted changes.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

func appendHistory(rec historyLine) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile("history.jsonl", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
