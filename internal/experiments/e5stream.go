package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
)

// EarlyExitPairs are E5b's workloads: each query whose answer is
// decided by a prefix of //div beside one that has to consume the whole
// of the same path. Both run with RunConfig.DisableIndexes, so that
// //div is a walk of the tree in both: the name index would hand
// fn:count(//div) a postings list, and the id map would answer
// [@id = "d3"] without a walk. BenchmarkE5_EarlyExit* at the repository
// root runs the same pairs under testing.B.
var EarlyExitPairs = []struct{ Exit, Consume string }{
	{`(//div)[1]`, `(//div)[last()]`},
	{`fn:exists(//div)`, `fn:count(//div)`},
	{`some $d in //div satisfies $d/@id = "d3"`, `fn:count(//div[@id = "d3"])`},
}

// EarlyExitDoc is E5b's flat document of n div elements.
func EarlyExitDoc(n int) (xdm.Item, error) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<div id="d%d">content %d</div>`, i, i)
	}
	sb.WriteString("</root>")
	doc, err := markup.Parse(sb.String())
	if err != nil {
		return nil, err
	}
	return xdm.NewNode(doc), nil
}

// E5EarlyExit quantifies the streaming iterator runtime: each
// early-exit query of EarlyExitPairs against its consuming partner over
// flat DOMs of 10k and 100k nodes, on the one evaluator there is.
func E5EarlyExit() (Table, error) {
	t := Table{
		ID:     "E5b",
		Title:  "Streaming early exit vs consuming the same path",
		Header: []string{"early exit", "consumer", "nodes", "exit/op", "consume/op", "ratio", "exit allocs", "consume allocs"},
		Notes: []string{
			"allocs/op measured via runtime.MemStats deltas; indexes off, so every //div is a tree walk",
			"the early-exit query stops pulling //div after the first qualifying node; its partner pulls every div",
		},
	}
	e := xquery.New()
	for _, pair := range EarlyExitPairs {
		exit, err := e.Compile(pair.Exit)
		if err != nil {
			return t, err
		}
		consume, err := e.Compile(pair.Consume)
		if err != nil {
			return t, err
		}
		for _, size := range []int{10_000, 100_000} {
			item, err := EarlyExitDoc(size)
			if err != nil {
				return t, err
			}
			run := func(p *xquery.Program) func() error {
				return func() error {
					_, err := p.Run(xquery.RunConfig{ContextItem: item, DisableIndexes: true})
					return err
				}
			}
			// A first run of each keeps whatever a fresh tree costs once
			// out of the timing.
			if err := run(exit)(); err != nil {
				return t, err
			}
			if err := run(consume)(); err != nil {
				return t, err
			}
			xns, err := MeasureNsPerOp(run(exit), 10, 50*time.Millisecond)
			if err != nil {
				return t, err
			}
			cns, err := MeasureNsPerOp(run(consume), 10, 50*time.Millisecond)
			if err != nil {
				return t, err
			}
			xa, err := allocsPerOp(run(exit))
			if err != nil {
				return t, err
			}
			ca, err := allocsPerOp(run(consume))
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{
				pair.Exit, pair.Consume, fmt.Sprintf("%d", size),
				ns(xns), ns(cns), fmt.Sprintf("%.0fx", cns/xns),
				fmt.Sprintf("%d", xa), fmt.Sprintf("%d", ca),
			})
		}
	}
	return t, nil
}

// allocsPerOp estimates heap allocations per call from MemStats deltas.
func allocsPerOp(f func() error) (int64, error) {
	const iters = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / iters, nil
}
