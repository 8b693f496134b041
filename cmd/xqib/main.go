// Command xqib loads an (X)HTML page, executes its XQuery scripts
// through the plug-in pipeline of Figure 1, optionally replays a
// user-interaction script, and dumps the resulting page:
//
//	xqib -page page.html
//	xqib -page page.html -do 'click:generate;key:text1=Br'
//
// The -do script is a ";"-separated list of interactions:
//
//	click:ID         dispatch a click at the element with that id
//	key:ID=TEXT      set @value to TEXT and dispatch keyup
//	set:ID@ATTR=V    set an attribute (no event)
//
// With -sessions N > 1 the page is served through the concurrent
// serving layer instead: N sessions load in parallel through a shared
// program cache, each replays the -do script on its own event loop,
// and -stats dumps the pool's observability snapshot as JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/fed"
	"repro/internal/markup"
	"repro/internal/serve"
	"repro/internal/xmldb"
)

func main() {
	pageFile := flag.String("page", "", "page file to load")
	href := flag.String("href", "http://localhost/page.html", "page URL (origin for the security policy)")
	script := flag.String("do", "", "interaction script (see command doc)")
	quiet := flag.Bool("quiet", false, "suppress the final DOM dump")
	budget := flag.Int64("budget", 0, "max evaluation steps per query, 0 = unlimited")
	timeout := flag.Duration("timeout", 0, "max wall-clock time per query, 0 = unlimited")
	sessions := flag.Int("sessions", 1, "serve the page as this many concurrent sessions")
	maxSessions := flag.Int("max-sessions", 0, "session pool bound (0 = number of sessions)")
	stats := flag.Bool("stats", false, "print the serving metrics snapshot as JSON (pool mode)")
	storeDir := flag.String("store", "", "document store directory: routes fn:doc/fn:collection through the persistent store (empty = no store)")
	shards := flag.Int("shards", 0, "store shard count for parallel collection scans (0 = default)")
	fedSpec := flag.String("fed", "", `federated shard backends: comma-separated shard groups, "|"-separated replicas within a group (e.g. "http://a|http://a2,http://b"); routes fn:collection through the scatter-gather executor (-store wins if both are set)`)
	fedPartial := flag.Bool("fed-partial", false, "degrade federated queries to partial results (with a fed:incomplete diagnostic) instead of failing when a shard is down")
	fedNoHedge := flag.Bool("fed-no-hedge", false, "disable hedged federated requests (one attempt per backend at a time)")
	flag.Parse()

	if *pageFile == "" {
		fatal(fmt.Errorf("-page is required"))
	}
	data, err := os.ReadFile(*pageFile)
	if err != nil {
		fatal(err)
	}
	var st *xmldb.Store
	if *storeDir != "" {
		var sopts []xmldb.Option
		if *shards > 0 {
			sopts = append(sopts, xmldb.WithShards(*shards))
		}
		st, err = xmldb.Open(*storeDir, sopts...)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
	}
	var fx *fed.Executor
	if *fedSpec != "" {
		fx, err = fed.New(fed.Config{
			Shards:         fed.ParseShards(*fedSpec),
			PartialResults: *fedPartial,
			DisableHedge:   *fedNoHedge,
		})
		if err != nil {
			fatal(err)
		}
	}
	if *sessions > 1 {
		servePool(string(data), *href, *script, *sessions, *maxSessions,
			*budget, *timeout, *stats, st, fx)
		return
	}
	var opts []core.Option
	if *budget > 0 || *timeout > 0 {
		opts = append(opts, core.WithQueryBudget(*budget, *timeout))
	}
	if st != nil {
		opts = append(opts, core.WithStoreResolvers(st.Resolver(), st.CollectionSource()))
	} else if fx != nil {
		opts = append(opts, core.WithStoreResolvers(nil, fx.CollectionSource(context.Background())))
	}
	h, err := core.LoadPage(string(data), *href, opts...)
	if err != nil {
		fatal(err)
	}

	if *script != "" {
		for _, step := range strings.Split(*script, ";") {
			step = strings.TrimSpace(step)
			if step == "" {
				continue
			}
			if err := apply(h, step); err != nil {
				fatal(err)
			}
		}
	}
	if errs := h.WaitIdle(5 * time.Second); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "xqib: async:", e)
		}
	}

	for _, a := range h.Alerts() {
		fmt.Println("ALERT:", a)
	}
	if h.Window.Status != "" {
		fmt.Println("STATUS:", h.Window.Status)
	}
	if !*quiet {
		fmt.Println(markup.SerializeIndent(h.Page))
	}
}

// servePool runs the pool mode: load the page as n concurrent
// sessions, replay the interaction script on each session's event
// loop, and report aggregate results.
func servePool(page, href, script string, n, maxSessions int, budget int64, timeout time.Duration, stats bool, st *xmldb.Store, fx *fed.Executor) {
	if maxSessions <= 0 {
		maxSessions = n
	}
	pool := serve.NewPool(serve.Config{
		MaxSessions: maxSessions,
		MaxSteps:    budget,
		Timeout:     timeout,
		Store:       st,
		Fed:         fx,
	})
	ctx := context.Background()

	type result struct {
		alerts int
		err    error
	}
	results := make([]result, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			// Each session closes before the goroutine exits so its
			// pool slot frees for loads still waiting (n may exceed
			// the pool bound).
			s, err := pool.Load(ctx, page, href)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			defer s.Close()
			run := func(h *core.Host) error {
				for _, step := range strings.Split(script, ";") {
					step = strings.TrimSpace(step)
					if step == "" {
						continue
					}
					if err := apply(h, step); err != nil {
						return err
					}
				}
				if errs := h.WaitIdle(5 * time.Second); len(errs) > 0 {
					return errs[0]
				}
				results[i].alerts = len(h.Alerts())
				return nil
			}
			results[i].err = s.Do(ctx, run)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}

	failed := 0
	alerts := 0
	for i, r := range results {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "xqib: session %d: %v\n", i, r.err)
		}
		alerts += r.alerts
	}
	fmt.Printf("SESSIONS: %d ok, %d failed, %d alerts\n", n-failed, failed, alerts)
	if stats {
		m := pool.Metrics()
		out, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	}
	if err := pool.Shutdown(ctx); err != nil {
		fatal(err)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func apply(h *core.Host, step string) error {
	kind, rest, ok := strings.Cut(step, ":")
	if !ok {
		return fmt.Errorf("bad interaction %q", step)
	}
	switch kind {
	case "click":
		return h.Click(rest)
	case "key":
		id, text, ok := strings.Cut(rest, "=")
		if !ok {
			return fmt.Errorf("bad key interaction %q", step)
		}
		el := h.Page.ElementByID(id)
		if el == nil {
			return fmt.Errorf("no element with id %q", id)
		}
		el.SetAttr(dom.Name("value"), text)
		key := ""
		if text != "" {
			key = text[len(text)-1:]
		}
		return h.Keyup(id, key)
	case "set":
		target, value, ok := strings.Cut(rest, "=")
		if !ok {
			return fmt.Errorf("bad set interaction %q", step)
		}
		id, attr, ok := strings.Cut(target, "@")
		if !ok {
			return fmt.Errorf("bad set target %q", target)
		}
		el := h.Page.ElementByID(id)
		if el == nil {
			return fmt.Errorf("no element with id %q", id)
		}
		el.SetAttr(dom.Name(attr), value)
		return nil
	default:
		return fmt.Errorf("unknown interaction kind %q", kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xqib:", err)
	os.Exit(1)
}
