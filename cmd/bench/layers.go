package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dom/index"
	"repro/internal/fed"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/rest"
	"repro/internal/serve"
	"repro/internal/xmldb"
	"repro/internal/xquery/update"
)

// Layers are measured from outside: deltas of the public counters each
// layer already keeps, the harness's own HTTP wrappers, and — in a
// traced window — spans around the calls the harness makes, plus
// replays of a layer's public entry point on an op's actual input.

// sources names a workload's live objects for the counter snapshots.
type sources struct {
	pool  *serve.Pool    // the serving pool under test, if any
	store *xmldb.Store   // the store under test, if any
	rest  []*rest.Client // the clients' whole-document caches
	http  *httpStats
	wal   *walWatch // store_write only
}

// walWatch follows the redo log's size from outside. The write clients
// call observe after each commit; the log is truncated at every
// checkpoint, so growth is summed piecewise.
type walWatch struct {
	path      string
	userBytes atomic.Int64 // serialized size of every document version written
	walBytes  atomic.Int64

	mu   sync.Mutex // orders the size readings
	last int64
}

func (w *walWatch) observe() {
	w.mu.Lock()
	defer w.mu.Unlock()
	fi, err := os.Stat(w.path)
	if err != nil {
		return // mid-checkpoint: the next observe sees the new log
	}
	size := fi.Size()
	if size >= w.last {
		w.walBytes.Add(size - w.last)
	} else {
		w.walBytes.Add(size) // truncated since the last reading
	}
	w.last = size
}

// counters is one snapshot of everything the layers count.
type counters struct {
	pool  serve.Metrics
	index index.Stats
	ft    ftindex.Stats
	upd   update.Stats
	rolls int64
	fed   fed.Stats
	store xmldb.StatsSnapshot

	requests, wireBytes, rtNs, srvReqs, srvNs int64
	routeN, routeNs                           map[string]int64
	restHits, restMisses                      int64
	walBytes, userBytes, diskBytes            int64
}

func snapCounters(src sources) counters {
	c := counters{
		index:   index.Snapshot(),
		ft:      ftindex.Snapshot(),
		upd:     update.Snapshot(),
		rolls:   update.Rollbacks(),
		fed:     fed.Snapshot(),
		routeN:  map[string]int64{},
		routeNs: map[string]int64{},
	}
	if src.pool != nil {
		c.pool = src.pool.Metrics()
	}
	if src.store != nil {
		c.store = src.store.Stats.Snapshot()
	}
	for _, rc := range src.rest {
		cs := rc.CacheStats()
		c.restHits += cs.Hits
		c.restMisses += cs.Misses
	}
	if h := src.http; h != nil {
		c.requests, c.wireBytes, c.rtNs = h.requests.Load(), h.wireBytes.Load(), h.rtNs.Load()
		c.srvReqs, c.srvNs = h.srvReqs.Load(), h.srvNs.Load()
		for k, rs := range h.routes {
			c.routeN[k], c.routeNs[k] = rs.n.Load(), rs.ns.Load()
		}
	}
	if w := src.wal; w != nil {
		c.walBytes, c.userBytes = w.walBytes.Load(), w.userBytes.Load()
		c.diskBytes = procWriteBytes()
	}
	return c
}

// procWriteBytes is the bytes this process has sent to the storage
// layer (/proc/self/io write_bytes): log appends and snapshots, not
// socket traffic. It reads 0 where the kernel does not account it.
func procWriteBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

func histMeanUs(a, b serve.LatencyHist) float64 {
	return ratio(float64(b.TotalNanos-a.TotalNanos)/1e3, float64(b.Count-a.Count))
}

// counterMetrics turns the counter deltas over an untraced window into
// the counter-backed per-layer metrics.
func counterMetrics(w *workload, win window, a, b counters) map[string]float64 {
	ops := float64(win.good())
	per := func(x, y int64) float64 { return ratio(float64(y-x), ops) }
	m := map[string]float64{}

	ca, cb := a.pool.Cache, b.pool.Cache
	// A lookup ends as a program hit, a join of a compile in flight, or
	// a compile; a compile that found its module parsed already (another
	// session's engine compiled the same page script) skipped the parse,
	// which is the saving a page load can get.
	hits := (cb.ProgramHits - ca.ProgramHits) + (cb.ModuleHits - ca.ModuleHits)
	lookups := (cb.ProgramHits - ca.ProgramHits) + (cb.Compiles - ca.Compiles) + (cb.Coalesced - ca.Coalesced)
	m["cache.hit_ratio"] = ratio(float64(hits), float64(lookups))
	m["cache.compiles_per_op"] = per(ca.Compiles, cb.Compiles)
	m["cache.evictions_per_op"] = per(ca.Evictions, cb.Evictions)
	m["cache.coalesced_per_op"] = per(ca.Coalesced, cb.Coalesced)

	m["eval.query_us"] = histMeanUs(a.pool.Queries, b.pool.Queries)
	m["eval.listener_us"] = histMeanUs(a.pool.Dispatches, b.pool.Dispatches)
	for i, l := range win.byClass {
		if len(l) > 0 {
			m["op."+w.classes[i]+".p50_us"] = float64(percentile(l, 50)) / 1e3
		}
	}

	builds := b.index.Builds - a.index.Builds
	m["index.builds_per_op"] = ratio(float64(builds), ops)
	m["index.hits_per_op"] = per(a.index.Hits, b.index.Hits)
	m["index.hits_per_build"] = ratio(float64(b.index.Hits-a.index.Hits), float64(builds))
	m["ft.builds_per_op"] = per(a.ft.Builds, b.ft.Builds)
	m["ft.hits_per_op"] = per(a.ft.Hits, b.ft.Hits)
	m["ft.loads"] = float64(b.ft.Loads - a.ft.Loads)

	m["update.groups_per_op"] = per(a.upd.Groups, b.upd.Groups)
	m["update.eliminated_per_op"] = per(a.upd.Eliminated, b.upd.Eliminated)
	m["update.parallel_applies_per_op"] = per(a.upd.ParallelApplies, b.upd.ParallelApplies)
	m["update.rollbacks"] = float64(b.rolls - a.rolls)

	m["serve.load_us"] = histMeanUs(a.pool.Loads, b.pool.Loads)
	m["serve.sessions_peak"] = float64(b.pool.SessionsPeak)
	m["serve.shed"] = float64(b.pool.Failures.Shed - a.pool.Failures.Shed)
	m["serve.queries_rejected"] = float64(b.pool.QueriesRejected - a.pool.QueriesRejected)

	m["rest.requests_per_op"] = per(a.requests, b.requests)
	m["rest.wire_bytes_per_op"] = per(a.wireBytes, b.wireBytes)
	m["rest.roundtrip_us_per_op"] = ratio(float64(b.rtNs-a.rtNs)/1e3, ops)
	m["rest.server_handle_us"] = ratio(float64(b.srvNs-a.srvNs)/1e3, float64(b.srvReqs-a.srvReqs))
	m["rest.client_cache_hit_ratio"] = ratio(float64(b.restHits-a.restHits),
		float64(b.restHits-a.restHits+b.restMisses-a.restMisses))

	route := func(classes ...string) float64 {
		var n, ns int64
		for _, c := range classes {
			n += b.routeN[c] - a.routeN[c]
			ns += b.routeNs[c] - a.routeNs[c]
		}
		return ratio(float64(ns)/1e3, float64(n))
	}
	m["xmldb.get_us"] = route("doc")
	m["xmldb.put_us"] = route("put")
	m["xmldb.query_us"] = route("adhoc")
	m["xmldb.update_us"] = route("update", "bulk")
	m["xmldb.commits_per_op"] = per(a.store.Commits, b.store.Commits)
	m["xmldb.checkpoints"] = float64(b.store.Checkpoints - a.store.Checkpoints)
	m["xmldb.conflicts"] = float64(b.store.Conflicts - a.store.Conflicts)
	user := float64(b.userBytes - a.userBytes)
	m["xmldb.wal_bytes_per_user_byte"] = ratio(float64(b.walBytes-a.walBytes), user)
	m["xmldb.disk_bytes_per_user_byte"] = ratio(float64(b.diskBytes-a.diskBytes), user)
	if b.store.Commits > a.store.Commits && len(win.lat) > 0 {
		m["xmldb.max_op_ms"] = float64(win.lat[len(win.lat)-1]) / 1e6 // a checkpoint stalls the commit behind it
	}

	calls := b.fed.Calls - a.fed.Calls
	m["fed.calls_per_op"] = ratio(float64(calls), ops)
	m["fed.hedges_per_call"] = ratio(float64(b.fed.Hedges-a.fed.Hedges), float64(calls))
	m["fed.retries_per_op"] = per(a.fed.Retries, b.fed.Retries)
	m["fed.breaker_opens"] = float64(b.fed.BreakerOpens - a.fed.BreakerOpens)
	m["fed.partials"] = float64(b.fed.Partials - a.fed.Partials)

	m["gc.cycles_per_s"] = ratio(float64(win.numGC), win.wall.Seconds())
	m["gc.pause_ms_per_s"] = ratio(float64(win.pauseNs)/1e6, win.wall.Seconds())
	return m
}

// spanMetrics turns a traced window's spans into the timer-backed
// per-layer metrics. sampled is how many ops replayed their layers;
// federated says the workload's ops are scatter-gathers, whose server
// spans are shard calls.
func spanMetrics(tot map[string]agg, perClient [][]span, sampled int, federated bool) map[string]float64 {
	n := float64(sampled)
	perOp := func(name string) float64 { return ratio(float64(tot[name].Ns)/1e3, n) }
	m := map[string]float64{
		"markup.parse_us_per_op":      perOp("markup.parse"),
		"markup.parse_mb_s":           ratio(float64(tot["markup.parse"].Qty)/1e6, float64(tot["markup.parse"].Ns)/1e9),
		"markup.serialize_us_per_op":  perOp("markup.serialize"),
		"core.init_plugin_us":         tot["core.init_plugin"].meanUs(),
		"core.compile_scripts_us":     tot["core.compile_scripts"].meanUs(),
		"core.run_main_us":            tot["core.run_main"].meanUs(),
		"core.dispatch_us_per_event":  tot["core.dispatch"].meanUs(),
		"core.prims_per_event":        ratio(float64(tot["core.dispatch"].Qty), float64(tot["core.dispatch"].N)),
		"xquery.parse_us":             tot["xquery.parse"].meanUs(),
		"xquery.plan_us":              tot["xquery.plan"].meanUs(),
		"xquery.compile_us":           tot["xquery.compile"].meanUs(),
		"xquery.rewrites_per_program": ratio(float64(tot["xquery.compile"].Qty), float64(tot["xquery.compile"].N)),
		"index.build_us":              tot["index.build"].meanUs(),
		"dom.nodes_per_page":          ratio(float64(tot["index.build"].Qty), float64(tot["index.build"].N)),
		"ft.build_us":                 tot["ft.build"].meanUs(),
		"rest.encode_us":              tot["rest.encode"].meanUs(),
		"rest.decode_us":              tot["rest.decode"].meanUs(),
		"fed.decoded_items_per_op":    ratio(float64(tot["rest.decode"].Qty), n),
	}

	// The federated op waits for the slowest of its shards. For each op
	// with server spans beneath it: slowest shard over mean shard, and
	// op time minus the slowest shard (what the mediator itself adds).
	if !federated {
		return m
	}
	var ops, overMean, selfNs float64
	for _, spans := range perClient {
		type shardAcc struct {
			sum, max int64
			n        int
		}
		byOp := map[int32]*shardAcc{}
		for _, s := range spans {
			if s.Name != "rest.server" || s.Replay {
				continue
			}
			acc := byOp[s.Op]
			if acc == nil {
				acc = &shardAcc{}
				byOp[s.Op] = acc
			}
			d := s.End - s.Start
			acc.sum += d
			acc.max = max(acc.max, d)
			acc.n++
		}
		for _, s := range spans {
			acc := byOp[s.Op]
			if s.Name != "op" || acc == nil || acc.n < 2 {
				continue
			}
			ops++
			overMean += ratio(float64(acc.max), float64(acc.sum)/float64(acc.n))
			selfNs += float64(s.End - s.Start - acc.max)
		}
	}
	m["fed.shard_max_over_mean"] = ratio(overMean, ops)
	m["fed.mediator_self_us"] = ratio(selfNs/1e3, ops)
	return m
}

// tracedRun is one traced run of a workload.
type tracedRun struct {
	outcome
	counted int // ops in the untraced counter window
	sampled int // ops that replayed their layers
	values  map[string]float64
	totals  map[string]agg
}

// runTraced sets the workload up once, measures an untraced window for
// the counters, then a traced window of the same length for the spans,
// and writes the trace file. trace.overhead_pct is the throughput gap
// between the two windows. The per-layer timers are as measured;
// ref.speed says how fast the host was meanwhile.
func runTraced(w *workload, seed int64, total time.Duration, outDir string) (*tracedRun, error) {
	e, st, _, err := setUp(w, seed, outDir)
	if err != nil {
		return nil, err
	}
	src := st.sources()

	burst := total / nWindows / refShare
	speeds := []float64{refSpeed(len(e.clients), burst)}
	before := snapCounters(src)
	plain := runFor(st, e.clients, total/2)
	after := snapCounters(src)
	speeds = append(speeds, refSpeed(len(e.clients), burst))

	for _, c := range e.clients {
		c.traced = true
		c.tr.enable(true)
	}
	traced := runFor(st, e.clients, total/2)
	for _, c := range e.clients {
		c.traced = false
		c.tr.enable(false)
	}
	speeds = append(speeds, refSpeed(len(e.clients), burst))
	lateFailed, err := tearDown(e, st)
	if err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}

	r := &tracedRun{counted: plain.good(), totals: map[string]agg{}}
	r.add(plain)
	r.add(traced)
	r.addLate(lateFailed)
	tf := traceFile{Workload: w.name, Seed: seed, Totals: r.totals}
	var perClient [][]span
	for _, c := range e.clients {
		spans := c.tr.take()
		aggregate(r.totals, spans)
		perClient = append(perClient, spans)
		tf.Clients = append(tf.Clients, traceClient{Client: c.idx, Total: len(spans), Spans: spans})
		r.sampled += c.replays
	}
	r.values = counterMetrics(w, plain, before, after)
	for k, v := range spanMetrics(r.totals, perClient, r.sampled, after.fed.Calls > before.fed.Calls) {
		r.values[k] = v
	}
	// The one per-layer figure that compares two windows is taken at
	// reference speed, like the end-to-end timings.
	plainT := ratio(plain.throughput(), (speeds[0]+speeds[1])/2)
	tracedT := ratio(traced.throughput(), (speeds[1]+speeds[2])/2)
	r.values["trace.overhead_pct"] = 100 * ratio(plainT-tracedT, plainT)
	r.values["ref.speed"] = median(speeds)
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), tf); err != nil {
		return nil, err
	}
	return r, nil
}
