package main

import "fmt"

// The benchmark's metric tables. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; TestBenchmarkJSON
// keeps the two in step.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are what a user of the system sees, reported for every
// workload from untraced windows, the timings at reference speed (see
// runEndToEnd). failed_share is not in the table:
// the result line carries attempted and failed, and any failed op makes
// the run incorrect.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// opClasses lists every op class of every workload, in the order the
// op.<class>.p50_us metrics are declared.
var opClasses = []string{
	"cart_load", "table_load", "ref_load", "suggest_load", "mashup_load",
	"cart", "nav", "table", "render",
	"doc", "adhoc", "eval",
	"put", "update", "bulk",
	"where", "aggregate", "ftfilter",
}

// perLayer are the single-layer metrics, reported from a traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "markup.parse_us_per_op", Unit: "us", Better: "lower"},
		{Name: "markup.parse_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "markup.serialize_us_per_op", Unit: "us", Better: "lower"},

		{Name: "core.init_plugin_us", Unit: "us", Better: "lower"},
		{Name: "core.compile_scripts_us", Unit: "us", Better: "lower"},
		{Name: "core.run_main_us", Unit: "us", Better: "lower"},
		{Name: "core.dispatch_us_per_event", Unit: "us", Better: "lower"},
		{Name: "core.prims_per_event", Unit: "count", Better: "lower"},

		{Name: "xquery.parse_us", Unit: "us", Better: "lower"},
		{Name: "xquery.plan_us", Unit: "us", Better: "lower"},
		{Name: "xquery.compile_us", Unit: "us", Better: "lower"},
		{Name: "xquery.rewrites_per_program", Unit: "count", Better: "higher"},

		{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "cache.compiles_per_op", Unit: "count", Better: "lower"},
		{Name: "cache.evictions_per_op", Unit: "count", Better: "lower"},
		{Name: "cache.coalesced_per_op", Unit: "count", Better: "higher"},

		{Name: "eval.query_us", Unit: "us", Better: "lower"},
		{Name: "eval.listener_us", Unit: "us", Better: "lower"},
	}
	for _, c := range opClasses {
		defs = append(defs, metricDef{Name: "op." + c + ".p50_us", Unit: "us", Better: "lower"})
	}
	return append(defs, []metricDef{
		{Name: "index.builds_per_op", Unit: "count", Better: "lower"},
		{Name: "index.hits_per_op", Unit: "count", Better: "higher"},
		{Name: "index.hits_per_build", Unit: "ratio", Better: "higher"},
		{Name: "index.build_us", Unit: "us", Better: "lower"},
		{Name: "dom.nodes_per_page", Unit: "count", Better: "lower"},

		{Name: "ft.builds_per_op", Unit: "count", Better: "lower"},
		{Name: "ft.hits_per_op", Unit: "count", Better: "higher"},
		{Name: "ft.loads", Unit: "count", Better: "higher"},
		{Name: "ft.build_us", Unit: "us", Better: "lower"},

		{Name: "update.groups_per_op", Unit: "count", Better: "higher"},
		{Name: "update.eliminated_per_op", Unit: "count", Better: "higher"},
		{Name: "update.parallel_applies_per_op", Unit: "count", Better: "higher"},
		{Name: "update.rollbacks", Unit: "count", Better: "lower"},

		{Name: "serve.load_us", Unit: "us", Better: "lower"},
		{Name: "serve.sessions_peak", Unit: "count", Better: "lower"},
		{Name: "serve.shed", Unit: "count", Better: "lower"},
		{Name: "serve.queries_rejected", Unit: "count", Better: "lower"},

		{Name: "rest.requests_per_op", Unit: "count", Better: "lower"},
		{Name: "rest.wire_bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "rest.roundtrip_us_per_op", Unit: "us", Better: "lower"},
		{Name: "rest.server_handle_us", Unit: "us", Better: "lower"},
		{Name: "rest.encode_us", Unit: "us", Better: "lower"},
		{Name: "rest.decode_us", Unit: "us", Better: "lower"},
		{Name: "rest.client_cache_hit_ratio", Unit: "ratio", Better: "higher"},

		{Name: "xmldb.get_us", Unit: "us", Better: "lower"},
		{Name: "xmldb.put_us", Unit: "us", Better: "lower"},
		{Name: "xmldb.query_us", Unit: "us", Better: "lower"},
		{Name: "xmldb.update_us", Unit: "us", Better: "lower"},
		{Name: "xmldb.commits_per_op", Unit: "count", Better: "lower"},
		{Name: "xmldb.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
		{Name: "xmldb.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
		{Name: "xmldb.checkpoints", Unit: "count", Better: "lower"},
		{Name: "xmldb.max_op_ms", Unit: "ms", Better: "lower"},
		{Name: "xmldb.conflicts", Unit: "count", Better: "lower"},

		{Name: "fed.calls_per_op", Unit: "count", Better: "lower"},
		{Name: "fed.hedges_per_call", Unit: "ratio", Better: "lower"},
		{Name: "fed.retries_per_op", Unit: "count", Better: "lower"},
		{Name: "fed.breaker_opens", Unit: "count", Better: "lower"},
		{Name: "fed.partials", Unit: "count", Better: "lower"},
		{Name: "fed.shard_max_over_mean", Unit: "ratio", Better: "lower"},
		{Name: "fed.mediator_self_us", Unit: "us", Better: "lower"},
		{Name: "fed.decoded_items_per_op", Unit: "count", Better: "lower"},

		{Name: "gc.cycles_per_s", Unit: "1/s", Better: "lower"},
		{Name: "gc.pause_ms_per_s", Unit: "ms/s", Better: "lower"},
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
		{Name: "ref.speed", Unit: "ratio", Better: "higher"},
	}...)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line, in the shape the
// benchmark contract fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what every run counts: ops attempted, ops failed (errors,
// refusals, wrong outputs, documents wrong after reopen) and the first
// failure seen.
type outcome struct {
	attempted, failed int
	firstErr          error
}

// add folds one window into the outcome.
func (o *outcome) add(w window) {
	o.attempted += w.ops
	o.failed += w.failed
	if o.firstErr == nil {
		o.firstErr = w.firstErr
	}
}

// addLate folds in what only the post-run verification can find.
func (o *outcome) addLate(failed int) {
	o.failed += failed
	if failed > 0 && o.firstErr == nil {
		o.firstErr = fmt.Errorf("%d documents differ from the model after reopen", failed)
	}
}

func (o outcome) result(defs []metricDef, vals map[string]float64) result {
	return result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: fill(defs, vals)}
}

// fill builds the metrics map for defs from vals; a name absent from
// vals reads 0 (a layer the workload bypasses).
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
