package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/xquery/ast"
)

// Profiler collects per-expression-kind evaluation counts and wall
// time — the "performance profiler" the paper's §7 lists as future
// tooling work. Attach one to a Context; collection is off (zero cost)
// when the pointer is nil.
type Profiler struct {
	mu       sync.Mutex
	entries  map[string]*ProfileEntry
	rewrites map[string]int64
	updates  map[string]int64
	ft       map[string]int64
	fed      map[string]int64
	content  map[string]int64
}

// ProfileEntry accumulates one expression kind's statistics. Items
// counts items pulled through the kind's streaming iterators: when a
// query early-exits, Items stays far below the size of the sequences
// it ranged over, which is how a profile proves lazy evaluation paid
// off. IndexHits counts path steps answered from a per-document index
// instead of an axis walk (see internal/dom/index): a descendant-heavy
// query that planned well shows hits here and correspondingly few
// items pulled.
type ProfileEntry struct {
	Kind      string
	Count     int64
	Items     int64
	IndexHits int64
	Time      time.Duration
}

// NewProfiler creates an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{entries: map[string]*ProfileEntry{}}
}

func (p *Profiler) record(kind string, d time.Duration) {
	p.mu.Lock()
	e := p.entries[kind]
	if e == nil {
		e = &ProfileEntry{Kind: kind}
		p.entries[kind] = e
	}
	e.Count++
	e.Time += d
	p.mu.Unlock()
}

// add adds to a counter of one of the named families below.
func (p *Profiler) add(family *map[string]int64, kind string, n int64) {
	if n == 0 {
		return
	}
	p.mu.Lock()
	if *family == nil {
		*family = map[string]int64{}
	}
	(*family)[kind] += n
	p.mu.Unlock()
}

// get reads a counter of one of the named families below.
func (p *Profiler) get(family *map[string]int64, kind string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return (*family)[kind]
}

// AddRewrites adds to a named optimizer-rewrite counter. The engine
// credits the per-program rewrite statistics ("pushdown", "hoist",
// "join", "fold") here once per run, so a profile reports which
// algebraic rewrites shaped the plan it measured.
func (p *Profiler) AddRewrites(kind string, n int64) { p.add(&p.rewrites, kind, n) }

// RewritesFor returns a named optimizer-rewrite counter (see
// AddRewrites).
func (p *Profiler) RewritesFor(kind string) int64 { return p.get(&p.rewrites, kind) }

// AddUpdates adds to a named update counter. The engine credits the
// primitives each apply's pre-pass dropped ("eliminated") here, so a
// profile reports how many of the run's pending updates never had to
// apply.
func (p *Profiler) AddUpdates(kind string, n int64) { p.add(&p.updates, kind, n) }

// UpdatesFor returns a named update counter (see AddUpdates).
func (p *Profiler) UpdatesFor(kind string) int64 { return p.get(&p.updates, kind) }

// AddFT adds to a named full-text counter. The evaluator credits
// "probes" for ftcontains selections answered from a full-text index
// and "builds" for index constructions its probes triggered, so a
// profile shows whether a full-text workload ran indexed or kept
// falling back to scans.
func (p *Profiler) AddFT(kind string, n int64) { p.add(&p.ft, kind, n) }

// FTFor returns a named full-text counter (see AddFT).
func (p *Profiler) FTFor(kind string) int64 { return p.get(&p.ft, kind) }

// AddFed adds to a named federation counter. The evaluator credits
// "shipped" for every annotated node (ast.ShipPlan) it answered through
// the run's collection source (a CollectionShipper) instead of fetching
// the collection, so a profile shows whether a federated query moved its
// answer or its documents.
func (p *Profiler) AddFed(kind string, n int64) { p.add(&p.fed, kind, n) }

// FedFor returns a named federation counter (see AddFed).
func (p *Profiler) FedFor(kind string) int64 { return p.get(&p.fed, kind) }

// AddContent adds to a named content counter. The constructors and the
// insert and replace expressions credit "<Kind>.adopted" for every tree
// node they took as content as it was (the planner proved the content
// expression fresh, see ast.DirElem.Adopt) and "<Kind>.copied" for every
// one they deep-copied, Kind being DirElem, CompConstructor, Insert or
// Replace; text and attributes go in by value and are not counted. A
// profile so shows whether constructed content was built once or copied
// at every level it passed through.
func (p *Profiler) AddContent(kind string, n int64) { p.add(&p.content, kind, n) }

// ContentFor returns a named content counter (see AddContent).
func (p *Profiler) ContentFor(kind string) int64 { return p.get(&p.content, kind) }

// recordItems adds to the items-pulled counter of an expression kind.
func (p *Profiler) recordItems(kind string, n int64) {
	p.mu.Lock()
	e := p.entries[kind]
	if e == nil {
		e = &ProfileEntry{Kind: kind}
		p.entries[kind] = e
	}
	e.Items += n
	p.mu.Unlock()
}

// recordIndexHits adds to the index-hit counter of an expression kind.
func (p *Profiler) recordIndexHits(kind string, n int64) {
	p.mu.Lock()
	e := p.entries[kind]
	if e == nil {
		e = &ProfileEntry{Kind: kind}
		p.entries[kind] = e
	}
	e.IndexHits += n
	p.mu.Unlock()
}

// IndexHitsFor returns the index hits recorded for one expression
// kind.
func (p *Profiler) IndexHitsFor(kind string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.entries[kind]; e != nil {
		return e.IndexHits
	}
	return 0
}

// Items returns the items pulled for one expression kind.
func (p *Profiler) ItemsFor(kind string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.entries[kind]; e != nil {
		return e.Items
	}
	return 0
}

// Entries returns the collected statistics sorted by total time,
// descending.
func (p *Profiler) Entries() []ProfileEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ProfileEntry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time > out[j].Time })
	return out
}

// Total returns the aggregate evaluation count.
func (p *Profiler) Total() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, e := range p.entries {
		n += e.Count
	}
	return n
}

// Format renders a report (cmd/xq -profile). Column legend: count is
// evaluations, items is items pulled through streaming iterators,
// idxhits is path steps answered from a per-document index instead of
// an axis walk. Optimizer rewrite counters follow when any is nonzero.
func (p *Profiler) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %14s\n",
		"expression", "count", "items", "idxhits", "time")
	for _, e := range p.Entries() {
		fmt.Fprintf(&b, "%-20s %10d %10d %10d %14s\n",
			e.Kind, e.Count, e.Items, e.IndexHits, e.Time)
	}
	// The named counters, each family under its prefix.
	counters := func(prefix string, m map[string]int64) {
		p.mu.Lock()
		kinds := make([]string, 0, len(m))
		for k := range m {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "%-20s %10d\n", prefix+k, m[k])
		}
		p.mu.Unlock()
	}
	counters("rewrite:", p.rewrites)
	counters("update:", p.updates)
	counters("ft:", p.ft)
	counters("fed:", p.fed)
	counters("content:", p.content)
	return b.String()
}

// exprKind names an AST node for profiling.
func exprKind(e ast.Expr) string {
	s := fmt.Sprintf("%T", e)
	if i := strings.IndexByte(s, '.'); i >= 0 {
		s = s[i+1:]
	}
	return s
}
