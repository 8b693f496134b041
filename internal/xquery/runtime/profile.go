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
	counters map[string]int64
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

// Add adds n to the named counter. A name is a family prefix and a
// kind, as Format prints it:
//
//   - "rewrite:fold", "rewrite:pushdown", "rewrite:hoist",
//     "rewrite:join": the optimizer rewrites that shaped the run's plan,
//     credited by the engine once per run;
//   - "ft:probes", "ft:builds": ftcontains selections answered from a
//     full-text index and the index constructions its probes
//     triggered, so a profile shows whether a full-text workload ran
//     indexed or kept falling back to scans;
//   - "fed:shipped": annotated nodes (ast.ShipPlan) answered through
//     the run's collection source (a CollectionShipper) instead of
//     fetching the collection, so a profile shows whether a federated
//     query moved its answer or its documents;
//   - "content:<Kind>.adopted", "content:<Kind>.copied": tree nodes a
//     constructor, insert or replace (Kind DirElem, CompConstructor,
//     Insert or Replace) took as content as they were (the planner
//     proved the content expression fresh, see ast.DirElem.Adopt) or
//     deep-copied; text and attributes go in by value and are not
//     counted.
func (p *Profiler) Add(name string, n int64) {
	if n == 0 {
		return
	}
	p.mu.Lock()
	if p.counters == nil {
		p.counters = map[string]int64{}
	}
	p.counters[name] += n
	p.mu.Unlock()
}

// Count returns the named counter (see Add).
func (p *Profiler) Count(name string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters[name]
}

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
// an axis walk. The named counters (Add) follow, sorted by name.
func (p *Profiler) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %14s\n",
		"expression", "count", "items", "idxhits", "time")
	for _, e := range p.Entries() {
		fmt.Fprintf(&b, "%-20s %10d %10d %10d %14s\n",
			e.Kind, e.Count, e.Items, e.IndexHits, e.Time)
	}
	p.mu.Lock()
	names := make([]string, 0, len(p.counters))
	for name := range p.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-20s %10d\n", name, p.counters[name])
	}
	p.mu.Unlock()
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
