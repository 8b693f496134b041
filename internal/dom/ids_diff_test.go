package dom_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/faultpoint"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
	"repro/internal/xquery/update"
)

// idKeys is the small pool of ids the differential draws from, so that
// ids repeat and move between holders.
var idKeys = []string{"k0", "k1", "k2", "k3", "k4"}

// idOracle walks n's subtree (n too if orSelf) for the elements whose
// id attribute is id.
func idOracle(n *dom.Node, id string, orSelf bool) []*dom.Node {
	var out []*dom.Node
	n.Walk(func(e *dom.Node) bool {
		if e.Type == dom.ElementNode && (e != n || orSelf) && e.AttrValue("id") == id {
			out = append(out, e)
		}
		return true
	})
	return out
}

func seqNodes(s xdm.Sequence) []*dom.Node {
	out := make([]*dom.Node, len(s))
	for i, it := range s {
		n, _ := xdm.IsNode(it)
		out[i] = n
	}
	return out
}

func equalNodes(a, b []*dom.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// idHolders walks doc for the elements whose id attribute is one of
// ids, in document order.
func idHolders(doc *dom.Node, ids ...string) []*dom.Node {
	var out []*dom.Node
	doc.Walk(func(e *dom.Node) bool {
		if a := e.AttrNode(dom.Name("id")); e.Type == dom.ElementNode && a != nil {
			for _, id := range ids {
				if a.Data == id {
					out = append(out, e)
					break
				}
			}
		}
		return true
	})
	return out
}

// anyID reports whether some element of doc has an id attribute.
func anyID(doc *dom.Node) bool {
	found := false
	doc.Walk(func(e *dom.Node) bool {
		found = found || (e.Type == dom.ElementNode && e.AttrNode(dom.Name("id")) != nil)
		return !found
	})
	return found
}

// idVarForm is a lookup keyed by a variable: its program, what its
// external variables are bound to for the keys k and k2, and what it
// answers — the holders of some ids, an error exactly where raises says
// so, or, with neither, whatever the same program answers with the
// indexes off.
type idVarForm struct {
	name   string
	src    string
	bind   func(doc *dom.Node, k, k2 string) map[dom.QName]xdm.Sequence
	ids    func(k, k2 string) []string
	raises func(doc *dom.Node) bool
	prog   *xquery.Program
}

func bindV(v ...xdm.Item) func(*dom.Node, string, string) map[dom.QName]xdm.Sequence {
	return func(*dom.Node, string, string) map[dom.QName]xdm.Sequence {
		return map[dom.QName]xdm.Sequence{dom.Name("v"): v}
	}
}

const vExternal = `declare variable $v external; `

// idVarForms are the variable-keyed and computed forms of
// //*[@id = K]: a planned id probe reads K once per step evaluation and
// probes the id map for one non-empty string, and answers every other
// key — (), two strings, a number, eq over two items, an error — from
// the candidates a scan would test. The two "set $v" forms assign $v
// while the step runs, and string(.) and string(@id) read the
// candidate: the planner must not probe them.
var idVarForms = []*idVarForm{
	{name: "one string", src: vExternal + `//*[@id = $v]`,
		bind: func(_ *dom.Node, k, _ string) map[dom.QName]xdm.Sequence {
			return map[dom.QName]xdm.Sequence{dom.Name("v"): {xdm.String(k)}}
		},
		ids: func(k, _ string) []string { return []string{k} }},
	{name: "()", src: vExternal + `//*[@id = $v]`, bind: bindV(),
		ids: func(string, string) []string { return nil }},
	{name: "two strings", src: vExternal + `//*[@id = $v]`,
		bind: func(_ *dom.Node, k, k2 string) map[dom.QName]xdm.Sequence {
			return map[dom.QName]xdm.Sequence{dom.Name("v"): {xdm.String(k), xdm.String(k2)}}
		},
		ids: func(k, k2 string) []string { return []string{k, k2} }},
	// FORG0001 at the first id attribute: "k0" is no number.
	{name: "an integer", src: vExternal + `//*[@id = $v]`, bind: bindV(xdm.Integer(3)), raises: anyID},
	{name: "an attribute", src: vExternal + `//*[@id = $v]`,
		bind: func(doc *dom.Node, k, _ string) map[dom.QName]xdm.Sequence {
			var v xdm.Sequence // an id attribute whose value is k, if there is one
			if h := idHolders(doc, k); len(h) > 0 {
				v = xdm.Sequence{xdm.NewNode(h[0].AttrNode(dom.Name("id")))}
			}
			return map[dom.QName]xdm.Sequence{dom.Name("v"): v}
		},
		ids: func(k, _ string) []string { return []string{k} }},
	{name: "eq one string", src: vExternal + `//*[$v eq @id]`,
		bind: func(_ *dom.Node, k, _ string) map[dom.QName]xdm.Sequence {
			return map[dom.QName]xdm.Sequence{dom.Name("v"): {xdm.String(k)}}
		},
		ids: func(k, _ string) []string { return []string{k} }},
	// A type error at the first candidate, and //* has one: the document
	// element.
	{name: "eq two strings", src: vExternal + `//*[@id eq $v]`, bind: bindV(xdm.String("k0"), xdm.String("k1")),
		raises: func(*dom.Node) bool { return true }},
	{name: "set $v", src: `declare variable $k external; declare variable $k2 external; declare variable $v := "";
		{ set $v := $k; //*[@id = $v][{ set $v := $k2; true() }]; }`,
		bind: bindK},
	// Computed keys: read once per step evaluation and probed where they
	// read nothing of the candidate and name no assigned variable.
	{name: "concat", src: vExternal + `//*[@id = concat("k", substring($v, 2))]`,
		bind: func(_ *dom.Node, k, _ string) map[dom.QName]xdm.Sequence {
			return map[dom.QName]xdm.Sequence{dom.Name("v"): {xdm.String(k)}}
		},
		ids: func(k, _ string) []string { return []string{k} }},
	{name: "a holder's @id", src: vExternal + `//*[@id = $v/@id]`,
		bind: func(doc *dom.Node, k, _ string) map[dom.QName]xdm.Sequence {
			var v xdm.Sequence // an element whose id is k, if there is one
			if h := idHolders(doc, k); len(h) > 0 {
				v = xdm.Sequence{xdm.NewNode(h[0])}
			}
			return map[dom.QName]xdm.Sequence{dom.Name("v"): v}
		},
		ids: func(k, _ string) []string { return []string{k} }},
	{name: "string($v)", src: vExternal + `//*[@id = string($v)]`,
		bind: func(_ *dom.Node, k, _ string) map[dom.QName]xdm.Sequence {
			return map[dom.QName]xdm.Sequence{dom.Name("v"): {xdm.UntypedAtomic(k)}}
		},
		ids: func(k, _ string) []string { return []string{k} }},
	// Raised where a candidate is; //* always has the document element.
	{name: "string of two strings", src: vExternal + `//*[@id = string($v)]`, bind: bindV(xdm.String("k0"), xdm.String("k1")),
		raises: func(*dom.Node) bool { return true }},
	{name: "1 + 1", src: `//*[@id = 1 + 1]`, bind: bindV(), raises: anyID},
	{name: "() computed", src: `//*[@id = ()]`, bind: bindV(), ids: func(string, string) []string { return nil }},
	{name: "eq two items", src: vExternal + `//*[@id eq ($v, "k1")]`, bind: bindV(xdm.String("k0")),
		raises: func(*dom.Node) bool { return true }},
	{name: "xs:integer", src: `//*[@id = xs:integer("x")]`, bind: bindV(),
		raises: func(*dom.Node) bool { return true }},
	{name: "a cast that raises", src: `//*[@id = ("x" cast as xs:integer)]`, bind: bindV(),
		raises: func(*dom.Node) bool { return true }},
	{name: "string(.)", src: `//*[@id = string(.)]`, bind: bindV()},
	{name: "string(@id)", src: `//*[@id = string(@id)]`, bind: bindV()},
	{name: "set $v, computed", src: `declare variable $k external; declare variable $k2 external; declare variable $v := "";
		{ set $v := $k; //*[@id = concat($v, "")][{ set $v := $k2; true() }]; }`,
		bind: bindK},
}

func bindK(_ *dom.Node, k, k2 string) map[dom.QName]xdm.Sequence {
	return map[dom.QName]xdm.Sequence{dom.Name("k"): {xdm.String(k)}, dom.Name("k2"): {xdm.String(k2)}}
}

// idWorld is two random trees with ids and the queries the differential
// asks of them after every step.
type idWorld struct {
	r     *rand.Rand
	docs  [2]*dom.Node
	fnID  map[string]*xquery.Program // fn:id("k")
	probe map[string]*xquery.Program // //*[@id = "k"], planned as an id probe
}

func newIDWorld(seed int64, progs [2]map[string]*xquery.Program) *idWorld {
	w := &idWorld{r: rand.New(rand.NewSource(seed)), fnID: progs[0], probe: progs[1]}
	for i := range w.docs {
		w.docs[i] = dom.RandomTree(w.r, 30)[0]
		for _, e := range w.elements(i) {
			if w.r.Intn(2) == 0 {
				e.SetAttr(dom.Name("id"), w.key())
			}
		}
		w.docs[i].ElementByID("k0") // from here on the map is maintained
	}
	return w
}

func (w *idWorld) key() string { return idKeys[w.r.Intn(len(idKeys))] }

// elements lists tree i's elements below its document element: what
// the mutations may move, detach or replace.
func (w *idWorld) elements(i int) []*dom.Node {
	var out []*dom.Node
	top := w.docs[i].DocumentElement()
	top.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode && n != top {
			out = append(out, n)
		}
		return true
	})
	return out
}

// pick returns a random element of tree i: any element, the document
// element included, when anyElem, else one below it; nil if none.
func (w *idWorld) pick(i int, anyElem bool) *dom.Node {
	els := w.elements(i)
	if anyElem {
		els = append(els, w.docs[i].DocumentElement())
	}
	if len(els) == 0 {
		return nil
	}
	return els[w.r.Intn(len(els))]
}

// subtree builds a detached subtree of up to four elements, most with
// ids from the pool.
func (w *idWorld) subtree() *dom.Node {
	root := dom.NewElement(dom.Name("s"))
	parents := []*dom.Node{root}
	for k := w.r.Intn(4); k > 0; k-- {
		e := dom.NewElement(dom.Name("s"))
		mustDo(parents[w.r.Intn(len(parents))].AppendChild(e))
		parents = append(parents, e)
	}
	for _, e := range parents {
		if w.r.Intn(4) > 0 {
			e.SetAttr(dom.Name("id"), w.key())
		}
	}
	return root
}

func mustDo(err error) {
	if err != nil {
		panic(err)
	}
}

// step applies one random mutation and names it.
func (w *idWorld) step(t *testing.T) string {
	i := w.r.Intn(2)
	switch w.r.Intn(11) {
	case 0:
		e := w.pick(i, true)
		e.SetAttr(dom.Name("id"), w.key())
		return "set id"
	case 1:
		w.pick(i, true).RemoveAttr(dom.Name("id"))
		return "remove id"
	case 2:
		e := w.pick(i, true)
		if a := e.AttrNode(dom.Name("id")); a != nil {
			a.Rename(dom.Name("was"))
		} else if a := e.AttrNode(dom.Name("was")); a != nil {
			a.Rename(dom.Name("id"))
		}
		return "rename id"
	case 3:
		if a := w.pick(i, true).AttrNode(dom.Name("id")); a != nil {
			a.SetData(w.key())
		}
		return "set id value"
	case 4:
		target := w.pick(i, true)
		s := w.subtree()
		switch ref := w.pick(i, false); {
		case ref == nil || w.r.Intn(3) == 0:
			mustDo(target.PrependChild(s))
		case w.r.Intn(2) == 0:
			mustDo(ref.Parent().InsertBefore(s, ref))
		default:
			mustDo(ref.Parent().InsertAfter(s, ref))
		}
		return "insert subtree"
	case 5:
		if e := w.pick(i, false); e != nil {
			e.Detach()
		}
		return "delete subtree"
	case 6:
		if e := w.pick(i, false); e != nil {
			mustDo(e.Parent().ReplaceChild(w.subtree(), e))
		}
		return "replace subtree"
	case 7:
		// A move within the tree or into the other one.
		e, to := w.pick(i, false), w.pick(w.r.Intn(2), true)
		if e != nil && e != to && !e.IsAncestorOf(to) {
			mustDo(to.AppendChild(e))
		}
		return "move subtree"
	case 8:
		if e := w.pick(i, true); w.r.Intn(2) == 0 {
			e.RemoveChildren()
		} else {
			e.ReplaceElementContent("t")
		}
		return "empty element"
	case 9:
		return w.failedApply(t, i)
	default:
		v := w.docs[i].Version()
		w.pick(i, true).SetAttr(dom.Name("id"), w.key())
		w.docs[i].RestoreVersion(v)
		return "RestoreVersion"
	}
}

// failedApply builds a pending update list that moves ids around and
// fails it part-way under the update.apply fault point: the rollback
// must leave the tree as it was and its ids where they were.
func (w *idWorld) failedApply(t *testing.T, i int) string {
	var pul update.PUL
	add := func(pr update.Primitive) {
		if pr.Target != nil {
			mustDo(pul.Add(pr))
		}
	}
	add(update.Primitive{Kind: update.InsertInto, Target: w.pick(i, true), Content: []*dom.Node{w.subtree()}})
	if a := w.pick(i, true).AttrNode(dom.Name("id")); a != nil {
		add(update.Primitive{Kind: update.ReplaceValue, Target: a, Value: w.key()})
	}
	if e := w.pick(i, false); e != nil {
		add(update.Primitive{Kind: update.Delete, Target: e})
	}
	before := markup.Serialize(w.docs[i])
	defer faultpoint.Reset()
	faultpoint.Enable(faultpoint.PointUpdateApply, faultpoint.Nth(int64(1+w.r.Intn(pul.Len()))))
	if err := pul.Apply(nil); err == nil {
		t.Fatal("the armed apply succeeded")
	}
	if got := markup.Serialize(w.docs[i]); got != before {
		t.Fatalf("rollback left\n%s\nwant\n%s", got, before)
	}
	return "failed apply"
}

// check compares every id lookup of both trees with the walk.
func (w *idWorld) check(t *testing.T, stage string) {
	t.Helper()
	for i, doc := range w.docs {
		focus := w.pick(i, true)
		for _, k := range idKeys {
			want := idOracle(doc, k, true)
			var first *dom.Node
			if len(want) > 0 {
				first = want[0]
			}
			if got := doc.ElementByID(k); got != first {
				t.Fatalf("%s: tree %d: ElementByID(%q) = %v, walk %v", stage, i, k, got, first)
			}
			for _, orSelf := range []bool{false, true} {
				if got, want := focus.AppendByID(nil, k, orSelf), idOracle(focus, k, orSelf); !equalNodes(got, want) {
					t.Fatalf("%s: tree %d: %q under a focus (orSelf %v) = %v, walk %v", stage, i, k, orSelf, got, want)
				}
			}
			for name, p := range map[string]*xquery.Program{"fn:id": w.fnID[k], "[@id]": w.probe[k]} {
				for _, scan := range []bool{false, true} {
					res, err := p.Run(xquery.RunConfig{ContextItem: xdm.NewNode(doc), DisableIndexes: scan})
					if err != nil {
						t.Fatalf("%s: %s %q: %v", stage, name, k, err)
					}
					if got := seqNodes(res.Value); !equalNodes(got, want) {
						t.Fatalf("%s: tree %d: %s %q (scan %v) = %v, walk %v", stage, i, name, k, scan, got, want)
					}
				}
			}
		}
		for ki, k := range idKeys {
			w.checkVarForms(t, stage, i, k, idKeys[(ki+1)%len(idKeys)])
		}
		if !doc.HasIDMap() && stage != "RestoreVersion" {
			t.Fatalf("%s: tree %d has no id map after its lookups", stage, i)
		}
	}
}

// checkVarForms compares every variable-keyed form over tree i, with
// indexes on and off, to what it must answer.
func (w *idWorld) checkVarForms(t *testing.T, stage string, i int, k, k2 string) {
	t.Helper()
	doc := w.docs[i]
	for _, f := range idVarForms {
		vars := f.bind(doc, k, k2)
		run := func(scan bool) ([]*dom.Node, error) {
			res, err := f.prog.Run(xquery.RunConfig{ContextItem: xdm.NewNode(doc), Variables: vars, DisableIndexes: scan})
			if err != nil {
				return nil, err
			}
			return seqNodes(res.Value), nil
		}
		ref, rerr := run(true)
		got, err := run(false)
		if fmt.Sprint(err) != fmt.Sprint(rerr) || !equalNodes(got, ref) {
			t.Fatalf("%s: tree %d: %s (k %q): %v %v, with indexes off %v %v", stage, i, f.name, k, got, err, ref, rerr)
		}
		switch {
		case f.raises != nil:
			if want := f.raises(doc); (err != nil) != want {
				t.Fatalf("%s: tree %d: %s: error %v, want one: %v", stage, i, f.name, err, want)
			}
		case f.ids != nil:
			if want := idHolders(doc, f.ids(k, k2)...); err != nil || !equalNodes(got, want) {
				t.Fatalf("%s: tree %d: %s (k %q) = %v %v, walk %v", stage, i, f.name, k, got, err, want)
			}
		}
	}
}

// TestIDMapDifferential interleaves random mutations of two random
// trees — ids set, removed, renamed and rewritten; subtrees holding
// ids, duplicates among them, inserted, deleted, replaced and moved
// within a tree and between the two; a failed apply rolled back under
// the update.apply fault point; RestoreVersion — and after every step
// holds getElementById, fn:id and //*[@id = K], with indexes on and
// off, to a walk of the tree; and the variable-keyed forms of the probe
// (idVarForms) to the walk, or to themselves with indexes off.
func TestIDMapDifferential(t *testing.T) {
	e := xquery.New()
	for _, f := range idVarForms {
		p, err := e.Compile(f.src)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		f.prog = p
	}
	var progs [2]map[string]*xquery.Program
	for j, form := range []string{`fn:id(%q)`, `//*[@id = %q]`} {
		progs[j] = map[string]*xquery.Program{}
		for _, k := range idKeys {
			p, err := e.Compile(fmt.Sprintf(form, k))
			if err != nil {
				t.Fatal(err)
			}
			progs[j][k] = p
		}
	}
	for seed := int64(1); seed <= 25; seed++ {
		w := newIDWorld(seed, progs)
		w.check(t, fmt.Sprintf("seed %d: initial", seed))
		for s := 0; s < 40; s++ {
			stage := w.step(t)
			w.check(t, fmt.Sprintf("seed %d step %d: %s", seed, s, stage))
		}
	}
}

// idPage is a page of n divs with unique ids.
func idPage(tb testing.TB, n int) *dom.Node {
	tb.Helper()
	var b strings.Builder
	b.WriteString(`<html><body>`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<div id="d%d">x</div>`, i)
	}
	b.WriteString(`</body></html>`)
	doc, err := markup.Parse(b.String())
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// idMapBytes is what building doc's id map leaves on the heap, per id.
func idMapBytes(doc *dom.Node, ids int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	doc.ElementByID("d0")
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(doc)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(ids)
}

// The map is one entry per unique id: a few dozen bytes, not a list per
// id (a []*Node per entry would add a slice header and an allocation).
func TestIDMapBytesPerID(t *testing.T) {
	const ids = 20000
	if got := idMapBytes(idPage(t, ids), ids); got > 80 {
		t.Errorf("the id map of %d unique ids retains %.1f bytes per id, want at most 80", ids, got)
	}
}

// BenchmarkIDLookup is a page that changes between lookups, as every
// event's does: getElementById, and the planned //div[@id = K] probe,
// at 100, 2,000 and 20,000 elements. B/id is what the page's id map
// retains per id.
func BenchmarkIDLookup(b *testing.B) {
	for _, n := range []int{100, 2000, 20000} {
		doc := idPage(b, n)
		body := doc.DocumentElement().FirstChild()
		bytesPerID := idMapBytes(doc, n)
		k := fmt.Sprintf("d%d", n/2)
		b.Run(fmt.Sprintf("ElementByID/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body.SetAttr(dom.Name("n"), "x") // a new version
				if doc.ElementByID(k) == nil {
					b.Fatal("lookup missed")
				}
			}
			b.ReportMetric(bytesPerID, "B/id")
		})
		p, err := xquery.New().Compile(fmt.Sprintf(`//div[@id = %q]`, k))
		if err != nil {
			b.Fatal(err)
		}
		ctx := xdm.NewNode(doc)
		b.Run(fmt.Sprintf("probe/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body.SetAttr(dom.Name("n"), "x")
				res, err := p.Run(xquery.RunConfig{ContextItem: ctx})
				if err != nil || len(res.Value) != 1 {
					b.Fatalf("probe: %v, %d items", err, len(res.Value))
				}
			}
			b.ReportMetric(bytesPerID, "B/id")
		})
	}
}
