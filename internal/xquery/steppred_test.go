package xquery

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
)

// The planner classifies [@a = K] / [@a eq K] predicates once and the
// runtime tests them natively when K turns out to be strings
// (DESIGN.md §5n). DisableIndexes ("ignore the planner's access
// annotations") switches that off with the index probes, which makes
// it the oracle here: every query × key × document below must give the
// same bytes — results, final documents, error text — planned and
// unplanned.

// stepPredDoc generates a document whose x elements carry every
// attribute situation the kernel has to get right: @a present with a
// value from a small pool (so keys hit several candidates), present but
// empty, absent, and present only as the namespaced p:a; x elements
// nest, and text, comments and y elements sit between them.
func stepPredDoc(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString(`<r xmlns:p="urn:p" a="1">`)
	open := 0
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			b.WriteString(`<x>`)
		case 1:
			b.WriteString(`<x a="">`)
		case 2:
			fmt.Fprintf(&b, `<x p:a="%d">`, rng.Intn(3))
		default:
			fmt.Fprintf(&b, `<x a="%d" n="%d">`, rng.Intn(3), i)
		}
		open++
		switch rng.Intn(4) {
		case 0:
			b.WriteString(`text 1`)
		case 1:
			b.WriteString(`<!--1--><y a="1"/>`)
		}
		for open > 0 && rng.Intn(3) > 0 {
			b.WriteString(`</x>`)
			open--
		}
	}
	for ; open > 0; open-- {
		b.WriteString(`</x>`)
	}
	b.WriteString(`</r>`)
	return b.String()
}

// runStepPred runs p planned and unplanned, each run on a document of
// its own parsed from src (updates mutate it), and fails where the two
// differ. It returns the outcome of the planned run.
func runStepPred(t *testing.T, label string, p *Program, src string, vars func(doc *dom.Node) map[dom.QName]xdm.Sequence) string {
	t.Helper()
	run := func(noIndex bool) string {
		doc, err := markup.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		cfg := RunConfig{
			ContextItem:    xdm.NewNode(doc),
			DisableIndexes: noIndex,
		}
		if vars != nil {
			cfg.Variables = vars(doc)
		}
		res, err := p.Run(cfg)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%s | %d applied | %s", FormatSequence(res.Value, markup.AppendXML), res.Updates, markup.Serialize(doc))
	}
	planned, scan := run(false), run(true)
	if planned != scan {
		t.Errorf("%s: planned =\n  %.300s\nscan =\n  %.300s", label, planned, scan)
	}
	return planned
}

// stepPredKeys are the bindings of $v: the two the kernel takes
// (strings, untypedAtomic — as an atom and as an attribute node) and
// everything it must hand to the generic stage.
var stepPredKeys = []struct {
	name string
	val  func(doc *dom.Node) xdm.Sequence
}{
	{"string", func(*dom.Node) xdm.Sequence { return xdm.Sequence{xdm.String("1")} }},
	{"string-miss", func(*dom.Node) xdm.Sequence { return xdm.Sequence{xdm.String("nope")} }},
	{"empty-string", func(*dom.Node) xdm.Sequence { return xdm.Sequence{xdm.String("")} }},
	{"untyped", func(*dom.Node) xdm.Sequence { return xdm.Sequence{xdm.UntypedAtomic("2")} }},
	{"attribute-node", func(doc *dom.Node) xdm.Sequence {
		return xdm.Sequence{xdm.NewNode(doc.DocumentElement().AttrNode(dom.Name("a")))}
	}},
	{"integer", func(*dom.Node) xdm.Sequence { return xdm.Sequence{xdm.Integer(1)} }},
	{"double", func(*dom.Node) xdm.Sequence { return xdm.Sequence{xdm.Double(2)} }},
	{"boolean", func(*dom.Node) xdm.Sequence { return xdm.Sequence{xdm.Boolean(true)} }},
	{"empty", func(*dom.Node) xdm.Sequence { return nil }},
	{"two-strings", func(*dom.Node) xdm.Sequence { return xdm.Sequence{xdm.String("0"), xdm.UntypedAtomic("2")} }},
	{"string-and-integer", func(*dom.Node) xdm.Sequence { return xdm.Sequence{xdm.String("1"), xdm.Integer(2)} }},
}

// stepPredVarQueries read their key from $v.
var stepPredVarQueries = []string{
	`//x[@a = $v]/@n/string()`,
	`//x[$v = @a]/@n/string()`,
	`//x[@a eq $v]/@n/string()`,
	`//x[$v eq @a]/@n/string()`,
	`//x[@p:a = $v]/name()`,
	`count(/r/x[@a = $v])`,
	`//x/x[@a = $v]/@n/string()`,
	`//node()[@a = $v]/name()`,
	`//x[@a = $v][2]/@n/string()`,
	`//x[2][@a = $v]/@n/string()`,
	`//x[@a = $v][last()]/@n/string()`,
	`//x[last()][@a = $v]/@n/string()`,
	`//x[@a = $v][@n = $v]/@n/string()`,
	`(//x)[last()]/ancestor::x[@a = $v][1]/@n/string()`,
	`(//x)[last()]/ancestor-or-self::*[@a eq $v][last()]/name()`,
	`//y/preceding::x[@a = $v][1]/@n/string()`,
	`(//x)[@a = $v]/@n/string()`,
	`(//x)[@a = $v][1]/@n/string()`,
	`(//y, //x)[@a eq $v]/name()`,
	`for $e in //x where $e/@a = $v return string($e/@n)`,
	`some $e in //x satisfies $e[@a = $v]`,
	// An erroring comparison over an axis with no candidate is no
	// error: the key is not even read.
	`count(//nosuch[@a eq $v])`,
	`count(//x/nosuch[@a = $v])`,
}

// stepPredComputedKeys are keys computed from $v and from $c, the
// document element (a="1"): the planner takes every one that reads
// nothing of the candidate, does nothing and names no assigned
// variable, and the kernel hands what is not strings to the generic
// stage — a number, (), two items under eq, an error. string(.) reads
// the candidate and $s is assigned (stepPredComputedPrologue), so both
// stay generic.
var stepPredComputedKeys = []string{
	`concat("", $v)`, `$c/@a`, `string($v)`, `1 + 1`, `()`, `("0", "2")`, `xs:integer("x")`,
	`("x" cast as xs:integer)`, `string(.)`, `$s`, `concat($s, "")`,
}

// stepPredComputedQueries are the shapes each computed key K is tried
// in: both operand orders and both comparison families, a child step,
// a step with a second predicate and a pushed-down where conjunct.
var stepPredComputedQueries = []string{
	`//x[@a = K]/@n/string()`,
	`//x[K eq @a]/@n/string()`,
	`count(//x/x[@a = K])`,
	`//x[@a = K][last()]/@n/string()`,
	`for $e in //x where $e/@a = K return string($e/@n)`,
}

const stepPredComputedPrologue = `declare variable $v external; declare variable $c external;
	declare variable $s := "1"; declare sequential function local:set() { set $s := "2"; }; `

// stepPredLiteralQueries have their key in the text.
var stepPredLiteralQueries = []string{
	`//x[@a = "1"]/@n/string()`,
	`//x["1" = @a]/@n/string()`,
	`//x[@a eq "1"]/@n/string()`,
	`//x["1" eq @a]/@n/string()`,
	`//x[@a = ""]/name()`,
	`//x[@p:a = "1"]/name()`,
	`//x[@*:a = "1"]/name()`,
	`//x[@* = "1"]/name()`,
	`//*[@a = "1"]/name()`,
	`//node()[@a = "1"]/name()`,
	`//text()[@a = "1"]`,
	`//comment()[@a = "1"]`,
	`/descendant-or-self::node()[@a = "1"]/name()`,
	`//x[@a = "1"][2]/@n/string()`,
	`//x[2][@a = "1"]/@n/string()`,
	`//x[@a = "1"][position() < 3]/@n/string()`,
	`//x[@a = "1"][last()]/@n/string()`,
	`//x[@a = "1" and @n]/@n/string()`,
	`//x[not(@a = "1")]/name()`,
	`//x[@a != "1"]/@n/string()`,
	`//x[@a = 1]/@n/string()`,
	`//x[@a = ("0", "2")]/@n/string()`,
	`(//x)[@a = "1"]/@n/string()`,
	`(//x, //y)[@a = "1"][2]/name()`,
	// Atomic candidates: the attribute step is an error, raised by the
	// generic stage the kernel hands over to — first item or later.
	`(1, 2)[@a = "1"]`,
	`(//y, 1)[@a = "1"]`,
	`(//x, "s")[@a eq "1"]`,
	// Pushed-down where conjuncts become the same predicates.
	`for $e in //x where $e/@a = "1" return string($e/@n)`,
	`for $e in //x where $e/@a eq "1" and $e/@n return string($e/@n)`,
	`for $e in //x[@n] where $e/@a = "2" return string($e/@n)`,
	// Updates whose targets the kernel selects.
	`delete nodes //x[@a = "1"]`,
	`for $e in //x[@a eq "2"] return replace value of node $e/@a with "1"`,
	`insert node <z/> as first into (//x[@a = "0"])[1]`,
}

func TestStepPredDifferential(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(18))
	docs := []string{`<r a="1"/>`, `<r xmlns:p="urn:p" a="2"><x a="1" n="0"><x a="1" n="1"/></x><y a="1"/></r>`}
	for i := 0; i < 6; i++ {
		docs = append(docs, stepPredDoc(rng, 4+12*i))
	}
	const prolog = `declare namespace p = "urn:p"; `
	for _, q := range stepPredLiteralQueries {
		p, err := e.Compile(prolog + q)
		if err != nil {
			t.Fatalf("%q: compile: %v", q, err)
		}
		for di, src := range docs {
			runStepPred(t, fmt.Sprintf("%q doc %d", q, di), p, src, nil)
		}
	}
	for _, q := range stepPredVarQueries {
		p, err := e.Compile(prolog + `declare variable $v external; ` + q)
		if err != nil {
			t.Fatalf("%q: compile: %v", q, err)
		}
		for _, k := range stepPredKeys {
			k := k
			vars := func(doc *dom.Node) map[dom.QName]xdm.Sequence {
				return map[dom.QName]xdm.Sequence{dom.Name("v"): k.val(doc)}
			}
			for di, src := range docs {
				runStepPred(t, fmt.Sprintf("%q $v=%s doc %d", q, k.name, di), p, src, vars)
			}
		}
	}
	for _, key := range stepPredComputedKeys {
		for _, shape := range stepPredComputedQueries {
			q := strings.ReplaceAll(shape, "K", key)
			p, err := e.Compile(prolog + stepPredComputedPrologue + q)
			if err != nil {
				t.Fatalf("%q: compile: %v", q, err)
			}
			for _, k := range stepPredKeys {
				vars := func(doc *dom.Node) map[dom.QName]xdm.Sequence {
					return map[dom.QName]xdm.Sequence{dom.Name("v"): k.val(doc),
						dom.Name("c"): {xdm.NewNode(doc.DocumentElement())}}
				}
				for di, src := range docs {
					runStepPred(t, fmt.Sprintf("%q $v=%s doc %d", q, k.name, di), p, src, vars)
				}
			}
		}
	}
}

// TestStepPredErrorsSurvive pins what the differential run only shows
// to be equal: an eq whose key is two items is a type error wherever a
// candidate exists and nowhere else, and an atomic candidate is one
// too.
func TestStepPredErrorsSurvive(t *testing.T) {
	e := New()
	const src = `<r><x a="1"/><x a="2"/></r>`
	two := func(*dom.Node) map[dom.QName]xdm.Sequence {
		return map[dom.QName]xdm.Sequence{dom.Name("v"): {xdm.String("1"), xdm.String("2")}}
	}
	none := func(*dom.Node) map[dom.QName]xdm.Sequence {
		return map[dom.QName]xdm.Sequence{dom.Name("v"): nil}
	}
	for _, c := range []struct {
		q       string
		vars    func(*dom.Node) map[dom.QName]xdm.Sequence
		wantErr string
	}{
		{`declare variable $v external; count(//x[@a eq $v])`, two, "at most one item"},
		{`declare variable $v external; count(//nosuch[@a eq $v])`, two, ""},
		{`declare variable $v external; count(//x[@a eq $v])`, none, ""},
		{`declare variable $v external; count(//x[@a = $v])`, two, ""},
		{`(//x, 1)[@a = "1"]`, nil, "atomic value"},
	} {
		p, err := e.Compile(c.q)
		if err != nil {
			t.Fatalf("%q: compile: %v", c.q, err)
		}
		got := runStepPred(t, c.q, p, src, c.vars)
		if isErr := strings.HasPrefix(got, "error: "); isErr != (c.wantErr != "") || !strings.Contains(got, c.wantErr) {
			t.Errorf("%q = %q, want error containing %q", c.q, got, c.wantErr)
		}
	}
}

// TestStepPredSequential: under scripting semantics the pending updates
// of one statement are applied before the next runs, so a kernel
// predicate in a later statement must see the mutated page — and a
// variable the module assigns must be read per candidate, which is why
// the planner leaves its predicates generic.
func TestStepPredSequential(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(7))
	docs := []string{`<r><x a="1" n="0"/><x a="2" n="1"/></r>`, stepPredDoc(rng, 30), stepPredDoc(rng, 60)}
	for _, q := range []string{
		`{ insert node <x a="9" n="new"/> as first into /r; count(//x[@a = "9"]); }`,
		`{ replace value of node (//x[@a = "1"])[1]/@a with "7"; delete nodes //x[@a = "2"]; //x[@a = "7"]/@n/string(); }`,
		`declare variable $v external;
		 { delete nodes //x[@a = $v]; insert node <x a="{$v}" n="again"/> into /r; //x[@a eq $v]/@n/string(); }`,
		`{ declare variable $k := "1";
		   declare variable $seen := ();
		   for $e in //x[@a = $k] return (set $seen := ($seen, string($e/@n)), set $k := "2");
		   ($k, $seen, count(//x[@a = $k])); }`,
		`declare variable $g := "0";
		 declare sequential function local:bump() { set $g := "1"; $g };
		 { declare variable $before := count(//x[@a = $g]); local:bump(); ($before, count(//x[@a = $g])); }`,
	} {
		p, err := e.Compile(q)
		if err != nil {
			t.Fatalf("%q: compile: %v", q, err)
		}
		vars := func(*dom.Node) map[dom.QName]xdm.Sequence {
			return map[dom.QName]xdm.Sequence{dom.Name("v"): {xdm.String("1")}}
		}
		for di, src := range docs {
			if got := runStepPred(t, fmt.Sprintf("%q doc %d", q, di), p, src, vars); strings.HasPrefix(got, "error: ") {
				t.Errorf("%q doc %d: %s", q, di, got)
			}
		}
	}
}

// TestStepPredKernelRuns counts evaluations with the profiler, which is
// the only way to see who tested a predicate: a key the kernel takes is
// read once per step evaluation — not per candidate, not per focus
// node, and not at all when no candidate arrives — and no comparison is
// interpreted; a key it does not take, and any key under
// DisableIndexes, goes through the generic stage candidate by
// candidate.
func TestStepPredKernelRuns(t *testing.T) {
	e := New()
	var b strings.Builder
	b.WriteString(`<r>`)
	for g := 0; g < 10; g++ {
		b.WriteString(`<g>`)
		for i := 0; i < 5; i++ {
			fmt.Fprintf(&b, `<x a="%d"/>`, i)
		}
		b.WriteString(`</g>`)
	}
	b.WriteString(`</r>`)
	doc, err := markup.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	counts := func(q string, key xdm.Item, noIndex bool) (varRefs, compares int64) {
		t.Helper()
		p, err := e.Compile(`declare variable $v external; ` + q)
		if err != nil {
			t.Fatalf("%q: compile: %v", q, err)
		}
		prof := runtime.NewProfiler()
		_, err = p.Run(RunConfig{ContextItem: xdm.NewNode(doc), Profiler: prof, DisableIndexes: noIndex,
			Variables: map[dom.QName]xdm.Sequence{dom.Name("v"): {key}}})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		for _, en := range prof.Entries() {
			switch en.Kind {
			case "VarRef":
				varRefs = en.Count
			case "Compare":
				compares = en.Count
			}
		}
		return varRefs, compares
	}
	for _, c := range []struct {
		q                 string
		key               xdm.Item
		noIndex           bool
		varRefs, compares int64
	}{
		{`count(//x[@a = $v])`, xdm.String("1"), false, 1, 0},
		{`count(//g/x[@a = $v])`, xdm.String("1"), false, 1, 0}, // ten focus nodes, one read
		{`count(//g/x[@a eq $v])`, xdm.UntypedAtomic("1"), false, 1, 0},
		{`count(//nosuch[@a = $v])`, xdm.String("1"), false, 0, 0},
		{`count(//nosuch[@id = $v])`, xdm.String("1"), false, 0, 0}, // an id probe waits for a candidate too
		{`count(//x//*[@id = $v])`, xdm.String("1"), false, 0, 0},
		{`count(//x[@id = $v])`, xdm.String("1"), false, 1, 0},
		{`count(//x[@a = $v])`, xdm.Integer(1), false, 51, 50}, // the kernel's read, then the generic stage's
		{`count(//x[@a = $v])`, xdm.String("1"), true, 50, 50},
		// A computed key is read like a bare one; one that reads the
		// candidate is not a key.
		{`count(//g/x[@a = concat("", $v)])`, xdm.String("1"), false, 1, 0},
		{`count(//x[@a = concat("", $v)])`, xdm.String("1"), true, 50, 50},
		{`count(//x[@a = concat(string(.), $v)])`, xdm.String("1"), false, 50, 50},
	} {
		varRefs, compares := counts(c.q, c.key, c.noIndex)
		if varRefs != c.varRefs || compares != c.compares {
			t.Errorf("%q $v=%v noIndex=%v: %d VarRef and %d Compare evaluations, want %d and %d",
				c.q, c.key, c.noIndex, varRefs, compares, c.varRefs, c.compares)
		}
	}
}

// TestStepPredKeyWaitsForACandidate: a scan reads the key at the
// step's first candidate, so a costly key over a step that selects
// nothing costs nothing — with an id probe too — and under a budget
// the planned run fails exactly where the scan does.
func TestStepPredKeyWaitsForACandidate(t *testing.T) {
	e := New()
	const src = `<r><x id="a"/><x id="b"/><y/></r>`
	for _, c := range []struct{ q, want string }{
		{`(count(//nosuch[@id = string(count(1 to 5000))]), count(//x), count(//y))`, "0 2 1"},
		{`count(//nosuch[@id = string(count(1 to 5000))])`, "0"},
		{`count(//y//*[@id = string(count(1 to 5000))])`, "0"},
		{`count(//nosuch[@a = string(count(1 to 5000))])`, "0"},
		{`count(//x[@id = string(count(1 to 5000))])`, ""}, // a candidate: the key's cost is the scan's
	} {
		p, err := e.Compile(c.q)
		if err != nil {
			t.Fatalf("%q: compile: %v", c.q, err)
		}
		for _, noIndex := range []bool{false, true} {
			doc, err := markup.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(RunConfig{ContextItem: xdm.NewNode(doc), MaxSteps: 1000, DisableIndexes: noIndex})
			switch {
			case c.want == "" && !errors.Is(err, ErrBudgetExceeded):
				t.Errorf("%q noIndex=%v under MaxSteps 1000: error %v, want the budget's", c.q, noIndex, err)
			case c.want == "":
			case err != nil:
				t.Errorf("%q noIndex=%v under MaxSteps 1000: %v, want %s", c.q, noIndex, err, c.want)
			case FormatSequence(res.Value, nil) != c.want:
				t.Errorf("%q noIndex=%v under MaxSteps 1000 = %s, want %s", c.q, noIndex, FormatSequence(res.Value, nil), c.want)
			}
		}
	}
}
