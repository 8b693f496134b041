package xquery_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/browser"
	"repro/internal/dom"
	"repro/internal/xquery"
	"repro/internal/xquery/analysis"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

var updatePlanGolden = flag.Bool("update", false, "rewrite testdata/plan.golden")

// planCorpus is every module the plan golden records, named: the
// analyzer's fixtures, the optimizer's differential corpus, the
// node-kind corpus, the demo applications' scripts and the examples'
// script blocks.
func planCorpus(t *testing.T) [][2]string {
	var out [][2]string
	add := func(name, src string) { out = append(out, [2]string{name, src}) }
	files, err := filepath.Glob(filepath.Join("analysis", "testdata", "*.xq"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no analyzer fixtures: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add("analysis/"+filepath.Base(f), string(b))
	}
	for i, src := range xquery.CompileDifferentialCorpus {
		add(fmt.Sprintf("differential/%d", i), src)
	}
	b, err := os.ReadFile(filepath.Join("ast", "testdata", "kinds.xq"))
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range strings.Split(strings.TrimSpace(string(b)), "\n\n") {
		add(fmt.Sprintf("kinds/%d", i), src)
	}
	add("apps/cart-server", apps.ShoppingCartXQueryServer)
	add("apps/suggest-service", apps.SuggestServiceModule)
	pages := [][2]string{
		{"multiplication", apps.MultiplicationPage()},
		{"suggest", apps.SuggestPage("http://example.com/suggest.wsdl")},
		{"mashup", apps.MashupPage("http://example.com/w", "http://example.com/wde", "http://example.com/cam")},
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.go"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples: %v", err)
	}
	for _, f := range examples {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, [2]string{"examples/" + filepath.Base(filepath.Dir(f)), string(b)})
	}
	for _, p := range pages {
		for i, sc := range analysis.ExtractScripts(p[1]) {
			add(fmt.Sprintf("%s/%d", strings.TrimPrefix(p[0], "examples/"), i), sc.Source)
		}
	}
	return out
}

// TestPlanGolden records, for every module of planCorpus, what the
// static passes make of it: the analyzer's diagnostics and step
// estimate, and the planned and optimized roots with every annotation
// (access methods, predicate plans, shipping, adoption, streaming
// domains, hoists, joins) and the rewrite counts. A refactoring of the
// passes must leave it byte for byte; -update rewrites it.
func TestPlanGolden(t *testing.T) {
	cfg := analysis.Config{Registry: browser.Functions(), BrowserProfile: true, MaxSteps: 1000}
	var b strings.Builder
	for _, entry := range planCorpus(t) {
		fmt.Fprintf(&b, "=== %s\n", entry[0])
		m, err := parser.ParseModule(entry[1])
		if err != nil {
			fmt.Fprintf(&b, "parse error: %v\n", err)
			continue
		}
		res := analysis.Analyze(m, cfg)
		for _, d := range res.Diagnostics {
			fmt.Fprintf(&b, "diag %s\n", d.String())
		}
		fmt.Fprintf(&b, "steps %d\nrewrites %+v\neffects %d\n", res.EstimatedSteps, m.Rewrites, m.Effects)
		for _, v := range m.Prolog.Vars {
			dumpRoot(&b, "var $"+v.Name.Local, v.Init, nil)
		}
		for _, f := range m.Prolog.Functions {
			dumpRoot(&b, fmt.Sprintf("function %s#%d", f.Name.Local, len(f.Params)), f.Body, f.Optimized)
		}
		dumpRoot(&b, "body", m.Body, m.Optimized)
	}
	golden := filepath.Join("testdata", "plan.golden")
	if *updatePlanGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plan golden differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plan golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// dumpRoot writes a planned root and, where the optimizer installed a
// different tree, the optimized one.
func dumpRoot(b *strings.Builder, name string, planned, optimized ast.Expr) {
	fmt.Fprintf(b, "-- %s\n", name)
	dumpValue(b, reflect.ValueOf(&planned).Elem(), 1)
	b.WriteByte('\n')
	switch {
	case optimized == nil:
	case reflect.DeepEqual(planned, optimized):
		fmt.Fprintf(b, "-- %s optimized: unchanged\n", name)
	default:
		fmt.Fprintf(b, "-- %s optimized\n", name)
		dumpValue(b, reflect.ValueOf(&optimized).Elem(), 1)
		b.WriteByte('\n')
	}
}

var (
	posType   = reflect.TypeOf(ast.Pos{})
	qnameType = reflect.TypeOf(dom.QName{})
	varIDType = reflect.TypeOf(ast.VarID(0))
)

// scalar reports whether dumpValue writes v on one line.
func scalar(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Struct:
		return v.Type() == posType || v.Type() == qnameType
	case reflect.Interface, reflect.Pointer, reflect.Slice, reflect.Array:
		return false
	}
	return true
}

// dumpValue writes v, one struct field a line (all on one line when
// every field is a scalar), leaving out zero fields, empty lists (a nil
// and an empty list read the same) and the parser's binding numbers
// (ast.VarID: what the passes decide about a binding is in the tree).
func dumpValue(b *strings.Builder, v reflect.Value, depth int) {
	pad := strings.Repeat("  ", depth)
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		dumpValue(b, v.Elem(), depth)
	case reflect.Struct:
		switch v.Type() {
		case posType:
			fmt.Fprintf(b, "%d:%d", v.Field(0).Int(), v.Field(1).Int())
			return
		case qnameType:
			q := v.Interface().(dom.QName)
			fmt.Fprintf(b, "Q{%s}%s", q.Space, q.Local)
			if q.Prefix != "" {
				fmt.Fprintf(b, "(%s)", q.Prefix)
			}
			return
		}
		var fields []int
		flat := true
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); !f.IsZero() && !(f.Kind() == reflect.Slice && f.Len() == 0) && f.Type() != varIDType {
				fields = append(fields, i)
				flat = flat && scalar(f)
			}
		}
		b.WriteString(v.Type().String())
		b.WriteByte('{')
		for k, i := range fields {
			switch {
			case !flat:
				fmt.Fprintf(b, "\n%s", pad)
			case k > 0:
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s: ", v.Type().Field(i).Name)
			dumpValue(b, v.Field(i), depth+1)
		}
		if !flat {
			fmt.Fprintf(b, "\n%s", pad[2:])
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			fmt.Fprintf(b, "\n%s", pad)
			dumpValue(b, v.Index(i), depth+1)
		}
		if v.Len() > 0 {
			fmt.Fprintf(b, "\n%s", pad[2:])
		}
		b.WriteByte(']')
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	default:
		fmt.Fprintf(b, "%v", v)
	}
}
