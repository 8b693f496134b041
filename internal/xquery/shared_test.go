package xquery

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xqerr"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/funclib"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

// These tests pin the split between a compilation (shared by every
// engine of one shape) and a binding (one engine's own): what is
// shared, what is not, and that nothing of one host shows through a
// program another host compiled.

const hostNS = "urn:test:host"
const hostProlog = `declare namespace h = "urn:test:host"; `

// taggedEngine builds an engine whose host layer has h:tag() — returning
// the given tag, so a call tells which engine's function ran — and
// h:join($a, $b).
func taggedEngine(tag string, extra ...Option) *Engine {
	opts := append([]Option{WithFunctions(func(reg *runtime.Registry) {
		reg.Register(&runtime.Function{
			Name: dom.QName{Space: hostNS, Local: "tag"},
			Invoke: func(*runtime.Context, []xdm.Sequence) (xdm.Sequence, error) {
				return xdm.Singleton(xdm.String(tag)), nil
			},
		})
		reg.Register(&runtime.Function{
			Name: dom.QName{Space: hostNS, Local: "join"}, MinArgs: 2, MaxArgs: 2,
			Invoke: func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
				return xdm.Singleton(xdm.String(tag + ":" + args[0][0].String() + "+" + args[1][0].String())), nil
			},
		})
	})}, extra...)
	return New(opts...)
}

func runOn(t *testing.T, p *Program, cfg RunConfig) string {
	t.Helper()
	res, err := p.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return FormatSequence(res.Value, markup.AppendXML)
}

func TestSharedProgramCallsTheBindingEnginesHostFunctions(t *testing.T) {
	c := NewCache(8)
	a, b := taggedEngine("A"), taggedEngine("B")
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same signatures behind different closures must be one shape")
	}
	for _, src := range []string{
		hostProlog + `h:tag()`,
		hostProlog + `for $i in 1 to 2 return h:join($i, h:tag())`,
		hostProlog + `if (h:tag() = ("A", "B")) then h:tag() else "neither"`,
		hostProlog + `declare function local:who() { concat("<", h:tag(), ">") }; local:who()`,
	} {
		pa, err := c.Compile(a, src)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := c.Compile(b, src)
		if err != nil {
			t.Fatal(err)
		}
		if pa.shared != pb.shared {
			t.Fatalf("%q: not shared", src)
		}
		gotA, gotB := runOn(t, pa, RunConfig{}), runOn(t, pb, RunConfig{})
		if !strings.Contains(gotA, "A") || strings.Contains(gotA, "B") ||
			!strings.Contains(gotB, "B") || strings.Contains(gotB, "A") {
			t.Errorf("%q: engine A got %q, engine B got %q", src, gotA, gotB)
		}
	}
	if st := c.Stats(); st.Compiles != 4 || st.ProgramHits != 4 {
		t.Errorf("stats = %+v, want 4 compiles and 4 hits", st)
	}
}

func TestShapeSeparatesDifferentStaticContexts(t *testing.T) {
	base := taggedEngine("A")
	fnCount := dom.QName{Space: parser.FnNamespace, Local: "count"}
	others := map[string]*Engine{
		"no host functions": New(),
		"browser profile":   taggedEngine("A", WithBrowserProfile()),
		"one more function": taggedEngine("A", WithFunctions(func(reg *runtime.Registry) {
			reg.Register(&runtime.Function{Name: dom.QName{Space: hostNS, Local: "more"}})
		})),
		"another arity": taggedEngine("A", WithFunctions(func(reg *runtime.Registry) {
			reg.Register(&runtime.Function{Name: dom.QName{Space: hostNS, Local: "tag"}, MinArgs: 0, MaxArgs: 1,
				Invoke: func(*runtime.Context, []xdm.Sequence) (xdm.Sequence, error) { return nil, nil }})
		})),
		"updating flag": taggedEngine("A", WithFunctions(func(reg *runtime.Registry) {
			reg.Register(&runtime.Function{Name: dom.QName{Space: hostNS, Local: "tag"}, Updating: true})
		})),
		"shadowed built-in": taggedEngine("A", WithFunctions(func(reg *runtime.Registry) {
			reg.Register(&runtime.Function{Name: fnCount, MinArgs: 1, MaxArgs: 1,
				Invoke: func(*runtime.Context, []xdm.Sequence) (xdm.Sequence, error) {
					return xdm.Singleton(xdm.Integer(-1)), nil
				}})
		})),
	}
	c := NewCache(16)
	src := hostProlog + `count((1, 2, 3))`
	want, err := c.Compile(base, src)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range others {
		if e.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s: same fingerprint as the base engine", name)
		}
		p, err := c.Compile(e, src)
		if err != nil {
			t.Fatal(err)
		}
		if p.shared == want.shared {
			t.Errorf("%s: shares the base engine's compilation", name)
		}
	}
	// The shadow is the engine's own: it answers there, and the
	// library's fn:count answers everywhere else.
	shadow, _ := c.Compile(others["shadowed built-in"], src)
	if got := runOn(t, shadow, RunConfig{}); got != "-1" {
		t.Errorf("shadowed fn:count = %q, want -1", got)
	}
	if got := runOn(t, want, RunConfig{}); got != "3" {
		t.Errorf("library fn:count = %q, want 3", got)
	}
	if funclib.Library().Lookup(fnCount, 1) == others["shadowed built-in"].Registry().Lookup(fnCount, 1) {
		t.Error("the shadow must not replace the library's function")
	}
}

// TestImportsBindPerEngine: a module imported through two resolvers —
// two sessions' clients — compiles once and calls each binding's own
// proxy; the resolver runs per binding, never for the shared part.
func TestImportsBindPerEngine(t *testing.T) {
	resolver := func(tag string, calls *int) runtime.ModuleResolver {
		return func(imp ast.ModuleImport, reg *runtime.Registry) error {
			*calls++
			return reg.Register(&runtime.Function{
				Name: dom.QName{Space: imp.URI, Local: "who"},
				Invoke: func(*runtime.Context, []xdm.Sequence) (xdm.Sequence, error) {
					return xdm.Singleton(xdm.String(tag)), nil
				},
			})
		}
	}
	var callsA, callsB int
	a := New(WithModuleResolver(resolver("svc-A", &callsA)))
	b := New(WithModuleResolver(resolver("svc-B", &callsB)))
	c := NewCache(8)
	src := `import module namespace s = "urn:svc" at "http://svc/wsdl";
	        for $i in 1 to 2 return concat(s:who(), "#", $i)`
	pa, err := c.Compile(a, src)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.Compile(b, src)
	if err != nil {
		t.Fatal(err)
	}
	if pa.shared != pb.shared || c.Stats().Compiles != 1 {
		t.Errorf("the import-using module must compile once: %+v", c.Stats())
	}
	if callsA != 1 || callsB != 1 {
		t.Errorf("resolver calls = %d and %d, want one per binding", callsA, callsB)
	}
	if got := runOn(t, pa, RunConfig{}); got != "svc-A#1 svc-A#2" {
		t.Errorf("engine A called %q", got)
	}
	if got := runOn(t, pb, RunConfig{}); got != "svc-B#1 svc-B#2" {
		t.Errorf("engine B called %q", got)
	}
	// A binding that cannot resolve the import fails on its own; the
	// shared compilation stays cached for those that can.
	if _, err := c.Compile(New(), src); !errors.Is(err, ErrNoResolver) {
		t.Errorf("engine without resolver: err = %v, want ErrNoResolver", err)
	}
	if _, err := c.Compile(a, src); err != nil || c.Stats().Compiles != 1 {
		t.Errorf("after a failed binding: err = %v, stats %+v", err, c.Stats())
	}
}

// countingResolver wraps the local resolver over one library module and
// counts its calls.
func countingResolver(calls *atomic.Int64) runtime.ModuleResolver {
	local := NewLocalResolver(map[string]string{"urn:math": mathModule})
	return func(imp ast.ModuleImport, reg *runtime.Registry) error {
		calls.Add(1)
		return local(imp, reg)
	}
}

const importMath = `import module namespace m = "urn:math"; `

// TestImportsResolveOncePerEngine: an engine keeps its bindings, so the
// resolver runs once per (engine, cached program) — not per lookup, and
// not once per goroutine that coalesced on the program's first compile.
// Run with -race: the local resolver and the binding memo are shared.
func TestImportsResolveOncePerEngine(t *testing.T) {
	var calls atomic.Int64
	e, c := New(WithModuleResolver(countingResolver(&calls))), NewCache(8)

	const goroutines = 16
	var wg sync.WaitGroup
	progs := make([]*Program, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := c.EvalQuery(e, importMath+`m:square(7)`, RunConfig{})
			if err != nil || res.Value[0].String() != "49" {
				t.Errorf("goroutine %d: %v %v", g, res, err)
			}
			progs[g], _ = c.Compile(e, importMath+`m:square(7)`)
		}(g)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("%d goroutines on one engine and one importing source made %d resolver calls, want 1", goroutines, n)
	}
	for g := 1; g < goroutines; g++ {
		if progs[g] != progs[0] {
			t.Fatalf("goroutine %d got a binding of its own", g)
		}
	}

	// Alternating between importing sources keeps both bindings.
	calls.Store(0)
	for i := 0; i < 320; i++ {
		src := importMath + `m:square(2)`
		if i%2 == 1 {
			src = importMath + `m:square(3)`
		}
		if _, err := c.EvalQuery(e, src, RunConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("320 evals alternating between two importing sources made %d resolver calls, want 2", n)
	}
	if st := c.Stats(); st.Compiles != 3 {
		t.Errorf("stats = %+v, want 3 compiles", st)
	}
}

// TestFailedBindingIsRetried: an import that fails to resolve fails the
// lookup, not the engine's memo — the next lookup resolves again.
func TestFailedBindingIsRetried(t *testing.T) {
	var calls atomic.Int64
	ok := countingResolver(&calls)
	e := New(WithModuleResolver(func(imp ast.ModuleImport, reg *runtime.Registry) error {
		if calls.Load() == 0 {
			calls.Add(1)
			return errors.New("service description unavailable")
		}
		return ok(imp, reg)
	}))
	c := NewCache(8)
	src := importMath + `m:square(4)`
	if _, err := c.EvalQuery(e, src, RunConfig{}); err == nil {
		t.Fatal("the failing resolver's error was swallowed")
	}
	res, err := c.EvalQuery(e, src, RunConfig{})
	if err != nil || res.Value[0].String() != "16" {
		t.Fatalf("second attempt: %v %v", res, err)
	}
	if _, err := c.EvalQuery(e, src, RunConfig{}); err != nil || calls.Load() != 2 {
		t.Errorf("after the retry: err = %v, resolver calls = %d, want 2", err, calls.Load())
	}
	if st := c.Stats(); st.Compiles != 1 {
		t.Errorf("stats = %+v: the failed binding must not cost a recompile", st)
	}
}

// TestBindingMemoIsBounded: an engine shared by a pool sees unboundedly
// many sources; its memo holds at most maxBindings of them.
func TestBindingMemoIsBounded(t *testing.T) {
	e, c := New(), NewCache(maxBindings+64)
	for i := 0; i < maxBindings+50; i++ {
		if _, err := c.Compile(e, fmt.Sprintf("%d + 1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.bound.m); n != maxBindings {
		t.Errorf("memo holds %d bindings, want %d", n, maxBindings)
	}
	// Uncached compiles have nothing to share and stay out of it.
	fresh := New()
	fresh.MustCompile(`1`)
	if len(fresh.bound.m) != 0 {
		t.Error("Engine.Compile memoised a one-off program")
	}
}

// TestStrayImportsShadowLikeTheWalker: a resolver may register outside
// the namespace it was asked for, and what it registers shadows host and
// library functions in the importing program. The module was optimized
// without that knowledge — count((1, 2)) is folded to 2 — so such a
// binding evaluates the planned roots, while another binding of the same
// compilation keeps the optimized ones.
func TestStrayImportsShadowLikeTheWalker(t *testing.T) {
	stray := func(imp ast.ModuleImport, reg *runtime.Registry) error {
		for _, n := range []dom.QName{
			{Space: parser.FnNamespace, Local: "count"}, // shadows the library
			{Space: "urn:helper", Local: "count"},       // known to no engine
		} {
			reg.Register(&runtime.Function{Name: n, MinArgs: 1, MaxArgs: 1,
				Invoke: func(*runtime.Context, []xdm.Sequence) (xdm.Sequence, error) {
					return xdm.Singleton(xdm.Integer(42)), nil
				}})
		}
		return nil
	}
	tidy := func(ast.ModuleImport, *runtime.Registry) error { return nil }
	et, es := New(WithModuleResolver(tidy)), New(WithModuleResolver(stray))
	c := NewCache(8)
	prolog := `import module namespace s = "urn:svc"; declare namespace h = "urn:helper"; `
	for _, tc := range []struct{ body, tidy, stray string }{
		{`count((1, 2))`, "2", "42"},
		{`h:count(())`, "", "42"}, // unknown to the tidy binding
	} {
		// The tidy engine compiles; the stray one binds the same module.
		pt, err := c.Compile(et, prolog+tc.body)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := c.Compile(es, prolog+tc.body)
		if err != nil {
			t.Fatalf("a resolver registering outside its namespace must still bind: %v", err)
		}
		if pt.shared != ps.shared {
			t.Fatal("resolvers are not part of the shape")
		}
		if got := runOn(t, ps, RunConfig{}); got != tc.stray {
			t.Errorf("%s: stray binding = %q, want its shadow's %s", tc.body, got, tc.stray)
		}
		res, err := pt.Run(RunConfig{})
		switch {
		case tc.tidy == "" && !errors.Is(err, ErrUnknownFunction):
			t.Errorf("%s: tidy binding: err = %v, want ErrUnknownFunction", tc.body, err)
		case tc.tidy != "" && (err != nil || res.Value[0].String() != tc.tidy):
			t.Errorf("%s: tidy binding = %v %v, want %s", tc.body, res, err, tc.tidy)
		}
	}
}

func TestResolverDefaultsComeFromTheBindingEngine(t *testing.T) {
	docs := func(title string) runtime.DocResolver {
		return func(uri string) (*dom.Node, error) {
			return markup.Parse(`<doc uri="` + uri + `">` + title + `</doc>`)
		}
	}
	a := New(WithDocResolver(docs("store A")))
	b := New(WithDocResolver(docs("store B")))
	c := NewCache(8)
	src := `string(doc("x.xml")/doc)`
	pa, _ := c.Compile(a, src)
	pb, err := c.Compile(b, src)
	if err != nil {
		t.Fatal(err)
	}
	if pa.shared != pb.shared {
		t.Fatal("document resolvers are not part of the shape")
	}
	if got := runOn(t, pa, RunConfig{}); got != "store A" {
		t.Errorf("engine A read %q", got)
	}
	if got := runOn(t, pb, RunConfig{}); got != "store B" {
		t.Errorf("engine B read %q, want its own store (not the compiling engine's)", got)
	}
}

// streamSource is a streaming collection source answering one parsed
// document per URI.
type streamSource string

func (s streamSource) Documents(string) (xdm.Iter, error) {
	d, err := markup.Parse(string(s))
	if err != nil {
		return nil, err
	}
	return xdm.FromSlice(xdm.Singleton(xdm.NewNode(d))), nil
}

// A run's own collection source replaces the engine's, whatever form
// either has: an engine default that streams does not shadow a run
// that brought a document list.
func TestRunCollectionSourceReplacesTheEngines(t *testing.T) {
	p, err := New(WithCollections(streamSource(`<engine/>`))).Compile(`name(collection("c")/*)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := runOn(t, p, RunConfig{}); got != "engine" {
		t.Errorf("no run source: read %q, want the engine's", got)
	}
	run := runtime.CollectionResolver(func(string) ([]*dom.Node, error) {
		d, err := markup.Parse(`<run/>`)
		return []*dom.Node{d}, err
	})
	if got := runOn(t, p, RunConfig{Collections: run}); got != "run" {
		t.Errorf("run source: read %q, want the run's own", got)
	}
}

func TestConcurrentEnginesOfOneShapeCompileOnce(t *testing.T) {
	c := NewCache(8)
	src := hostProlog + `for $i in 1 to 3 return h:join($i, h:tag())`
	const workers = 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tag := fmt.Sprintf("w%d", i)
			p, err := c.Compile(taggedEngine(tag), src)
			if err != nil {
				errs <- err
				return
			}
			res, err := p.Run(RunConfig{})
			if err != nil {
				errs <- err
				return
			}
			if got, want := FormatSequence(res.Value, nil), fmt.Sprintf("%[1]s:1+%[1]s %[1]s:2+%[1]s %[1]s:3+%[1]s", tag); got != want {
				errs <- fmt.Errorf("worker %d got %q, want %q", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Compiles != 1 || st.Parses != 1 {
		t.Errorf("32 engines of one shape: %+v, want one compile and one parse", st)
	}
	if st.ProgramHits+st.Coalesced != workers-1 {
		t.Errorf("hits(%d) + coalesced(%d) must cover the other %d workers", st.ProgramHits, st.Coalesced, workers-1)
	}
}

// TestSharedProgramDifferential is the cross-engine oracle: over the
// two-backend corpus plus host-calling queries, a program compiled by
// engine A and run bound to engine B must be indistinguishable from one
// B compiled itself — same result, same applied updates, same document
// afterwards, same error.
func TestSharedProgramDifferential(t *testing.T) {
	corpus := append([]string{
		hostProlog + `h:tag()`,
		hostProlog + `for $b in //book order by $b/@id return h:join($b/@id, h:tag())`,
		hostProlog + `for $b in //book where h:tag() = "B" return $b/title/string()`,
		hostProlog + `declare function local:f($b) { h:join(h:tag(), $b/@id) }; for $b in //book return local:f($b)`,
		hostProlog + `for $b in //book where $b/price > 100 return rename node $b as h:tag()`,
		hostProlog + `h:join(1, (2, 3)[4])`, // fails inside the host function
		hostProlog + `h:nosuch()`,
	}, compileDifferentialCorpus...)
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	run := func(p *Program) (string, string, int, error) {
		doc, err := markup.Parse(libraryXML)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(RunConfig{
			ContextItem: xdm.NewNode(doc),
			MaxSteps:    500_000,
			Timeout:     5 * time.Second,
			Now:         now,
		})
		if err != nil {
			return "", "", 0, err
		}
		return FormatSequence(res.Value, markup.AppendXML), markup.Serialize(doc), res.Updates, nil
	}
	c := NewCache(len(corpus))
	a, b := taggedEngine("A"), taggedEngine("B")
	for _, src := range corpus {
		if _, err := c.Compile(a, src); err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		reused, err := c.Compile(b, src)
		if err != nil {
			t.Fatalf("bind %q: %v", src, err)
		}
		own, err := b.Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if reused.shared == own.shared {
			t.Fatalf("%q: the oracle must be a compilation of B's own", src)
		}
		gotVal, gotDoc, gotUpd, gotErr := run(reused)
		wantVal, wantDoc, wantUpd, wantErr := run(own)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%q: reused err=%v, own err=%v", src, gotErr, wantErr)
			continue
		}
		if gotVal != wantVal || gotDoc != wantDoc || gotUpd != wantUpd {
			t.Errorf("%q: reused (%q, %d updates) != own (%q, %d updates)", src, gotVal, gotUpd, wantVal, wantUpd)
		}
	}
	if st := c.Stats(); st.Compiles != int64(len(corpus)) || st.ProgramHits != int64(len(corpus)) {
		t.Errorf("stats = %+v, want %d compiles (engine A) and as many hits (engine B)", st, len(corpus))
	}
}

func TestLibraryLayerIsFrozen(t *testing.T) {
	lib := funclib.Library()
	names, shape := len(lib.All()), lib.Shape()
	err := lib.Register(&runtime.Function{Name: dom.QName{Space: parser.FnNamespace, Local: "count"}, MinArgs: 1, MaxArgs: 1})
	if !errors.Is(err, xqerr.ErrMisconfigured) {
		t.Fatalf("Register on the shared library: err = %v, want ErrMisconfigured", err)
	}
	if len(lib.All()) != names || lib.Shape() != shape {
		t.Error("a refused registration changed the library every engine shares")
	}
	if got, err := New().EvalQuery(`count((1, 2, 3))`, nil); err != nil || got[0].String() != "3" {
		t.Errorf("fn:count after the refused registration: %v %v", got, err)
	}
}

func TestAllocationPins(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { _ = New() }); a > 8 {
		t.Errorf("New() allocates %.0f times, want <= 8 (the library is built once per process)", a)
	}
	e, c := New(), NewCache(8)
	src := strings.Repeat(" ", 4096) + `1 + 1` // a page-script-sized source
	if _, err := c.Compile(e, src); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := c.Compile(e, src); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("a warm Cache.Compile hit allocates %.0f times, want 0 (no key copy, no rebinding)", a)
	}
	// Another engine of the same shape pays for its binding, not for a
	// copy of the source or of the registry.
	if a := testing.AllocsPerRun(100, func() {
		if _, err := c.Compile(New(), src); err != nil {
			t.Fatal(err)
		}
	}); a > 8 {
		t.Errorf("engine + binding on a warm cache allocate %.0f times, want <= 8", a)
	}
}

var sinkEngine *Engine

// BenchmarkEngineNew is what a page or frame pays for an engine of its
// own: a host layer above the shared library, bare and with a
// browser-sized set of host functions.
func BenchmarkEngineNew(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkEngine = New()
		}
	})
	b.Run("host20", func(b *testing.B) {
		names := make([]dom.QName, 20)
		for i := range names {
			names[i] = dom.QName{Space: hostNS, Local: fmt.Sprintf("f%d", i)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkEngine = New(WithBrowserProfile(), WithFunctions(func(reg *runtime.Registry) {
				for _, n := range names {
					reg.Register(&runtime.Function{Name: n, MaxArgs: 1})
				}
			}))
		}
	})
}
