package xquery

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
)

const mathModule = `module namespace m = "urn:math";
declare variable $m:pi := 3.14159;
declare function m:square($x) { $x * $x };
declare function m:cube($x) { $x * m:square($x) };
declare function m:tau() { $m:pi * 2 };`

func TestLocalModuleImport(t *testing.T) {
	resolver := NewLocalResolver(map[string]string{"urn:math": mathModule})
	e := New(WithModuleResolver(resolver))
	res, err := e.EvalQuery(`import module namespace m = "urn:math";
		m:square(6) + m:cube(2)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].String() != "44" {
		t.Errorf("result = %v", res)
	}
	// Library globals work inside library functions.
	res, err = e.EvalQuery(`import module namespace m = "urn:math"; m:tau()`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].String() != "6.28318" {
		t.Errorf("tau = %v", res)
	}
}

func TestLocalModuleErrors(t *testing.T) {
	resolver := NewLocalResolver(map[string]string{
		"urn:math": mathModule,
		"urn:main": `1+1`, // not a library module
		"urn:bad":  `module namespace b = "urn:OTHER"; declare function b:f() { 1 };`,
	})
	e := New(WithModuleResolver(resolver))
	if _, err := e.Compile(`import module namespace x = "urn:nosuch"; 1`); err == nil {
		t.Error("unknown module must fail")
	}
	if _, err := e.Compile(`import module namespace x = "urn:main"; 1`); err == nil {
		t.Error("main module as import must fail")
	}
	if _, err := e.Compile(`import module namespace x = "urn:bad"; 1`); err == nil {
		t.Error("namespace mismatch must fail")
	}
}

func TestLocalModuleUpdatesShareSnapshot(t *testing.T) {
	lib := `module namespace u = "urn:upd";
declare updating function u:mark($target) {
  insert node <marked/> into $target
};`
	resolver := NewLocalResolver(map[string]string{"urn:upd": lib})
	e := New(WithModuleResolver(resolver))
	doc, err := markup.Parse(`<root/>`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := e.Compile(`import module namespace u = "urn:upd"; u:mark(/root)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(RunConfig{ContextItem: xdm.NewNode(doc)}); err != nil {
		t.Fatal(err)
	}
	if got := markup.Serialize(doc); got != `<root><marked/></root>` {
		t.Errorf("library update lost: %s", got)
	}
}

// An imported function runs inside the caller's run: it spends the
// caller's step budget and stops when the caller's context is done, as
// the same body declared in the main module does.
func TestLibraryFunctionRunsInsideTheCallersRun(t *testing.T) {
	resolver := NewLocalResolver(map[string]string{"urn:m": `module namespace m = "urn:m";
		declare function m:spin() { count(1 to 3000000) };`})
	e := New(WithModuleResolver(resolver))
	for _, src := range []string{
		`import module namespace m = "urn:m"; m:spin()`,
		`declare function local:spin() { count(1 to 3000000) }; local:spin()`,
	} {
		p := e.MustCompile(src)
		if res, err := p.Run(RunConfig{MaxSteps: 1000}); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s under MaxSteps 1000: %v, %v; want ErrBudgetExceeded", src, res, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		res, err := p.Run(RunConfig{Context: ctx})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s under a 1 ms context: %v, %v; want context.DeadlineExceeded", src, res, err)
		}
	}
}

// globalsLibrary imports a library with a 5000-step global and a
// constructed one.
func globalsLibrary() *Engine {
	return New(WithModuleResolver(NewLocalResolver(map[string]string{"urn:m": `module namespace m = "urn:m";
		declare variable $m:n := count(1 to 5000);
		declare variable $m:c := <x/>;
		declare function m:f() { 1 };
		declare function m:g() { $m:c };`})))
}

func TestLibraryGlobalsInitialiseOncePerRun(t *testing.T) {
	// Ten calls pay for the 5000-step initialiser once, not ten times.
	e := globalsLibrary()
	calls := `import module namespace m = "urn:m"; sum((` +
		strings.TrimSuffix(strings.Repeat("m:f(), ", 10), ", ") + `))`
	res, err := e.MustCompile(calls).Run(RunConfig{MaxSteps: 20000})
	if err != nil || len(res.Value) != 1 || res.Value[0].String() != "10" {
		t.Fatalf("ten calls under MaxSteps 20000: %v, %v; want 10", res, err)
	}
}

func TestLibraryGlobalsAreOnePerRun(t *testing.T) {
	// One run sees one $m:c; the next run makes its own.
	p := globalsLibrary().MustCompile(`import module namespace m = "urn:m"; (m:g() is m:g(), m:g())`)
	var nodes []*dom.Node
	for i := 0; i < 2; i++ {
		res, err := p.Run(RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Value) != 2 || res.Value[0].String() != "true" {
			t.Fatalf("run %d: m:g() is m:g() = %v, want true", i, res.Value)
		}
		n, _ := xdm.IsNode(res.Value[1])
		nodes = append(nodes, n)
	}
	if nodes[0] == nodes[1] {
		t.Error("a second run reused the first run's $m:c: library globals must initialise per run")
	}
}

func TestCombineResolvers(t *testing.T) {
	r1 := NewLocalResolver(map[string]string{"urn:math": mathModule})
	r2 := NewLocalResolver(map[string]string{
		"urn:other": `module namespace o = "urn:other"; declare function o:one() { 1 };`,
	})
	e := New(WithModuleResolver(CombineResolvers(r1, r2)))
	res, err := e.EvalQuery(`import module namespace m = "urn:math";
		import module namespace o = "urn:other";
		m:square(o:one() + 1)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].String() != "4" {
		t.Errorf("combined = %v", res)
	}
	// Neither resolver knows the module.
	if _, err := e.Compile(`import module namespace z = "urn:zzz"; 1`); err == nil ||
		!strings.Contains(err.Error(), "urn:zzz") {
		t.Errorf("missing module error: %v", err)
	}
}

func TestModuleImportCachedCompilation(t *testing.T) {
	resolver := NewLocalResolver(map[string]string{"urn:math": mathModule})
	e := New(WithModuleResolver(resolver))
	// Two programs importing the same module share the compiled library.
	for i := 0; i < 2; i++ {
		res, err := e.EvalQuery(`import module namespace m = "urn:math"; m:square(3)`, nil)
		if err != nil || res[0].String() != "9" {
			t.Fatalf("round %d: %v %v", i, res, err)
		}
	}
}
