package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func analyze(t *testing.T, src string, pass func(*token.FileSet, *ast.File) []finding) []finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pass(fset, f)
}

func TestProgMutateFlagsLateWrite(t *testing.T) {
	src := `package p
type Engine struct{ fp string }
func (e *Engine) Rename(s string) { e.fp = s }
`
	got := analyze(t, src, progMutate)
	if len(got) != 1 {
		t.Fatalf("findings = %v, want 1", got)
	}
}

func TestProgMutateAllowsConstructors(t *testing.T) {
	src := `package p
type Engine struct{ fp string }
type Program struct{ engine *Engine }
func New() *Engine { e := &Engine{}; e.fp = "x"; return e }
func WithThing() func(*Engine) { return func(e *Engine) { e.fp = "y" } }
func (e *Engine) CompileModule() *Program { p := &Program{}; p.engine = e; return p }
`
	if got := analyze(t, src, progMutate); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}

func TestProgMutateLocalLiteral(t *testing.T) {
	src := `package p
type Program struct{ n int }
func use() { p := &Program{}; p.n = 2 }
`
	if got := analyze(t, src, progMutate); len(got) != 1 {
		t.Fatalf("findings = %v, want 1", got)
	}
}

func TestProgMutateIgnoresOtherTypes(t *testing.T) {
	src := `package p
type Session struct{ n int }
func (s *Session) Bump() { s.n++ }
`
	if got := analyze(t, src, progMutate); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}

func TestProgMutateGuardsSharedProgramAndRegistry(t *testing.T) {
	src := `package p
type sharedProgram struct{ mod, user *int }
type Registry struct {
	funcs  map[string][]int
	shape  uint64
	frozen bool
}
func (e *Engine) compileShared(m *int) *sharedProgram { return &sharedProgram{mod: m, user: m} }
func NewRegistry() *Registry { r := &Registry{}; r.funcs = map[string][]int{}; return r }
func (r *Registry) Register(k string) { r.funcs[k] = append(r.funcs[k], 1); r.shape++ }
func (r *Registry) Freeze() { r.frozen = true }
func (r *Registry) Layer() *Registry { return &Registry{} }
`
	if got := analyze(t, src, progMutate); len(got) != 0 {
		t.Fatalf("constructors, Register and Freeze: findings = %v, want none", got)
	}
	bad := `package p
type sharedProgram struct{ mod, user *int }
type Registry struct {
	funcs  map[string][]int
	frozen bool
}
type Engine struct{ host *Registry }
func (r *Registry) Thaw() { r.frozen = false }
func (r *Registry) Drop(k string) { r.funcs[k] = nil }
func patch(r *Registry, k string) { r.funcs[k][0] = 2 }
func (e *Engine) bind(sh *sharedProgram) { sh.user = nil }
func (e *Engine) Register(sh *sharedProgram) { sh.mod = nil }
`
	if got := analyze(t, bad, progMutate); len(got) != 5 {
		t.Fatalf("late writes: findings = %v, want 5", got)
	}
}

func TestIdxVersionFlagsUncheckedMapRead(t *testing.T) {
	src := `package index
type Doc struct{ names map[string][]int }
func (d *Doc) ByName(k string) []int { return d.names[k] }
`
	got := analyze(t, src, idxVersion)
	if len(got) != 1 {
		t.Fatalf("findings = %v, want 1", got)
	}
}

func TestIdxVersionAllowsGuardedReadAndBuilder(t *testing.T) {
	src := `package index
type Doc struct{ names map[string][]int; version uint64 }
func (d *Doc) fresh() bool { return d.version == 0 }
func (d *Doc) ByName(k string) []int {
	if !d.fresh() {
		return nil
	}
	return d.names[k]
}
func build() *Doc { d := &Doc{names: map[string][]int{}}; d.names["x"] = nil; return d }
`
	if got := analyze(t, src, idxVersion); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}

func TestIdxVersionFlagsRawCacheAccessOutsidePackage(t *testing.T) {
	src := `package runtime
func peek(n *Node) any { return n.LoadIndexCache() }
func poke(n *Node)     { n.StoreIndexCache(nil) }
type Node struct{}
func (n *Node) LoadIndexCache() any { return nil }
func (n *Node) StoreIndexCache(v any) {}
`
	got := analyze(t, src, idxVersion)
	if len(got) != 2 {
		t.Fatalf("findings = %v, want 2", got)
	}
}

// The slot's field is as raw as its accessors: package dom may name it
// in the two accessors and nowhere else.
func TestIdxVersionFlagsRawSlotFieldOutsideAccessors(t *testing.T) {
	src := `package dom
type side struct{ indexCache, ftCache *any }
type Node struct{ side *side }
func (n *Node) LoadIndexCache() any { return *n.side.indexCache }
func (n *Node) StoreIndexCache(v any) { n.side.indexCache = &v }
func (n *Node) clone() *Node { c := &Node{side: &side{}}; c.side.ftCache = n.side.indexCache; return c }
`
	if got := analyze(t, src, idxVersion); len(got) != 1 || got[0].pos.Line != 6 {
		t.Fatalf("idxversion findings = %v, want 1 (clone's read of indexCache)", got)
	}
	if got := analyze(t, src, ftVersion); len(got) != 1 || got[0].pos.Line != 6 {
		t.Fatalf("ftversion findings = %v, want 1 (clone's write of ftCache)", got)
	}
}

// The label word of a dom.Node has one reader and one writer: a read
// elsewhere in package dom skips the freshness check, a write the
// race-free publication.
func TestIdxVersionFlagsLabelWordOutsideAccessorAndLabeler(t *testing.T) {
	src := `package dom
type Node struct{ label uint64; kids []*Node }
func (n *Node) labels() (uint32, uint32) { return uint32(n.label >> 32), uint32(n.label) }
func (n *Node) relabel(next uint32) uint32 { n.label = uint64(next); return next + 1 }
func CompareOrder(a, b *Node) int { if a.label < b.label { return -1 }; return 1 }
func (n *Node) clone() *Node { return &Node{label: n.label} }
func (n *Node) Label() (uint32, uint32) { return n.labels() }
`
	got := analyze(t, src, idxVersion)
	if len(got) != 4 {
		t.Fatalf("findings = %v, want 4 (CompareOrder's two reads, clone's key and read)", got)
	}
	for _, f := range got {
		if f.pos.Line != 5 && f.pos.Line != 6 {
			t.Errorf("finding on line %d: %s", f.pos.Line, f.msg)
		}
	}
	// Other packages may have fields of that name: the word is dom's.
	other := `package markup
type token struct{ label string }
func (t token) String() string { return t.label }
`
	if got := analyze(t, other, idxVersion); len(got) != 0 {
		t.Fatalf("outside package dom: findings = %v, want none", got)
	}
}

func TestFTVersionFlagsUncheckedPostingRead(t *testing.T) {
	src := `package index
type Doc struct{ post map[string][]int32; ranges []int; floor []int }
func (d *Doc) posting(w string) []int32 { return d.post[w] }
func (d *Doc) rangeOf(pre int) int      { return d.ranges[pre] }
func (d *Doc) floorAt(i int) int        { return d.floor[i] }
`
	got := analyze(t, src, ftVersion)
	if len(got) != 3 {
		t.Fatalf("findings = %v, want 3", got)
	}
}

func TestFTVersionAllowsGuardedReadAndBuilder(t *testing.T) {
	src := `package index
type Doc struct{ post map[string][]int32; version uint64 }
func (d *Doc) fresh() bool { return d.version == 0 }
func (d *Doc) posting(w string) []int32 {
	if !d.fresh() {
		return nil
	}
	return d.post[w]
}
func buildTables(d *Doc) { d.post["x"] = nil }
`
	if got := analyze(t, src, ftVersion); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}

func TestFTVersionFlagsRawCacheAccessOutsidePackage(t *testing.T) {
	src := `package runtime
func peek(n *Node) any { return n.LoadFTIndexCache() }
func poke(n *Node)     { n.StoreFTIndexCache(nil) }
type Node struct{}
func (n *Node) LoadFTIndexCache() any { return nil }
func (n *Node) StoreFTIndexCache(v any) {}
`
	got := analyze(t, src, ftVersion)
	if len(got) != 2 {
		t.Fatalf("findings = %v, want 2", got)
	}
}

func TestPlanPureFlagsPointerWrites(t *testing.T) {
	src := `package plan
import "repro/internal/xquery/ast"
func rewrite(f *ast.FLWOR, s *ast.Step) {
	f.Where = nil    // structural mutation through a pointer: flagged
	s.Preds[0] = nil // deep write rooted at the same pointer: flagged
}
`
	got := analyze(t, src, planPure)
	if len(got) != 2 {
		t.Fatalf("findings = %v, want 2", got)
	}
}

func TestPlanPureAllowsCopyAndAnnotation(t *testing.T) {
	src := `package plan
import "repro/internal/xquery/ast"
func (p *planner) step(s *ast.Step) { s.Access, s.PredPlans = 0, nil }
func Annotate(m *ast.Module) {
	m.Body = nil
	m.Prolog.Functions[0].Body = nil
	m.Prolog.Vars[0].Init = nil
}
func optimize(f ast.FLWOR) ast.FLWOR {
	g := f          // copy-then-modify by value is the sanctioned idiom
	g.Where = nil
	cl := append([]ast.ForLet(nil), f.Clauses...)
	cl[0].For = true
	g.Clauses = cl
	return g
}
`
	if got := analyze(t, src, planPure); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}

// The optimized roots are written by plan.Prepare and nobody else, not
// even Annotate; and Prepare may write nothing else of the module.
func TestPlanPureOptimizedRootsHaveOneInstaller(t *testing.T) {
	ok := `package plan
import "repro/internal/xquery/ast"
func Prepare(m *ast.Module) {
	m.Prolog.Functions[0].Optimized = nil
	m.Optimized = nil
}
func annotate(m *ast.Module) { m.Body = nil } // the pass Annotate and Prepare share
`
	if got := analyze(t, ok, planPure); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
	bad := `package plan
import "repro/internal/xquery/ast"
func Annotate(m *ast.Module) { m.Optimized = nil }
func Prepare(m *ast.Module) { m.Body = nil }
func (o *optimizer) flwor(m *ast.Module, d *ast.FuncDecl) { m.Optimized = nil; d.Optimized = nil }
`
	if got := analyze(t, bad, planPure); len(got) != 4 {
		t.Fatalf("findings = %v, want 4", got)
	}
}

// The module's effect summary has one writer too: Prepare.
func TestPlanPureEffectsHaveOneInstaller(t *testing.T) {
	ok := `package plan
import "repro/internal/xquery/ast"
func Prepare(m *ast.Module) { m.Effects = ast.EffUpdates }
`
	if got := analyze(t, ok, planPure); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
	bad := `package plan
import "repro/internal/xquery/ast"
func annotate(m *ast.Module, in *inference) { m.Effects = in.infer(m.Body).eff }
`
	if got := analyze(t, bad, planPure); len(got) != 1 {
		t.Fatalf("findings = %v, want 1", got)
	}
}

func TestPlanPureShipIsThePlanners(t *testing.T) {
	ok := `package plan
import "repro/internal/xquery/ast"
func (p *planner) expr(x ast.FLWOR, c ast.FuncCall) (ast.FLWOR, ast.FuncCall) {
	x.Ship = shipFLWOR(x) // the planner annotating its own copy
	c.Ship = shipCount(c)
	return x, c
}
func mapChildren(x ast.FLWOR, c ast.FuncCall) (ast.FLWOR, ast.FuncCall) {
	out := ast.FLWOR{Return: x.Return, Ship: x.Ship} // a copy keeps its plan
	d := ast.FuncCall{Name: c.Name}
	d.Ship = c.Ship
	return out, d
}
`
	if got := analyze(t, ok, planPure); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
	bad := `package plan
import "repro/internal/xquery/ast"
func (o *optimizer) flatten(f, inner ast.FLWOR) ast.FLWOR {
	f.Ship = &ast.ShipPlan{Src: "made up"}                         // a plan from outside the planner
	g := ast.FLWOR{Clauses: f.Clauses, Ship: shipFLWOR(inner)}     // the same, in a literal
	g.Ship = nil                                                   // dropping one silently
	return g
}
`
	if got := analyze(t, bad, planPure); len(got) != 3 {
		t.Fatalf("findings = %v, want 3", got)
	}
}

func TestPlanPureAdoptIsThePlanners(t *testing.T) {
	ok := `package plan
import "repro/internal/xquery/ast"
func (p *planner) expr(x ast.Insert, d ast.DirElem) (ast.Insert, ast.DirElem) {
	x.Adopt = p.adopts(x.Source) // the planner marking its own copy
	d.Adopt = []bool{true}
	return x, d
}
func mapChildren(x ast.Replace, d ast.DirElem) (ast.Replace, ast.DirElem) {
	return ast.Replace{With: x.With, Adopt: x.Adopt}, ast.DirElem{Content: d.Content, Adopt: d.Adopt}
}
`
	if got := analyze(t, ok, planPure); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
	bad := `package compile
import "repro/internal/xquery/ast"
func (u *unitCompiler) compile(x ast.Insert, d ast.DirElem) ast.Expr {
	x.Adopt = true                                             // a mark from outside the planner
	d.Adopt[0] = true                                          // the same, into the list a copy shares
	return ast.CompConstructor{Content: x.Source, Adopt: true} // the same, in a literal
}
`
	if got := analyze(t, bad, planPure); len(got) != 3 {
		t.Fatalf("findings = %v, want 3", got)
	}
}

func TestPlanPureFlagsNonAnnotationStepWrite(t *testing.T) {
	src := `package plan
import "repro/internal/xquery/ast"
func bad(s *ast.Step) { s.Axis = 0 }
func Annotate(m *ast.Module) { m.IsLibrary = true } // not an expression root
func replan(m *ast.Module)   { m.Body = nil }       // a root, but not the planner
`
	if got := analyze(t, src, planPure); len(got) != 3 {
		t.Fatalf("findings = %v, want 3", got)
	}
}

func TestCtxStructFlagsStoredContext(t *testing.T) {
	src := `package p
import "context"
type Session struct {
	ctx    context.Context
	cancel context.CancelFunc
}
func ok(ctx context.Context) {}
`
	got := analyze(t, src, ctxStruct)
	if len(got) != 1 {
		t.Fatalf("findings = %v, want exactly the ctx field", got)
	}
}

func analyzeNamed(t *testing.T, name, src string, pass func(*token.FileSet, *ast.File) []finding) []finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pass(fset, f)
}

func TestStoreSyncFlagsRawMapAccessOutsideShardFile(t *testing.T) {
	src := `package xmldb
func (s *Store) sneak(uri string) bool {
	sh := s.shardFor(uri)
	_, ok := sh.docs[uri]
	return ok
}
`
	if got := analyzeNamed(t, "docs.go", src, storeSync); len(got) != 1 {
		t.Fatalf("findings = %v, want 1", got)
	}
}

func TestStoreSyncAllowsShardFileAndOtherPackages(t *testing.T) {
	shardSrc := `package xmldb
func (sh *shard) get(uri string) bool { _, ok := sh.docs[uri]; return ok }
`
	if got := analyzeNamed(t, "shard.go", shardSrc, storeSync); len(got) != 0 {
		t.Fatalf("shard.go findings = %v, want none", got)
	}
	otherPkg := `package serve
type q struct{ docs map[string]int }
func (x *q) n() int { return len(x.docs) }
`
	if got := analyzeNamed(t, "pool.go", otherPkg, storeSync); len(got) != 0 {
		t.Fatalf("other-package findings = %v, want none", got)
	}
	// A similarly named field (docsServed) is not the shard map.
	statsSrc := `package xmldb
func (s *Store) bump() { s.Stats.docsServed.Add(1) }
`
	if got := analyzeNamed(t, "http.go", statsSrc, storeSync); len(got) != 0 {
		t.Fatalf("docsServed findings = %v, want none", got)
	}
}

func TestRecoverCheckFlagsNakedRecover(t *testing.T) {
	src := `package serve
func (s *Session) runTurn() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = nil
		}
	}()
	return nil
}
`
	got := analyze(t, src, recoverCheck)
	if len(got) != 1 {
		t.Fatalf("findings = %v, want 1", got)
	}
}

func TestRecoverCheckAllowsSanctionedPackages(t *testing.T) {
	for _, src := range []string{
		`package xqerr
func RecoverInto(errp *error, b string) { if r := recover(); r != nil { _ = r } }`,
		`package faultpoint
func catch() { _ = recover() }`,
		`package parser
func (p *Parser) recoverTo(err *error) { if r := recover(); r != nil { _ = r } }`,
	} {
		if got := analyze(t, src, recoverCheck); len(got) != 0 {
			t.Fatalf("findings = %v, want none for %q", got, src)
		}
	}
}

func TestRecoverCheckFlagsElsewhereInParser(t *testing.T) {
	src := `package parser
func sneaky() { _ = recover() }
`
	if got := analyze(t, src, recoverCheck); len(got) != 1 {
		t.Fatalf("findings = %v, want 1", got)
	}
}

func TestPulApplyFlagsDirectMutation(t *testing.T) {
	src := `package serve
import "repro/internal/dom"
func hack(n *dom.Node, c *dom.Node) {
	n.AppendChild(c)
	n.SetAttr(dom.QName{Local: "x"}, "1")
	c.Detach()
}
`
	got := analyze(t, src, pulApply)
	if len(got) != 3 {
		t.Fatalf("findings = %v, want 3", got)
	}
}

func TestPulApplyAllowsSanctionedPackages(t *testing.T) {
	for _, src := range []string{
		`package dom
func (n *Node) helper(c *Node) { n.AppendChild(c) }
type Node struct{}
func (n *Node) AppendChild(c *Node) {}
`,
		`package update
func apply(n, c interface{ AppendChild(any) }) { n.AppendChild(c) }
`,
	} {
		if got := analyze(t, src, pulApply); len(got) != 0 {
			t.Fatalf("findings = %v, want none for %q", got, src[:20])
		}
	}
}

func TestPulApplySkipsPackageQualifiedCalls(t *testing.T) {
	src := `package serve
import (
	"os"
	"repro/internal/xquery/update"
)
func ok() {
	os.Rename("a", "b")
	_ = update.Rename
}
`
	if got := analyze(t, src, pulApply); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}

func TestPulApplyExemptsWireDecoderDetach(t *testing.T) {
	src := `package rest
import "repro/internal/dom"
func decodeItem(item *dom.Node) {
	c := item.Children()[0]
	c.Detach()
	c.SetData("x")
}
func other(c *dom.Node) { c.Detach() }
`
	got := analyze(t, src, pulApply)
	if len(got) != 2 {
		t.Fatalf("findings = %v, want 2 (SetData in decodeItem, Detach elsewhere)", got)
	}
}

func TestHotConstFlagsPerCallConstruction(t *testing.T) {
	src := `package markup
import (
	"regexp"
	re2 "regexp"
	"strings"
)
const amp = "&"
func EscapeText(s string) string {
	r := strings.NewReplacer(amp, "&amp;", "<", "&"+"lt;")
	return r.Replace(s)
}
func match(s string) bool { return regexp.MustCompile("^a+$").MatchString(s) }
func alias(s string) bool { re, _ := re2.Compile(` + "`x`" + `); return re.MatchString(s) }
var lazy = func() *regexp.Regexp { return regexp.MustCompile("b") }
func (p *parser) m() { go func() { _ = strings.NewReplacer("a", "b") }() }
type parser struct{}
`
	got := analyze(t, src, hotConst)
	if len(got) != 5 {
		t.Fatalf("findings = %v, want 5", got)
	}
}

func TestHotConstFlagsPerCallConstMap(t *testing.T) {
	src := `package xdm
const eq = "eq"
func valueOp(op string) string {
	return map[string]string{"=": eq, "!=": "ne"}[op] // built to be indexed once
}
func german(cond string) string {
	words := map[string]string{"sunny": "sonnig", "rain": "Regen"}
	if w := words[cond]; w != "" {
		return w
	}
	return words["sunny"]
}
`
	if got := analyze(t, src, hotConst); len(got) != 2 {
		t.Fatalf("findings = %v, want 2", got)
	}
}

func TestHotConstAllowsMapsThatAreNotLookupTables(t *testing.T) {
	src := `package parser
var ops = map[string]string{"=": "eq"}
var table map[string]string
func init() { table = map[string]string{"a": "b"} }
type Parser struct{ ns map[string]string }
func newParser() *Parser { return &Parser{ns: map[string]string{"xs": "http://x"}} } // each parser's own, declarations are added
func seeded(k string) map[string]int {
	m := map[string]int{"a": 1}
	m[k] = 2 // written: a fresh map per call is the point
	return m
}
func passed() int { m := map[string]int{"a": 1}; return count(m) }
func dynamic(v string) string { return map[string]string{"k": v}["k"] }
func empty() map[string]bool { return map[string]bool{} }
func count(m map[string]int) int { return len(m) }
`
	if got := analyze(t, src, hotConst); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}

func TestHotConstAllowsHoistedAndDynamic(t *testing.T) {
	src := `package funclib
import (
	"regexp"
	"strings"
)
var textEscaper = strings.NewReplacer("&", "&amp;")
var word = regexp.MustCompile("[a-z]+")
var table map[string]*regexp.Regexp
func init() { table = map[string]*regexp.Regexp{"w": regexp.MustCompile("w")} }
func matches(pattern, flags string) (*regexp.Regexp, error) { return regexp.Compile(flags + pattern) }
func wildcard(src string) *regexp.Regexp { return regexp.MustCompile(src) }
func pairs(oldnew []string) *strings.Replacer { return strings.NewReplacer(oldnew...) }
`
	if got := analyze(t, src, hotConst); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}

func TestSleepPollFlagsSleepInLoop(t *testing.T) {
	src := `package core
import clock "time"
func (h *Host) WaitIdle() {
	for !h.idle() {
		clock.Sleep(200 * clock.Microsecond)
	}
}
func drainAll(qs [][]int) {
	for _, q := range qs {
		if len(q) > 0 {
			func() { clock.Sleep(clock.Millisecond) }()
		}
		for len(q) > 0 {
			clock.Sleep(clock.Millisecond)
		}
	}
}
`
	got := analyze(t, src, sleepPoll)
	if len(got) != 2 {
		t.Fatalf("findings = %v, want 2 (WaitIdle, the inner loop of drainAll)", got)
	}
}

func TestSleepPollAllowsSleepOutsideLoopsAndBackoff(t *testing.T) {
	src := `package runtime
import "time"
func pause() { time.Sleep(time.Millisecond) }
func spawn(n int) {
	for i := 0; i < n; i++ {
		go func() { time.Sleep(time.Millisecond) }()
	}
}
func resolveWithRetry(retries int) {
	for r := 0; r < retries; r++ {
		time.Sleep(time.Millisecond)
	}
}
type clock struct{}
func (clock) Sleep(d int) {}
func fake(c clock) {
	for {
		c.Sleep(1)
	}
}
`
	if got := analyze(t, src, sleepPoll); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}
