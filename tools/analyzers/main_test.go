package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func analyze(t *testing.T, src string, pass func(*token.FileSet, *ast.File) []finding) []finding {
	t.Helper()
	return analyzeAt(t, "x.go", src, pass)
}

// analyzeAt runs pass over src as the file filename, for the passes
// that key their rules by package path or file name.
func analyzeAt(t *testing.T, filename, src string, pass func(*token.FileSet, *ast.File) []finding) []finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, 0)
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

// The path index's guarded field is the name map. Ids are not its
// business any more: a field of that name is not guarded.
func TestIdxVersionFlagsUncheckedMapRead(t *testing.T) {
	src := `package index
type Doc struct{ names map[string][]int; ids map[string][]int }
func (d *Doc) ByName(k string) []int { return d.names[k] }
func (d *Doc) ByID(k string) []int   { return d.ids[k] }
`
	got := analyzeAt(t, "internal/dom/index/index.go", src, idxVersion)
	if len(got) != 1 || got[0].pos.Line != 3 {
		t.Fatalf("findings = %v, want 1, ByName's read", got)
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
	if got := analyzeAt(t, "internal/dom/index/index.go", src, idxVersion); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}

// Both index packages are named index: the guarded fields are chosen by
// path, so each package's names are free in the other, and a package
// named index anywhere else is not checked.
func TestIdxVersionKeysFieldsByPackagePath(t *testing.T) {
	src := `package index
type Doc struct{ names, post map[string][]int }
func (d *Doc) byName(k string) []int { return d.names[k] }
func (d *Doc) posting(k string) []int { return d.post[k] }
`
	for path, line := range map[string]int{
		"internal/dom/index/index.go":             3,
		"/src/repro/internal/fulltext/index/x.go": 4,
	} {
		if got := analyzeAt(t, path, src, idxVersion); len(got) != 1 || got[0].pos.Line != line {
			t.Errorf("%s: findings = %v, want 1 on line %d", path, got, line)
		}
	}
	if got := analyzeAt(t, "internal/xquery/index/x.go", src, idxVersion); len(got) != 0 {
		t.Errorf("another package named index: findings = %v, want none", got)
	}
}

// The path index's slot is its package's: a dom.Index on it anywhere
// else would read and publish the path index past index.For and Probe,
// as the raw cache accessors once did.
func TestIdxVersionFlagsRawCacheAccessOutsidePackage(t *testing.T) {
	src := `package p
import "repro/internal/dom"
var stray = dom.Index[int]{Slot: dom.PathIndexSlot}
`
	for _, path := range []string{"internal/xquery/runtime/x.go", "internal/fulltext/index/x.go"} {
		if got := analyzeAt(t, path, src, idxVersion); len(got) != 1 || got[0].pos.Line != 3 {
			t.Errorf("%s: findings = %v, want 1 on line 3", path, got)
		}
	}
	if got := analyzeAt(t, "internal/dom/index/index.go", src, idxVersion); len(got) != 0 {
		t.Errorf("in the owner: findings = %v, want none", got)
	}
}

// The root's index slots and their entries belong to dom's lifecycle
// file; RestoreVersion is the one other function that may name them,
// and nodeSide's declaration of them is not a use.
func TestIdxVersionFlagsRawSlotFieldOutsideAccessors(t *testing.T) {
	src := `package dom
type nodeSide struct{ indexes [2]*indexEntry }
type indexEntry struct{ version uint64 }
type Node struct{ side *nodeSide }
func (n *Node) RestoreVersion(v uint64) { n.side.indexes[0] = &indexEntry{version: ^uint64(0)} }
func (n *Node) clone() *Node { return &Node{side: &nodeSide{indexes: n.side.indexes}} }
func (n *Node) peek(slot int) *indexEntry { return n.side.indexes[slot] }
`
	got := analyzeAt(t, "internal/dom/tree.go", src, idxVersion)
	if len(got) != 4 {
		t.Fatalf("findings = %v, want 4 (clone's key and read, peek's result type and read)", got)
	}
	for _, f := range got {
		if f.pos.Line != 6 && f.pos.Line != 7 {
			t.Errorf("finding on line %d: %s", f.pos.Line, f.msg)
		}
	}
	if got := analyzeAt(t, "internal/dom/lifecycle.go", src, idxVersion); len(got) != 0 {
		t.Fatalf("in lifecycle.go: findings = %v, want none", got)
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

// The id map of package dom is touched by its own methods only: a
// mutator that wrote the map, or a reader that skipped its builder,
// would leave it stale or unbuilt.
func TestIdxVersionFlagsIDMapOutsideItsMethods(t *testing.T) {
	src := `package dom
type Node struct{ side *nodeSide; Data string }
type nodeSide struct{ idmap *idMap }
type idMap struct{ holder map[string]*Node; nextHolder map[*Node]*Node }
func (r *Node) ids() *idMap { return r.side.idmap }
func (m *idMap) addID(id string, e *Node) { m.holder[id] = e }
func (m *idMap) removeID(id string, e *Node) { delete(m.holder, id); delete(m.nextHolder, e) }
func (n *Node) SetData(d string) { if m := n.ids(); m != nil { m.removeID(n.Data, n); m.addID(d, n) }; n.Data = d }
func (n *Node) SetID(d string) { n.ids().holder[d] = n }
func (n *Node) Forget() { n.side.idmap = nil; _ = idMap{nextHolder: nil} }
`
	got := analyze(t, src, idxVersion)
	if len(got) != 3 {
		t.Fatalf("findings = %v, want 3 (SetID's write, Forget's drop and key)", got)
	}
	for _, f := range got {
		if f.pos.Line != 9 && f.pos.Line != 10 {
			t.Errorf("finding on line %d: %s", f.pos.Line, f.msg)
		}
	}
}

// The full-text index's guarded fields are the posting maps and the
// label-indexed tables.
func TestFTVersionFlagsUncheckedPostingRead(t *testing.T) {
	src := `package index
type Doc struct{ post, stemPost map[string][]int32; ranges []int; floor []int }
func (d *Doc) posting(w string) []int32 { return d.post[w] }
func (d *Doc) stemmed(w string) []int32 { return d.stemPost[w] }
func (d *Doc) rangeOf(pre int) int      { return d.ranges[pre] }
func (d *Doc) floorAt(i int) int        { return d.floor[i] }
`
	if got := analyzeAt(t, "internal/fulltext/index/match.go", src, idxVersion); len(got) != 4 {
		t.Fatalf("findings = %v, want 4", got)
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
	if got := analyzeAt(t, "internal/fulltext/index/match.go", src, idxVersion); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}

// The full-text index's slot is its package's, as the path index's is.
func TestFTVersionFlagsRawCacheAccessOutsidePackage(t *testing.T) {
	src := `package p
import "repro/internal/dom"
var stray = dom.Index[int]{Slot: dom.FTIndexSlot}
`
	for _, path := range []string{"internal/xquery/runtime/x.go", "internal/dom/index/x.go"} {
		if got := analyzeAt(t, path, src, idxVersion); len(got) != 1 || got[0].pos.Line != 3 {
			t.Errorf("%s: findings = %v, want 1 on line 3", path, got)
		}
	}
	if got := analyzeAt(t, "internal/fulltext/index/index.go", src, idxVersion); len(got) != 0 {
		t.Errorf("in the owner: findings = %v, want none", got)
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

// The binding table has one writer as well: Prepare.
func TestPlanPureBindingsHaveOneInstaller(t *testing.T) {
	ok := `package plan
import "repro/internal/xquery/ast"
func Prepare(m *ast.Module) { m.Bindings = Bind(m) }
`
	if got := analyze(t, ok, planPure); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
	bad := `package plan
import "repro/internal/xquery/ast"
func Annotate(m *ast.Module) { m.Bindings = Bind(m) }
func newInference(m *ast.Module) { m.Bindings = nil }
`
	if got := analyze(t, bad, planPure); len(got) != 2 {
		t.Fatalf("findings = %v, want 2", got)
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

func TestStoreSyncFlagsSnapshotCacheOutsideShardFile(t *testing.T) {
	src := `package xmldb
func (s *Store) peek(col string) int {
	return len(s.shards[0].colSnaps[col])
}
`
	if got := analyzeNamed(t, "colops.go", src, storeSync); len(got) != 1 {
		t.Fatalf("findings = %v, want 1", got)
	}
	shardSrc := `package xmldb
func (sh *shard) drop(col string) { delete(sh.colSnaps, col) }
`
	if got := analyzeNamed(t, "shard.go", shardSrc, storeSync); len(got) != 0 {
		t.Fatalf("shard.go findings = %v, want none", got)
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
func hack(n *dom.Node, c *dom.Node, r *dom.Recorder) {
	n.AppendChild(c)
	n.SetAttr(dom.QName{Local: "x"}, "1")
	c.Detach()
	r.Adopt(c)
}
`
	got := analyze(t, src, pulApply)
	if len(got) != 4 {
		t.Fatalf("findings = %v, want 4", got)
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

// TestPulApplyExemptsNoFunction: no function is exempt by name — the
// wire decoder reads node payloads in place and detaches nothing — so a
// Detach in a function named decodeItem is flagged like any other.
func TestPulApplyExemptsNoFunction(t *testing.T) {
	src := `package rest
import "repro/internal/dom"
func decodeItem(item *dom.Node) {
	c := item.Children()[0]
	c.Detach()
}
func other(c *dom.Node) { c.Detach() }
`
	got := analyze(t, src, pulApply)
	if len(got) != 2 {
		t.Fatalf("findings = %v, want 2 (Detach in decodeItem and in other)", got)
	}
}

func TestPulApplyFlagsApplyOutsideTheApplyPath(t *testing.T) {
	const body = `
import "repro/internal/xquery/update"
func finish(pul *update.PUL, n, c interface{ AppendChild(any) }) error {
	n.AppendChild(c)
	return pul.Apply(nil)
}
`
	if got := analyzeAt(t, "internal/core/core.go", "package core"+body, pulApply); len(got) != 1 {
		t.Fatalf("findings = %v, want 1 (Apply; a DOM host may mutate)", got)
	}
	if got := analyzeAt(t, "internal/serve/serve.go", "package serve"+body, pulApply); len(got) != 2 {
		t.Fatalf("findings = %v, want 2 in a package held to both rules", got)
	}
}

func TestPulApplyAllowsTheApplyPath(t *testing.T) {
	for _, path := range []string{"internal/xquery/runtime/script.go", "internal/xquery/update/update.go"} {
		src := `package p
import "repro/internal/xquery/update"
func apply(pul *update.PUL) error {
	return pul.Apply(nil)
}
`
		if got := analyzeAt(t, path, src, pulApply); len(got) != 0 {
			t.Fatalf("%s: findings = %v, want none", path, got)
		}
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

func TestFramesFlagsBoxWritesOutsideTheWriters(t *testing.T) {
	src := `package runtime
func (e *env) bind(name string, v []int) *env { return &env{parent: e, name: name, box: Box{Val: v}} }
func (lf *loopFrame) bindAt(v []int) { lf.val.box.Val = v }
func (ctx *Context) evalAssign(v []int) { box := ctx.env.lookup("x"); box.Val = v }
func (ctx *Context) Bind(v []int) *Box { return &ctx.env.box }
func (ctx *Context) sneak(v []int) {
	ctx.env.box.Val = v
	ctx.env.box = Box{}
	b := ctx.env.lookup("x")
	b.Val = v
	(*b).Val = v
}
func clone(e *env) *env { return &env{name: e.name, box: e.box} }
`
	if got := analyzeNamed(t, "eval.go", src, frames); len(got) != 5 {
		t.Fatalf("findings = %v, want 5 (four writes in sneak, the box key in clone)", got)
	}
}

func TestFramesKeepsTheLeaseInBudgetFile(t *testing.T) {
	budget := `package runtime
func (b *Budget) Step() error { if b.lease > 0 { b.lease--; return nil }; return b.draw() }
func (b *Budget) Fork() *Budget { return &Budget{root: b.root, lease: 0} }
`
	if got := analyzeNamed(t, "budget.go", budget, frames); len(got) != 0 {
		t.Fatalf("budget.go findings = %v, want none", got)
	}
	other := `package runtime
func (ctx *Context) cheap() bool { return ctx.Budget.lease > 0 }
func fresh() *Budget { return &Budget{lease: 256} }
`
	if got := analyzeNamed(t, "eval.go", other, frames); len(got) != 2 {
		t.Fatalf("findings = %v, want 2 (the read in cheap, the key in fresh)", got)
	}
	otherPkg := `package core
func (l *lease) renew() { l.lease = 1; l.box.Val = nil }
`
	if got := analyzeNamed(t, "lease.go", otherPkg, frames); len(got) != 0 {
		t.Fatalf("other-package findings = %v, want none", got)
	}
}

func TestFramesFlagsResolverCallsOutsideTheMemo(t *testing.T) {
	src := `package funclib
func doc(ctx *runtime.Context, uri string) (*dom.Node, error) { return ctx.Docs(uri) }
func coll(ctx *runtime.Context, uri string) (xdm.Iter, error) { return ctx.Collections.Documents(uri) }
func avail(ctx *runtime.Context) bool { _, err := ctx.Docs("u"); return err == nil }
`
	if got := analyzeNamed(t, "funclib2.go", src, frames); len(got) != 3 {
		t.Fatalf("findings = %v, want 3 (the two Docs calls, the Documents call)", got)
	}
	inRuntime := `package runtime
func (ctx *Context) sneak(uri string) { ctx.Docs(uri); ctx.Collections.Documents(uri) }
`
	if got := analyzeNamed(t, "eval.go", inRuntime, frames); len(got) != 2 {
		t.Fatalf("runtime findings = %v, want 2", got)
	}
}

func TestFramesAllowsTheMemoAndOtherDocuments(t *testing.T) {
	memo := `package runtime
func (ctx *Context) Doc(uri string) (*dom.Node, error) { return ctx.Docs(uri) }
func (ctx *Context) Collection(uri string) (xdm.Iter, error) { return ctx.Collections.Documents(uri) }
`
	if got := analyzeNamed(t, "memo.go", memo, frames); len(got) != 0 {
		t.Fatalf("memo.go findings = %v, want none", got)
	}
	other := `package funclib
func doc(ctx *runtime.Context, uri string) (*dom.Node, error) { return ctx.Doc(uri) }
func coll(ctx *runtime.Context, uri string) (xdm.Iter, error) { return ctx.Collection(uri) }
func store(s *xmldb.Store, uri string) (xdm.Iter, error) { return s.CollectionSource().Documents(uri) }
func install(ctx *runtime.Context, r runtime.DocResolver) *runtime.Context {
	return ctx.Derive(func(run *runtime.Run) { run.Docs = r })
}
`
	if got := analyzeNamed(t, "funclib2.go", other, frames); len(got) != 0 {
		t.Fatalf("findings = %v, want none (the memo's entry points, a source that is not the run's, an assignment)", got)
	}
}

func TestFramesFlagsRunWritesOutsideTheRunMakers(t *testing.T) {
	src := `package xquery
func perDocument(parent *runtime.Context) *runtime.Context {
	ctx := parent.ContextFor(nil)
	ctx.PUL = nil
	return ctx
}
func perDocumentDerived(parent *runtime.Context) *runtime.Context {
	return parent.ContextFor(nil).Derive(func(r *runtime.Run) { r.PUL = nil })
}
`
	got := analyzeNamed(t, "perdoc.go", src, frames)
	if len(got) != 1 || !strings.Contains(got[0].msg, "PUL written in perDocument;") {
		t.Fatalf("findings = %v, want 1 (the write through ContextFor's shared run, not the Derive edit)", got)
	}
	makers := `package runtime
func NewContext(p *Program) *Context { c := &Context{Run: &Run{}}; c.PUL = &update.PUL{}; return c }
func (ctx *Context) Derive(edit func(r *Run)) *Context { c := *ctx; c.Run = &Run{}; edit(c.Run); return &c }
`
	if got := analyzeNamed(t, "runtime.go", makers, frames); len(got) != 0 {
		t.Fatalf("run makers' findings = %v, want none", got)
	}
}

func TestSeqWriteFlagsWritesIntoHandedSequences(t *testing.T) {
	src := `package runtime
func literal(x ast.StringLit) {
	res := x.Value()
	res[0] = xdm.String("mutant")
}
func literalSeq(x ast.StringLit) { x.Seq[0] = xdm.String("mutant") }
func evaluated(ctx *Context, e ast.Expr) {
	res, _ := ctx.Eval(e)
	tail := res[1:]
	tail[0] = nil
	slices.Reverse(res)
	_ = append(res, nil)
}
func materialized(it xdm.Iter) {
	s, _ := xdm.Materialize(it)
	s[0] = nil
}
func binding(b *Box) { b.Val[0] = nil }
func param(s xdm.Sequence) { copy(s, nil) }
var f = &Function{Invoke: func(ctx *Context, args []xdm.Sequence) (xdm.Sequence, error) {
	sort.Slice(args[0], func(i, j int) bool { return false })
	for _, a := range args {
		a[0] = nil
	}
	return nil, nil
}}
func lib() *Function {
	return &Function{Invoke: func(ctx *Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s := args[1]
		s[0]++
		return s, nil
	}}
}
`
	got := analyze(t, src, seqWrite)
	if len(got) != 11 {
		t.Fatalf("findings = %v, want 11", got)
	}
	for _, f := range got {
		if !strings.Contains(f.msg, "seqwrite:") {
			t.Errorf("finding %v is not the pass's", f)
		}
	}
}

func TestSeqWriteFlagsWritesIntoSharedBooleansAndCells(t *testing.T) {
	src := `package runtime
func mutant() { xdm.True[0] = xdm.Boolean(false) }
func result(ok bool) xdm.Sequence {
	res := xdm.Bool(ok)
	res[0] = nil
	return append(xdm.False, nil)
}
func loop(d *loopDomain) {
	one, _ := d.nextCell()
	one[0] = nil
	at := d.holdCell(xdm.Integer(1))
	slices.Reverse(at)
}
`
	got := analyze(t, src, seqWrite)
	if len(got) != 5 {
		t.Fatalf("findings = %v, want 5", got)
	}
	if !strings.Contains(got[0].msg, "an index assignment in mutant") {
		t.Errorf("first finding %v is not the xdm.True mutant's", got[0])
	}
}

func TestSeqWriteAllowsWhatTheCallerMade(t *testing.T) {
	src := `package runtime
func eval(ctx *Context, e ast.Expr) (xdm.Sequence, error) {
	res, err := ctx.Eval(e)
	if err != nil {
		return nil, err
	}
	out := slices.Clone(res)
	out[0] = nil
	own := append(xdm.Sequence(nil), res...)
	slices.Reverse(own)
	made := make(xdm.Sequence, len(res))
	for i, it := range res {
		made[i] = it
	}
	var acc xdm.Sequence
	acc = append(acc, res...)
	return append(made, acc...), nil
}
var f = &Function{Invoke: func(ctx *Context, args []xdm.Sequence) (xdm.Sequence, error) {
	out := make(xdm.Sequence, len(args[0]))
	for i, it := range args[0] {
		out[len(args[0])-1-i] = it
	}
	return out, nil
}}
`
	if got := analyze(t, src, seqWrite); len(got) != 0 {
		t.Fatalf("findings = %v, want none", got)
	}
}
