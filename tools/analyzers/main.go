// Command analyzers runs the repository's custom Go invariant passes.
// They encode the serving-layer contracts the concurrency PR
// established:
//
//	progmutate  compiled programs (xquery.Program / xquery.Engine /
//	            runtime.Program, and the compilation every engine of one
//	            shape shares, xquery.sharedProgram) are immutable after
//	            construction: once a program is in the shared cache it is
//	            read concurrently without locks, so field writes are only
//	            legal inside constructor-shaped functions
//	            (New*/Compile*/With*/init). An engine's memo of its
//	            bindings is a type of its own (xquery.bindings) behind
//	            its own mutex, so Engine's fields stay unwritten too.
//	            The same goes for the
//	            function registry layers programs resolve calls in
//	            (runtime.Registry): its fields, map entries included, are
//	            written by its constructors and by Register and Freeze,
//	            nowhere else.
//
//	ctxstruct   context.Context is never stored in a struct field in the
//	            serve/rest layers; contexts flow through call parameters
//	            so cancellation scopes stay explicit per request.
//
//	idxversion  the version-stamp discipline of the per-document index
//	            layer (internal/dom/index): inside package index, any
//	            function reading the index maps (names/ids) must
//	            consult the version stamp (call fresh() or compare
//	            version) unless it is the builder itself; outside the
//	            package, nobody calls the raw cache accessors
//	            Node.LoadIndexCache/StoreIndexCache or names the
//	            indexCache field behind them — all access goes
//	            through index.For/index.Fresh, which are the only
//	            places allowed to compare the stamp. And in package
//	            dom, the node's document-order label word is read by
//	            its accessor (labels) and written by its labeler
//	            (relabel) only: everyone else goes through
//	            Node.Label, CompareOrder or SortDedup, which make the
//	            labels current first.
//
//	ftversion   the same stamp discipline for the full-text index layer
//	            (internal/fulltext/index): inside the package, functions
//	            reading the posting/trigram maps and the label-indexed
//	            tables (post, stemPost, gram, ranges, floor) must
//	            consult fresh()/version unless they are
//	            the builder; outside, nobody calls the raw slot
//	            accessors Node.LoadFTIndexCache/StoreFTIndexCache or
//	            names the ftCache field behind them — access goes
//	            through index.For/Probe/Fresh/Attach.
//
//	planpure    the planner and the optimizer never mutate the shared
//	            AST: a parsed module is cached and compiled once but
//	            read by every run, so rewrites must build fresh nodes
//	            (copy-then-modify by value) instead of writing through
//	            *ast.Node pointers. The sanctioned in-place writes are
//	            the planner's: the step annotations (Access/PredPlans
//	            on *ast.Step) it puts on the steps it builds,
//	            plan.Annotate (and annotate, the pass it shares with
//	            plan.Prepare) replacing a module's expression roots
//	            (the body, function bodies, global initialisers) with
//	            their planned forms, and plan.Prepare — the one
//	            installer — putting the optimized roots and the effect
//	            summary beside them (Module.Optimized,
//	            FuncDecl.Optimized, Module.Effects): idempotent or
//	            write-once, and published through
//	            Module.EnsurePlanned's sync.Once before any concurrent
//	            read. The Ship annotation of a
//	            FLWOR or call (ast.ShipPlan) and the Adopt marks of
//	            constructors, insert and replace (fresh content, taken
//	            instead of copied) are the planner's too, on values
//	            rather than through pointers: only a method of the
//	            planner may decide one; everyone else may carry an
//	            existing one onto a copy (x.Ship = y.Ship,
//	            Adopt: y.Adopt) and nothing more.
//
//	storesync   the shard lock discipline of the document store
//	            (internal/xmldb): the raw shard state — the docs
//	            revision map — is only touched inside shard.go, whose
//	            methods uphold the mutex and MVCC publish rules. Every
//	            other file of package xmldb (scans, commits, HTTP
//	            handlers) must go through those methods; a stray
//	            sh.docs[...] elsewhere bypasses the lock.
//
//	pulapply    DOM structural mutation stays behind the pending-update
//	            list: outside internal/dom itself and the PUL applier
//	            (internal/xquery/update), no code may call the
//	            child/attribute-mutating dom.Node methods (AppendChild,
//	            Detach, SetAttr, Rename, ...). A direct call bypasses
//	            snapshot semantics, the undo log that makes applies
//	            atomic, and the version stamp every index probe and the
//	            document-order labels rely on. DOM-owning hosts (core, browser,
//	            jsruntime, markup) build trees before queries see them
//	            and are not scanned. One call in a scanned package is
//	            exempt by name: rest.decodeItem detaches a node payload
//	            from the wire envelope it was just parsed in, a tree no
//	            query has seen either.
//
//	hotconst    a strings.NewReplacer, regexp.MustCompile or
//	            regexp.Compile whose arguments are all constants builds
//	            the same value on every call; inside a function body it
//	            is rebuilt per call (a replacer is a 6 KB table: built
//	            per text node, it was 43 % of a page visit). So is a map
//	            literal whose keys and values are all constants (the
//	            six-entry operator table of xdm.GeneralCompare, built
//	            per comparison, was 7 % of an event turn). The fix is a
//	            package-level var, or a switch. Values computed at run
//	            time are not flagged, nor is func init, which runs once.
//
//	sleeppoll   no time.Sleep inside a for loop: a loop that sleeps until
//	            some state changes waits out timer slack (a 200 µs sleep
//	            lasted close to a millisecond and set the suggest page's
//	            latency) instead of being told; block on a channel or a
//	            sync.Cond. Function literals start a fresh scope. A
//	            bounded backoff between retries is not a poll and is
//	            allow-listed by name (sleepPollExempt).
//
//	recovercheck  panic recovery only happens at sanctioned boundaries:
//	            naked recover() calls are forbidden everywhere except
//	            package xqerr (which implements RecoverInto), package
//	            faultpoint, and the parser's recoverTo. A bare
//	            recover() swallows the panic signal that quarantine
//	            and the failure metrics depend on.
//
// The passes would normally be go/analysis analyzers run through
// `go vet -vettool`, but go/analysis lives in golang.org/x/tools, which
// this repository deliberately does not depend on (builds must work
// with no module downloads). The same checks are implemented here on
// the stdlib go/parser + go/ast surface and run via `go run`:
//
//	go run ./tools/analyzers -check progmutate internal/xquery internal/xquery/runtime
//	go run ./tools/analyzers -check ctxstruct  internal/serve internal/rest
//
// Exit status: 0 clean, 1 if any finding was reported, 2 on bad usage
// or unparsable input.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// finding is one invariant violation.
type finding struct {
	pos token.Position
	msg string
}

func main() {
	check := flag.String("check", "", "pass to run: progmutate, ctxstruct, idxversion, ftversion, planpure, storesync, recovercheck, pulapply, hotconst or sleeppoll")
	flag.Parse()
	if *check == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: analyzers -check {progmutate|ctxstruct|idxversion|ftversion|planpure|storesync|recovercheck|pulapply|hotconst|sleeppoll} dir...")
		os.Exit(2)
	}

	fset := token.NewFileSet()
	var findings []finding
	for _, dir := range flag.Args() {
		files, err := loadDir(fset, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "analyzers: %v\n", err)
			os.Exit(2)
		}
		for _, f := range files {
			switch *check {
			case "progmutate":
				findings = append(findings, progMutate(fset, f)...)
			case "ctxstruct":
				findings = append(findings, ctxStruct(fset, f)...)
			case "idxversion":
				findings = append(findings, idxVersion(fset, f)...)
			case "ftversion":
				findings = append(findings, ftVersion(fset, f)...)
			case "planpure":
				findings = append(findings, planPure(fset, f)...)
			case "storesync":
				findings = append(findings, storeSync(fset, f)...)
			case "recovercheck":
				findings = append(findings, recoverCheck(fset, f)...)
			case "pulapply":
				findings = append(findings, pulApply(fset, f)...)
			case "hotconst":
				findings = append(findings, hotConst(fset, f)...)
			case "sleeppoll":
				findings = append(findings, sleepPoll(fset, f)...)
			default:
				fmt.Fprintf(os.Stderr, "analyzers: unknown check %q\n", *check)
				os.Exit(2)
			}
		}
	}
	for _, f := range findings {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// loadDir parses every non-test Go file directly in dir.
func loadDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// --- progmutate -----------------------------------------------------------------

// guardedTypes are the compiled-program types whose fields are frozen
// after construction.
var guardedTypes = map[string]bool{
	"Program":       true,
	"Engine":        true,
	"sharedProgram": true,
	"Registry":      true,
}

// registryWriters are the Registry methods that may write a registry's
// fields besides its constructors: they check (Register) or set
// (Freeze) the frozen flag that makes a layer safe to share.
var registryWriters = map[string]bool{"Register": true, "Freeze": true}

// constructorName matches functions allowed to write guarded fields:
// constructors, compilers, option builders (whose closures configure a
// not-yet-published Engine) and package init.
var constructorName = regexp.MustCompile(`^(New|Compile|With|init$|MustCompile)`)

// progMutate reports assignments to fields of guarded types outside
// constructor-shaped functions. Detection is syntactic: an identifier
// counts as guarded when it is declared in the enclosing top-level
// function as a receiver, parameter or local of type Program/Engine
// (optionally pointer), including inside function literals.
func progMutate(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if constructorName.MatchString(fd.Name.Name) {
			continue
		}
		guarded := map[string]string{} // ident name -> type name
		bind := func(names []*ast.Ident, typ ast.Expr) {
			if tn, ok := guardedTypeName(typ); ok {
				for _, n := range names {
					guarded[n.Name] = tn
				}
			}
		}
		if fd.Recv != nil {
			for _, f := range fd.Recv.List {
				bind(f.Names, f.Type)
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				for _, f := range x.Type.Params.List {
					bind(f.Names, f.Type)
				}
			case *ast.DeclStmt:
				if gd, ok := x.Decl.(*ast.GenDecl); ok {
					for _, sp := range gd.Specs {
						if vs, ok := sp.(*ast.ValueSpec); ok && vs.Type != nil {
							bind(vs.Names, vs.Type)
						}
					}
				}
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					for i, lhs := range x.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || i >= len(x.Rhs) {
							continue
						}
						if tn, ok := literalTypeName(x.Rhs[i]); ok {
							guarded[id.Name] = tn
						}
					}
				}
			}
			return true
		})
		for _, f := range fd.Type.Params.List {
			bind(f.Names, f.Type)
		}
		if len(guarded) == 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range x.Lhs {
					out = append(out, flagWrite(fset, lhs, guarded, fd.Name.Name)...)
				}
			case *ast.IncDecStmt:
				out = append(out, flagWrite(fset, x.X, guarded, fd.Name.Name)...)
			}
			return true
		})
	}
	return out
}

// guardedTypeName unwraps *T / T and reports T when guarded.
func guardedTypeName(t ast.Expr) (string, bool) {
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name, guardedTypes[x.Name]
	case *ast.SelectorExpr:
		// e.g. runtime.Program from a sibling package.
		return x.Sel.Name, guardedTypes[x.Sel.Name]
	}
	return "", false
}

// literalTypeName recognises x := Program{...} / &Program{...} forms.
func literalTypeName(rhs ast.Expr) (string, bool) {
	if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
		rhs = u.X
	}
	if cl, ok := rhs.(*ast.CompositeLit); ok && cl.Type != nil {
		return guardedTypeName(cl.Type)
	}
	return "", false
}

// flagWrite reports lhs when it is a field selector on a guarded
// identifier, or an element of such a field (r.funcs[k] = v).
func flagWrite(fset *token.FileSet, lhs ast.Expr, guarded map[string]string, fn string) []finding {
	for {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok {
			break
		}
		lhs = ix.X
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	tn, ok := guarded[id.Name]
	if !ok || tn == "Registry" && registryWriters[fn] {
		return nil
	}
	return []finding{{
		pos: fset.Position(lhs.Pos()),
		msg: fmt.Sprintf("progmutate: %s.%s written in %s; %s fields are immutable after construction",
			id.Name, sel.Sel.Name, fn, tn),
	}}
}

// --- ctxstruct ------------------------------------------------------------------

// ctxStruct reports struct fields of type context.Context (including
// embedded ones). context.CancelFunc and parameters are fine — the
// invariant is about storing a request's context beyond its call.
func ctxStruct(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			if isContextContext(f.Type) {
				out = append(out, finding{
					pos: fset.Position(f.Pos()),
					msg: fmt.Sprintf("ctxstruct: struct %s stores a context.Context; pass contexts as parameters instead",
						ts.Name.Name),
				})
			}
		}
		return true
	})
	return out
}

// --- idxversion -----------------------------------------------------------------

// indexMaps are the Doc fields whose contents are only meaningful for
// the document version the index was built at.
var indexMaps = map[string]bool{
	"names": true,
	"ids":   true,
}

// idxBuilderName matches the functions allowed to touch the maps
// without a freshness check: the builder fills maps that are not yet
// published, and constructors shape empty ones.
var idxBuilderName = regexp.MustCompile(`^(build|new|New|init$)`)

// idxVersion enforces the index layer's version-stamp discipline. For
// files in package index, every non-builder function whose body reads a
// selector named names/ids must also mention the freshness guard (a
// fresh() call or a version comparison) somewhere in that body. For
// files in any other package, any call to LoadIndexCache or
// StoreIndexCache is flagged, and so is any mention of the indexCache
// field they wrap outside those two methods: the raw slot bypasses the
// stamp check that index.For/index.Fresh perform, so only package index
// may touch it. In package dom the label word is checked besides
// (labelWordUse).
func idxVersion(fset *token.FileSet, file *ast.File) []finding {
	if file.Name.Name == "index" {
		return idxVersionInside(fset, file)
	}
	return idxVersionOutside(fset, file)
}

func idxVersionInside(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || idxBuilderName.MatchString(fd.Name.Name) {
			continue
		}
		var readsMap, checksVersion bool
		var firstRead token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if indexMaps[x.Sel.Name] && !readsMap {
					readsMap = true
					firstRead = x.Pos()
				}
				if x.Sel.Name == "fresh" || x.Sel.Name == "version" {
					checksVersion = true
				}
			case *ast.Ident:
				if x.Name == "fresh" || x.Name == "version" {
					checksVersion = true
				}
			}
			return true
		})
		if readsMap && !checksVersion {
			out = append(out, finding{
				pos: fset.Position(firstRead),
				msg: fmt.Sprintf("idxversion: %s reads an index map without checking the version stamp (call fresh() first)",
					fd.Name.Name),
			})
		}
	}
	return out
}

func idxVersionOutside(fset *token.FileSet, file *ast.File) []finding {
	out := rawSlotUse(fset, file, "idxversion", "indexCache", "LoadIndexCache", "StoreIndexCache",
		"outside internal/dom/index; use index.For/index.Fresh, which check the version stamp")
	if file.Name.Name == "dom" {
		// A raw read of the label word skips the check that the tree's
		// labels are current; a raw write, their race-free publication.
		out = append(out, fieldUse(fset, file, "label",
			"idxversion: the node's label word touched outside its accessor (labels) and labeler (relabel); use Node.Label, CompareOrder or SortDedup",
			"labels", "relabel")...)
	}
	return out
}

// rawSlotUse flags, in a file outside the package that owns one of the
// per-document cache slots, every use of the slot's accessors load and
// store, and every mention of the slot's field (dom's side struct holds
// it) anywhere but in those two methods' own bodies.
func rawSlotUse(fset *token.FileSet, file *ast.File, pass, field, load, store, advice string) []finding {
	out := fieldUse(fset, file, field,
		fmt.Sprintf("%s: raw slot %s touched outside its accessors %s/%s", pass, field, load, store), load, store)
	ast.Inspect(file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == load || sel.Sel.Name == store) {
			out = append(out, finding{
				pos: fset.Position(sel.Pos()),
				msg: fmt.Sprintf("%s: %s called %s", pass, sel.Sel.Name, advice),
			})
		}
		return true
	})
	return out
}

// fieldUse reports msg at every mention of field — a selector or a
// composite-literal key — outside the bodies of the methods named
// owners.
func fieldUse(fset *token.FileSet, file *ast.File, field, msg string, owners ...string) []finding {
	var out []finding
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && slices.Contains(owners, fd.Name.Name) {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			var id *ast.Ident
			switch x := n.(type) {
			case *ast.SelectorExpr:
				id = x.Sel
			case *ast.KeyValueExpr:
				id, _ = x.Key.(*ast.Ident)
			}
			if id != nil && id.Name == field {
				out = append(out, finding{pos: fset.Position(id.Pos()), msg: msg})
			}
			return true
		})
	}
	return out
}

// --- ftversion ------------------------------------------------------------------

// ftIndexMaps are the full-text Doc fields whose contents are only
// meaningful for the document version the index was built at: the
// posting maps (exact and stemmed), the trigram map backing wildcard
// narrowing, and the two tables read by node label — the byte ranges
// and the split-token floor.
var ftIndexMaps = map[string]bool{
	"post":     true,
	"stemPost": true,
	"gram":     true,
	"ranges":   true,
	"floor":    true,
}

// ftVersion is idxversion's twin for the full-text index layer
// (internal/fulltext/index). Inside the package, every non-builder
// function reading a posting map or a label-indexed table must mention
// the freshness guard in its body; outside, calls to the raw dom cache
// slot accessors
// LoadFTIndexCache/StoreFTIndexCache and mentions of the ftCache field
// they wrap are flagged — all access goes through index.For/index.Probe/index.Fresh/index.Attach, which own the
// version-stamp comparison.
func ftVersion(fset *token.FileSet, file *ast.File) []finding {
	if file.Name.Name == "index" {
		return ftVersionInside(fset, file)
	}
	return ftVersionOutside(fset, file)
}

func ftVersionInside(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || idxBuilderName.MatchString(fd.Name.Name) {
			continue
		}
		var readsMap, checksVersion bool
		var firstRead token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if ftIndexMaps[x.Sel.Name] && !readsMap {
					readsMap = true
					firstRead = x.Pos()
				}
				if x.Sel.Name == "fresh" || x.Sel.Name == "version" {
					checksVersion = true
				}
			case *ast.Ident:
				if x.Name == "fresh" || x.Name == "version" {
					checksVersion = true
				}
			}
			return true
		})
		if readsMap && !checksVersion {
			out = append(out, finding{
				pos: fset.Position(firstRead),
				msg: fmt.Sprintf("ftversion: %s reads a full-text index map without checking the version stamp (call fresh() first)",
					fd.Name.Name),
			})
		}
	}
	return out
}

func ftVersionOutside(fset *token.FileSet, file *ast.File) []finding {
	return rawSlotUse(fset, file, "ftversion", "ftCache", "LoadFTIndexCache", "StoreFTIndexCache",
		"outside internal/fulltext/index; use index.For/index.Probe/index.Fresh, which check the version stamp")
}

func isContextContext(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context" && sel.Sel.Name == "Context"
}

// --- planpure -------------------------------------------------------------------

// planAnnotationFields are the step fields the planner writes in place,
// on steps it has just built. planRootFields are the module's
// expression roots, which plan.Annotate — and nothing else but annotate,
// the pass Annotate and Prepare share — replaces with their planned
// forms; planPreparedFields are the second set of roots and the
// module's effect summary, which plan.Prepare — and nothing else —
// installs. All are
// idempotent or write-once and published through
// Module.EnsurePlanned's sync.Once, so they are the legal pointer
// writes into the shared tree.
var planAnnotationFields = map[string]bool{
	"Access":    true,
	"PredPlans": true,
}

// plannerValueFields are the annotations the planner puts on node
// values (not through pointers): an ast.ShipPlan on a FLWOR or call,
// the adoption marks of a constructor, insert or replace.
var plannerValueFields = map[string]bool{
	"Ship":  true,
	"Adopt": true,
}

var planRootFields = map[string]bool{
	"Body": true, // Module.Body, FuncDecl.Body
	"Init": true, // VarDecl.Init
}

var planPreparedFields = map[string]bool{
	"Optimized": true, // Module.Optimized, FuncDecl.Optimized
	"Effects":   true, // Module.Effects
}

// planPure reports field assignments that reach the shared AST through
// a pointer. In plan, an identifier typed *ast.X (receiver,
// parameter, declared local, or closure parameter) aliases a node of
// the cached parsed module, which concurrent runs read without locks —
// rewrites must copy the node by value and modify the copy. Writes to
// the planner's annotation fields on *ast.Step, Annotate's (and
// annotate's) to the roots of its *ast.Module and Prepare's to the
// optimized roots and the effect summary are exempt (see
// planAnnotationFields).
//
// It also reports writes of the Ship and Adopt annotations that are not
// the planner's (plannerValueFields): such an annotation describes the
// node as the planner saw it — and a wrong Adopt hands out a node two
// places can reach — so outside the planner's methods the only legal
// value for the field is another node's same field (a copy keeping its
// annotation).
func planPure(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		flagAnnotation := func(at token.Pos, field string, val ast.Expr) {
			if sel, carried := val.(*ast.SelectorExpr); recvIsPlanner(fd) || carried && sel.Sel.Name == field {
				return
			}
			out = append(out, finding{
				pos: fset.Position(at),
				msg: fmt.Sprintf("planpure: %s annotation written in %s; only the planner's pass (plan.Annotate) decides it — a rewrite may carry an existing one onto its copy (%s: x.%s)",
					field, fd.Name.Name, field, field),
			})
		}
		guarded := map[string]string{} // ident name -> ast node type name
		bind := func(names []*ast.Ident, typ ast.Expr) {
			if tn, ok := astPtrType(typ); ok {
				for _, n := range names {
					guarded[n.Name] = tn
				}
			}
		}
		if fd.Recv != nil {
			for _, f := range fd.Recv.List {
				bind(f.Names, f.Type)
			}
		}
		for _, f := range fd.Type.Params.List {
			bind(f.Names, f.Type)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				for _, f := range x.Type.Params.List {
					bind(f.Names, f.Type)
				}
			case *ast.DeclStmt:
				if gd, ok := x.Decl.(*ast.GenDecl); ok {
					for _, sp := range gd.Specs {
						if vs, ok := sp.(*ast.ValueSpec); ok && vs.Type != nil {
							bind(vs.Names, vs.Type)
						}
					}
				}
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for i, lhs := range x.Lhs {
					out = append(out, flagASTWrite(fset, lhs, guarded, fd.Name.Name)...)
					field := lhs
					if ix, ok := lhs.(*ast.IndexExpr); ok {
						field = ix.X // x.Adopt[i] = …: a write to the list is a write to the mark
					}
					if sel, ok := field.(*ast.SelectorExpr); ok && plannerValueFields[sel.Sel.Name] && len(x.Rhs) == len(x.Lhs) {
						flagAnnotation(lhs.Pos(), sel.Sel.Name, x.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && plannerValueFields[key.Name] {
							flagAnnotation(kv.Pos(), key.Name, kv.Value)
						}
					}
				}
			case *ast.IncDecStmt:
				out = append(out, flagASTWrite(fset, x.X, guarded, fd.Name.Name)...)
			}
			return true
		})
	}
	return out
}

// recvIsPlanner reports whether fd is a method of *planner, the type
// of plan.Annotate's pass.
func recvIsPlanner(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	st, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := st.X.(*ast.Ident)
	return ok && id.Name == "planner"
}

// astPtrType reports T for a *ast.T type expression, where ast is the
// xquery AST package's import name in the analyzed source.
func astPtrType(t ast.Expr) (string, bool) {
	st, ok := t.(*ast.StarExpr)
	if !ok {
		return "", false
	}
	sel, ok := st.X.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != "ast" {
		return "", false
	}
	return sel.Sel.Name, true
}

// flagASTWrite reports lhs when it writes a field reachable from a
// guarded *ast.X identifier: s.F, s.F.G, s.Slice[i].F and deeper
// chains all root at the same shared node.
func flagASTWrite(fset *token.FileSet, lhs ast.Expr, guarded map[string]string, fn string) []finding {
	field := ""
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		field = sel.Sel.Name
	}
	root := lhs
	depth := 0
	for {
		switch x := root.(type) {
		case *ast.SelectorExpr:
			root, depth = x.X, depth+1
		case *ast.IndexExpr:
			root, depth = x.X, depth+1
		case *ast.ParenExpr:
			root = x.X
		case *ast.StarExpr:
			root = x.X
		default:
			goto done
		}
	}
done:
	id, ok := root.(*ast.Ident)
	if !ok || depth == 0 {
		return nil
	}
	tn, ok := guarded[id.Name]
	if !ok {
		return nil
	}
	if tn == "Step" && depth == 1 && planAnnotationFields[field] {
		return nil // the planner's sanctioned step annotation
	}
	if tn == "Module" && (fn == "Annotate" || fn == "annotate") && planRootFields[field] {
		return nil // the planner installing a planned root
	}
	if tn == "Module" && fn == "Prepare" && planPreparedFields[field] {
		return nil // the one installer of the optimized roots and the summary
	}
	return []finding{{
		pos: fset.Position(lhs.Pos()),
		msg: fmt.Sprintf("planpure: write through *ast.%s (%s) in %s; the parsed AST is shared across runs — copy the node and modify the copy",
			tn, id.Name, fn),
	}}
}

// --- storesync ------------------------------------------------------------------

// storeSync enforces the store's shard lock discipline: in package
// xmldb, the shard's raw docs map (the URI → revision state behind the
// shard mutex) may only be touched by shard.go, whose methods take the
// lock and publish immutable revisions. Any selector named docs in
// another file of the package is flagged — scans, commits and handlers
// must use the shard methods (get/publish/remove/snapshotSorted), which
// cannot skip the mutex or mutate a published revision. Other packages
// cannot reach the unexported field, so the compiler already covers
// them.
func storeSync(fset *token.FileSet, file *ast.File) []finding {
	if file.Name.Name != "xmldb" {
		return nil
	}
	if filepath.Base(fset.Position(file.Package).Filename) == "shard.go" {
		return nil
	}
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name == "docs" {
			out = append(out, finding{
				pos: fset.Position(sel.Pos()),
				msg: "storesync: raw shard docs-map access outside shard.go; use the shard methods, which uphold the lock and MVCC publish discipline",
			})
		}
		return true
	})
	return out
}

// --- recovercheck ---------------------------------------------------------------

// recoverCheck forbids naked recover() calls. Panic recovery is a
// serving-layer contract: a recovered panic must become a typed,
// counted error (xqerr.RecoverInto) so quarantine and the failure
// metrics see it — a bare recover() silently swallows the signal.
// Sanctioned sites: package xqerr (it implements the boundary helper),
// package faultpoint (test scaffolding for injected panics), and the
// parser's recoverTo, which converts its own positioned *Error panics
// and wraps everything else.
func recoverCheck(fset *token.FileSet, file *ast.File) []finding {
	pkg := file.Name.Name
	if pkg == "xqerr" || pkg == "faultpoint" {
		return nil
	}
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if pkg == "parser" && fd.Name.Name == "recoverTo" {
			continue
		}
		fn := fd.Name.Name
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" && len(call.Args) == 0 {
				out = append(out, finding{
					pos: fset.Position(call.Pos()),
					msg: fmt.Sprintf("recovercheck: naked recover() in %s.%s; use xqerr.RecoverInto so the panic becomes a typed, counted internal error",
						pkg, fn),
				})
			}
			return true
		})
	}
	return out
}

// --- pulapply -------------------------------------------------------------------

// domMutators are the dom.Node methods that change tree structure,
// attributes or character data — the operations the pending-update list
// mediates. The read-side surface (Parent, Children, Walk, ...) and the
// event-listener registry are deliberately absent.
var domMutators = map[string]bool{
	"AppendChild":           true,
	"PrependChild":          true,
	"InsertBefore":          true,
	"InsertAfter":           true,
	"Detach":                true,
	"ReplaceChild":          true,
	"SetAttr":               true,
	"AddAttrNode":           true,
	"RestoreChildAt":        true,
	"RestoreAttrAt":         true,
	"RemoveAttr":            true,
	"Rename":                true,
	"SetData":               true,
	"ReplaceElementContent": true,
	"RemoveChildren":        true,
	"AdoptChildren":         true,
	"AdoptAttrs":            true,
}

// pulApplyExempt names, as package.function, the functions allowed one
// mutator on a tree they have just parsed themselves and not yet handed
// to anyone.
var pulApplyExempt = map[string]string{
	"rest.decodeItem": "Detach",
}

// pulApply reports calls to child/attr-mutating dom methods outside the
// two packages allowed to make them: dom itself and the PUL applier
// (package update). Selectors on imported package names are skipped so
// os.Rename or a kind constant like update.Rename never trip the check;
// beyond that the match is name-based, like the other passes — the
// scanned packages hold no unrelated types sharing these method names.
func pulApply(fset *token.FileSet, file *ast.File) []finding {
	pkg := file.Name.Name
	if pkg == "dom" || pkg == "update" {
		return nil
	}
	imported := map[string]bool{}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndexByte(path, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imported[name] = true
	}
	var out []finding
	for _, decl := range file.Decls {
		exempt := ""
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
			exempt = pulApplyExempt[pkg+"."+fd.Name.Name]
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !domMutators[sel.Sel.Name] || sel.Sel.Name == exempt {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && imported[id.Name] {
				return true // package-qualified function, not a node method
			}
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("pulapply: direct DOM mutation %s in package %s; route the write through a pending-update list (internal/xquery/update) so it stays atomic, undoable and version-stamped",
					sel.Sel.Name, pkg),
			})
			return true
		})
	}
	return out
}

// --- hotconst -------------------------------------------------------------------

// onlyIndexed reports whether every use of the local def in body, its
// definition aside, is a lookup def[k]: the map is never written,
// ranged over, passed on or stored, so building it once would do. A
// same-named variable in a nested scope counts as a use of def, which
// errs towards not reporting.
func onlyIndexed(body ast.Node, def *ast.Ident) bool {
	lookups := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if id, ok := ix.X.(*ast.Ident); ok {
						lookups[id] = false // a write
					}
				}
			}
		case *ast.IndexExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, written := lookups[id]; !written {
					lookups[id] = true
				}
			}
		}
		return true
	})
	only := true
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id != def && id.Name == def.Name && !lookups[id] {
			only = false
		}
		return only
	})
	return only
}

// hotConstructors are the constructors whose result depends only on
// their arguments and is costly enough to build once.
var hotConstructors = map[string]map[string]bool{
	"strings": {"NewReplacer": true},
	"regexp":  {"MustCompile": true, "Compile": true},
}

// hotConst reports calls to a hot constructor with all-constant
// arguments, and non-empty map literals with all-constant keys and
// values, inside a function body (function literals included, func
// init excepted). Constants are literals, true/false/nil, the file's
// own named constants, and concatenations of those.
func hotConst(fset *token.FileSet, file *ast.File) []finding {
	pkgOf := map[string]string{} // local import name -> path, for the packages of interest
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if hotConstructors[path] == nil {
			continue
		}
		name := path
		if imp.Name != nil {
			name = imp.Name.Name
		}
		pkgOf[name] = path
	}
	consts := map[string]bool{"true": true, "false": true, "nil": true}
	ast.Inspect(file, func(n ast.Node) bool {
		if gd, ok := n.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					consts[name.Name] = true
				}
			}
		}
		return true
	})
	var isConst func(ast.Expr) bool
	isConst = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.BasicLit:
			return true
		case *ast.Ident:
			return consts[e.Name]
		case *ast.ParenExpr:
			return isConst(e.X)
		case *ast.BinaryExpr:
			return e.Op == token.ADD && isConst(e.X) && isConst(e.Y)
		}
		return false
	}
	constMap := func(lit *ast.CompositeLit) bool {
		if _, ok := lit.Type.(*ast.MapType); !ok || len(lit.Elts) == 0 {
			return false
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok || !isConst(kv.Key) || !isConst(kv.Value) {
				return false
			}
		}
		return true
	}
	var out []finding
	flagMap := func(lit ast.Expr) {
		out = append(out, finding{
			pos: fset.Position(lit.Pos()),
			msg: "hotconst: a map literal of constants that is only read is rebuilt on every call of the enclosing function; hoist it into a package-level var or use a switch",
		})
	}
	check := func(body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.IndexExpr:
				if lit, ok := x.X.(*ast.CompositeLit); ok && constMap(lit) {
					flagMap(lit) // map[K]V{...}[k]
				}
			case *ast.AssignStmt:
				if x.Tok != token.DEFINE || len(x.Lhs) != 1 || len(x.Rhs) != 1 {
					break
				}
				id, isID := x.Lhs[0].(*ast.Ident)
				lit, isLit := x.Rhs[0].(*ast.CompositeLit)
				if isID && isLit && constMap(lit) && onlyIndexed(body, id) {
					flagMap(lit) // m := map[K]V{...}; ... m[k] ...
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || call.Ellipsis.IsValid() {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !hotConstructors[pkgOf[id.Name]][sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				if !isConst(arg) {
					return true
				}
			}
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("hotconst: %s.%s with constant arguments is rebuilt on every call of the enclosing function; hoist it into a package-level var",
					id.Name, sel.Sel.Name),
			})
			return true
		})
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body != nil && !(d.Recv == nil && d.Name.Name == "init") {
				check(d.Body)
			}
		case *ast.GenDecl:
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					check(lit.Body)
					return false
				}
				return true
			})
		}
	}
	return out
}

// --- sleeppoll ------------------------------------------------------------------

// sleepPollExempt names, as package.function, the functions whose loop
// may sleep. runtime.resolveWithRetry sleeps a doubling backoff between
// a bounded number of import retries: it waits on a remote resolver's
// recovery, which no local event announces, and the retry count caps it.
var sleepPollExempt = map[string]bool{
	"runtime.resolveWithRetry": true,
}

// sleepPoll reports time.Sleep calls inside the body of a for or range
// loop of the same function. A function literal's body is judged on
// its own, so a goroutine started in a loop may sleep once.
func sleepPoll(fset *token.FileSet, file *ast.File) []finding {
	timePkg := ""
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == "time" {
			timePkg = "time"
			if imp.Name != nil {
				timePkg = imp.Name.Name
			}
		}
	}
	if timePkg == "" {
		return nil
	}
	pkg := file.Name.Name
	var out []finding
	var visit func(n ast.Node, fn string, inLoop bool)
	visit = func(n ast.Node, fn string, inLoop bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			switch x := c.(type) {
			case *ast.FuncLit:
				visit(x.Body, fn, false)
				return false
			case *ast.ForStmt:
				visit(x.Body, fn, true)
				return false
			case *ast.RangeStmt:
				visit(x.Body, fn, true)
				return false
			case *ast.CallExpr:
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Sleep" || !inLoop {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == timePkg {
					out = append(out, finding{
						pos: fset.Position(x.Pos()),
						msg: fmt.Sprintf("sleeppoll: time.Sleep in a loop in %s.%s polls for a state change; block on a channel or a sync.Cond that the change signals",
							pkg, fn),
					})
				}
			}
			return true
		})
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body != nil && !sleepPollExempt[pkg+"."+d.Name.Name] {
				visit(d.Body, d.Name.Name, false)
			}
		case *ast.GenDecl:
			visit(d, "(package var)", false)
		}
	}
	return out
}
