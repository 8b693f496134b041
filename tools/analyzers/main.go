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
//	idxversion  the version-stamp discipline of the per-document
//	            indexes, keyed by package path (both are named index):
//	            in internal/dom/index a function reading the name
//	            map, and in internal/fulltext/index one reading the
//	            posting maps or the label-indexed tables (post,
//	            stemPost, ranges, floor), must consult the version
//	            stamp (call fresh() or compare version) unless it is the
//	            builder. Elsewhere, dom's slot constants are named
//	            only by the package that owns the slot
//	            (dom.PathIndexSlot by internal/dom/index,
//	            dom.FTIndexSlot by internal/fulltext/index). In package
//	            dom, the root's index slots
//	            (nodeSide.indexes) and their entries (indexEntry) are
//	            named only in lifecycle.go, which keeps, judges and
//	            rebuilds every index (dom.Index), and in RestoreVersion,
//	            which drops them on rollback; and the node's
//	            document-order label word is read by its accessor
//	            (labels) and written by its labeler (relabel) only:
//	            everyone else goes through Node.Label, CompareOrder or
//	            SortDedup, which make the labels current first. The
//	            id map (the root's nodeSide.idmap and the map's holder
//	            and nextHolder fields) is touched by its builder,
//	            accessor, lookup and maintenance methods only (ids.go):
//	            a mutator that wrote it directly would bypass the
//	            maintenance that keeps it current; mutators go through
//	            attached, leaving or the map's own methods.
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
//	            installer — putting the binding table, the optimized
//	            roots and the effect summary beside them
//	            (Module.Bindings, Module.Optimized,
//	            FuncDecl.Optimized, Module.Effects): idempotent or
//	            write-once, and published through
//	            Module.EnsurePlanned's sync.Once before any concurrent
//	            read. The Ship annotation of a
//	            FLWOR or call (ast.ShipPlan), the Adopt marks of
//	            constructors, insert and replace (fresh content, taken
//	            instead of copied), the StreamDomain mark of a FLWOR
//	            or quantifier and the resolved literal selection of an
//	            ftcontains (LitSel) are the planner's too, on values
//	            rather than through pointers: only a method of the
//	            planner may decide one; everyone else may carry an
//	            existing one onto a copy (x.Ship = y.Ship,
//	            Adopt: y.Adopt) and nothing more.
//
//	storesync   the shard lock discipline of the document store
//	            (internal/xmldb): the raw shard state — the docs
//	            revision map and the colSnaps snapshot cache — is only
//	            touched inside shard.go, whose methods uphold the mutex,
//	            the MVCC publish rules and the cache's invalidation.
//	            Every other file of package xmldb (scans, commits, HTTP
//	            handlers) must go through those methods; a stray
//	            sh.docs[...] or sh.colSnaps[...] elsewhere bypasses the
//	            lock.
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
//	            and are not held to this rule. The same pass keeps
//	            one apply path: outside the list's own package and the
//	            evaluator (internal/xquery/update and
//	            internal/xquery/runtime, by path), no code calls a
//	            list's Apply or ApplyPruned — hosts go through
//	            runtime.Context.Finish. This rule covers the DOM hosts
//	            core and apps too.
//
//	hotconst    a strings.NewReplacer, regexp.MustCompile or
//	            regexp.Compile whose arguments are all constants builds
//	            the same value on every call; inside a function body it
//	            is rebuilt per call (a replacer is a 6 KB table: built
//	            per text node, it was 43 % of a page visit). So is a map
//	            literal whose keys and values are all constants (the
//	            six-entry operator table of xdm's general comparison, built
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
//	frames      the evaluator's single-owner state in package runtime
//	            (internal/xquery/runtime): an env frame's box — a
//	            variable's value — is written only by bind, which makes
//	            the frame, by the loop helper that rebinds a loop's frames
//	            for its next item (bindAt), and by the scripting
//	            assignment (evalAssign); a stray write would change a
//	            value some tuple or behind call still reads. And Budget's
//	            lease, the owner goroutine's unsynchronized step count,
//	            is named only in budget.go, whose Step and draw keep it
//	            to its owner. The run's resolvers are read through its
//	            document memo: outside runtime's memo.go no code of the
//	            scanned packages (runtime, and funclib, whose fn:doc,
//	            fn:doc-available and fn:collection go through
//	            Context.Doc and Context.Collection) calls Docs(…) or
//	            Collections.Documents(…); a direct call hands out a tree
//	            the memo does not know, which breaks doc("u") is doc("u")
//	            and every join and hoist the optimizer built over it.
//	            In every package it scans (runtime, funclib, xquery,
//	            core), a run's fields — runtime.Run's, and a Context's
//	            Run — are written only where a run is made or derived:
//	            in NewContext, in Derive and in the edit a Derive call is
//	            given. Every Context copy shares its run, so a write
//	            anywhere else reaches the run of the evaluation the copy
//	            came from (ctx.PUL = nil after ContextFor drops the
//	            caller's pending list).
//
//	seqwrite    no code of the evaluator (internal/xquery/runtime) or the
//	            library (internal/xquery/funclib) writes into a sequence
//	            it was handed: what Eval or Materialize returned, a
//	            variable's binding (a Box's Val), a literal's prebuilt
//	            sequence (ast.StringLit's Seq or Value()), a function's
//	            arguments, the shared boolean results (xdm.True,
//	            xdm.False, xdm.Bool) and a loop's cells (loopDomain's
//	            nextCell and holdCell). Those share their backing array
//	            with a binding, a literal every run of a cached program
//	            reads, every other boolean result, an item bound in an
//	            earlier loop turn, or the caller's own value. The pass flags an index
//	            assignment into such a sequence (s[i] = v, s[i]++), an
//	            in-place sort, reverse or copy into it, and an append
//	            onto it, which writes into its spare capacity; a copy
//	            (slices.Clone, append(nil, s...)) is the caller's own.
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
	check := flag.String("check", "", "pass to run: progmutate, ctxstruct, idxversion, planpure, storesync, recovercheck, pulapply, hotconst, sleeppoll, frames or seqwrite")
	flag.Parse()
	if *check == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: analyzers -check {progmutate|ctxstruct|idxversion|planpure|storesync|recovercheck|pulapply|hotconst|sleeppoll|frames|seqwrite} dir...")
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
			case "frames":
				findings = append(findings, frames(fset, f)...)
			case "seqwrite":
				findings = append(findings, seqWrite(fset, f)...)
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

// guardedFields maps each per-document index package, by path (both are
// named index), to the Doc fields whose contents hold only for the tree
// version the index was built at: the path index's name map;
// the full-text index's posting maps (exact and stemmed) and the two
// tables read by node label (the byte ranges and the split-token floor).
var guardedFields = map[string]map[string]bool{
	"internal/dom/index":      {"names": true},
	"internal/fulltext/index": {"post": true, "stemPost": true, "ranges": true, "floor": true},
}

// idxBuilderName matches the functions allowed to touch the guarded
// fields without a freshness check: the builder fills fields that are
// not yet published, and constructors shape empty ones.
var idxBuilderName = regexp.MustCompile(`^(build|new|New|init$)`)

// idxVersion enforces the version-stamp discipline of the per-document
// indexes. In an index package, every non-builder function whose body
// reads a guarded field must also mention the freshness guard (a
// fresh() call or a version comparison) somewhere in that body; outside
// package dom, a slot constant is named by its owner only
// (slotOwnerUse). In package dom, the index slots and their entries are
// touched by the lifecycle file and RestoreVersion only (slotUse), the
// label word by its accessor and labeler only, and the id map's fields
// by its own methods only (idMapFields).
func idxVersion(fset *token.FileSet, file *ast.File) []finding {
	filename := fset.Position(file.Pos()).Filename
	dir := filepath.ToSlash(filepath.Dir(filename))
	if file.Name.Name != "dom" {
		out := slotOwnerUse(fset, file, dir)
		for pkg, fields := range guardedFields {
			if inPackage(dir, pkg) {
				out = append(out, guardedReads(fset, file, fields)...)
			}
		}
		return out
	}
	out := slotUse(fset, file, filepath.Base(filename))
	// A raw read of the label word skips the check that the tree's
	// labels are current; a raw write, their race-free publication.
	out = append(out, fieldUse(fset, file, "label",
		"idxversion: the node's label word touched outside its accessor (labels) and labeler (relabel); use Node.Label, CompareOrder or SortDedup",
		"labels", "relabel")...)
	// The id map stays current only because every change to it goes
	// through its maintenance; a direct write skips that, and a direct
	// read skips the build.
	for _, field := range idMapFields {
		out = append(out, fieldUse(fset, file, field,
			"idxversion: the id map's "+field+" touched outside its builder, lookup and maintenance (ids.go); mutate through attached/leaving or the map's methods, read through AppendByID or ElementByID",
			idMapOwners...)...)
	}
	return out
}

// idMapFields are the id map's fields in package dom: the root's pointer
// to it and the map's two tables. idMapOwners are the methods that may
// touch them: the accessor (ids), the builder, the drop, the lookup and
// the maintenance.
var (
	idMapFields = []string{"idmap", "holder", "nextHolder"}
	idMapOwners = []string{"ids", "buildIDMap", "dropIDMap", "lookup", "addID", "removeID", "addTree", "removeTree"}
)

func guardedReads(fset *token.FileSet, file *ast.File, fields map[string]bool) []finding {
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || idxBuilderName.MatchString(fd.Name.Name) {
			continue
		}
		var readsField, checksVersion bool
		var firstRead token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if fields[x.Sel.Name] && !readsField {
					readsField = true
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
		if readsField && !checksVersion {
			out = append(out, finding{
				pos: fset.Position(firstRead),
				msg: fmt.Sprintf("idxversion: %s reads an index field without checking the version stamp (call fresh() first)",
					fd.Name.Name),
			})
		}
	}
	return out
}

// slotOwners maps each of dom's index slot constants to the one
// package, by path, whose lifecycle keeps its index in that slot.
var slotOwners = map[string]string{
	"PathIndexSlot": "internal/dom/index",
	"FTIndexSlot":   "internal/fulltext/index",
}

func inPackage(dir, pkg string) bool {
	return dir == pkg || strings.HasSuffix(dir, "/"+pkg)
}

// slotOwnerUse flags, outside package dom, every mention of an index
// slot constant outside the package that owns the slot: a second
// dom.Index on that slot would read and publish the owner's index with
// another builder, past the owner's For, Probe and Fresh.
func slotOwnerUse(fset *token.FileSet, file *ast.File, dir string) []finding {
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if owner, ok := slotOwners[sel.Sel.Name]; ok && !inPackage(dir, owner) {
			out = append(out, finding{
				pos: fset.Position(sel.Sel.Pos()),
				msg: fmt.Sprintf("idxversion: index slot %s named outside %s; use its For, Probe or Fresh", sel.Sel.Name, owner),
			})
		}
		return true
	})
	return out
}

// slotUse flags, in a file of package dom other than lifecycle.go,
// every mention of the root's index slots (nodeSide.indexes) or of
// their entry type (indexEntry) inside a function other than
// RestoreVersion: the lifecycle decides what a slot holds and when it
// is current, and a rollback is the one other writer. The slots'
// declaration in nodeSide is not a function and is not flagged.
func slotUse(fset *token.FileSet, file *ast.File, base string) []finding {
	if base == "lifecycle.go" {
		return nil
	}
	var out []finding
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name == "RestoreVersion" {
			continue
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			var id *ast.Ident
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if x.Sel.Name == "indexes" {
					id = x.Sel
				}
			case *ast.KeyValueExpr:
				if k, ok := x.Key.(*ast.Ident); ok && k.Name == "indexes" {
					id = k
				}
			case *ast.Ident:
				if x.Name == "indexEntry" {
					id = x
				}
			}
			if id != nil {
				out = append(out, finding{
					pos: fset.Position(id.Pos()),
					msg: fmt.Sprintf("idxversion: index slot %s touched outside lifecycle.go and RestoreVersion; use dom.Index", id.Name),
				})
			}
			return true
		})
	}
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
// forms; planPreparedFields are the binding table, the second set of
// roots and the module's effect summary, which plan.Prepare — and
// nothing else — installs. All are
// idempotent or write-once and published through
// Module.EnsurePlanned's sync.Once, so they are the legal pointer
// writes into the shared tree.
var planAnnotationFields = map[string]bool{
	"Access":    true,
	"PredPlans": true,
}

// plannerValueFields are the annotations the planner puts on node
// values (not through pointers): an ast.ShipPlan on a FLWOR or call,
// the adoption marks of a constructor, insert or replace, the
// streaming mark of a FLWOR's or quantifier's domains, the resolved
// literal selection of an ftcontains.
var plannerValueFields = map[string]bool{
	"Ship":         true,
	"Adopt":        true,
	"StreamDomain": true,
	"LitSel":       true,
}

var planRootFields = map[string]bool{
	"Body": true, // Module.Body, FuncDecl.Body
	"Init": true, // VarDecl.Init
}

var planPreparedFields = map[string]bool{
	"Bindings":  true, // Module.Bindings
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
// binding table, the optimized roots and the effect summary are exempt (see
// planAnnotationFields).
//
// It also reports writes of the Ship, Adopt, StreamDomain and LitSel
// annotations that are not the planner's (plannerValueFields): such an
// annotation describes the node as the planner saw it — a wrong Adopt
// hands out a node two places can reach, a wrong StreamDomain lets a
// loop see its own updates, a wrong LitSel matches other words — so
// outside the planner's methods the only legal value for the field is
// another node's same field (a copy keeping its annotation).
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
// shard mutex) and its colSnaps snapshot cache may only be touched by
// shard.go, whose methods take the lock, publish immutable revisions
// and drop the snapshots a commit supersedes. Any selector named docs
// or colSnaps in another file of the package is flagged — scans,
// commits and handlers must use the shard methods
// (get/publish/remove/colSnapshot/snapshotSorted), which cannot skip
// the mutex, mutate a published revision or keep a stale snapshot.
// Other packages cannot reach the unexported fields, so the compiler
// already covers them.
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
		switch sel.Sel.Name {
		case "docs":
			out = append(out, finding{
				pos: fset.Position(sel.Pos()),
				msg: "storesync: raw shard docs-map access outside shard.go; use the shard methods, which uphold the lock and MVCC publish discipline",
			})
		case "colSnaps":
			out = append(out, finding{
				pos: fset.Position(sel.Pos()),
				msg: "storesync: raw shard snapshot-cache access outside shard.go; use colSnapshot, which holds the lock and caches only what no commit superseded",
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
// mediates — and dom.Recorder.Adopt, which gives a parentless tree a
// parent when its recording is built. The read-side surface (Parent,
// Children, Walk, ...) and the event-listener registry are deliberately
// absent.
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
	"Adopt":                 true,
}

// pulApplyMethods are the pending-update-list methods that apply it.
var pulApplyMethods = map[string]bool{"Apply": true, "ApplyPruned": true}

// pulAppliers are the packages, by path, that may apply a pending
// update list: the list's own and the evaluator, whose apply path
// (runtime.Context.Finish) every run goes through.
var pulAppliers = []string{"internal/xquery/update", "internal/xquery/runtime"}

// domHosts are the packages, by path, that own DOM trees and build them
// before queries see them: scanned for the apply rule only.
var domHosts = []string{"internal/core", "internal/apps"}

// pulApply reports calls to child/attr-mutating dom methods outside the
// two packages allowed to make them, dom itself and the PUL applier
// (package update), and in the DOM hosts; and calls that apply a
// pending update list outside pulAppliers. Selectors on imported
// package names are skipped so os.Rename or a kind constant like
// update.Rename never trip the check; beyond that the match is
// name-based, like the other passes — the scanned packages hold no
// unrelated types sharing these method names.
func pulApply(fset *token.FileSet, file *ast.File) []finding {
	pkg := file.Name.Name
	dir := filepath.ToSlash(filepath.Dir(fset.Position(file.Pos()).Filename))
	in := func(pkgs []string) bool {
		return slices.ContainsFunc(pkgs, func(p string) bool { return inPackage(dir, p) })
	}
	mutations := pkg != "dom" && pkg != "update" && !in(domHosts)
	applies := !in(pulAppliers)
	if !mutations && !applies {
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
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && imported[id.Name] {
			return true // package-qualified function, not a method
		}
		name := sel.Sel.Name
		switch {
		case applies && pulApplyMethods[name]:
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("pulapply: pending updates applied with %s in package %s; a run applies through its one apply path (runtime.Context.Finish), which counts, observes and profiles every apply",
					name, pkg),
			})
		case mutations && domMutators[name]:
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("pulapply: direct DOM mutation %s in package %s; route the write through a pending-update list (internal/xquery/update) so it stays atomic, undoable and version-stamped",
					name, pkg),
			})
		}
		return true
	})
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

// --- frames ---------------------------------------------------------------------

// frameWriters are the functions of package runtime that may write a
// variable frame's box: bind makes a frame, bindAt rebinds a loop's
// frames for its next item, evalAssign is the scripting assignment.
var frameWriters = map[string]bool{"bind": true, "bindAt": true, "evalAssign": true}

// frames enforces, in package runtime, who writes a frame's box and who
// names Budget's lease. A box write is an assignment through a selector
// named box (f.box.Val = v, f.box = b), an assignment to a Val field (a
// write through the *Box a lookup hands out), or a box: key in a frame
// literal; outside frameWriters each is flagged. Any mention of lease
// outside budget.go is flagged. In every package it is run on, a call
// of the run's resolvers outside runtime's memo.go is flagged
// (resolverCalls).
func frames(fset *token.FileSet, file *ast.File) []finding {
	name := filepath.Base(fset.Position(file.Package).Filename)
	var out []finding
	if file.Name.Name != "runtime" || name != "memo.go" {
		out = resolverCalls(fset, file)
	}
	out = append(out, runWrites(fset, file)...)
	if file.Name.Name != "runtime" {
		return out
	}
	if name != "budget.go" {
		out = append(out, fieldUse(fset, file, "lease",
			"frames: Budget's lease named outside budget.go; only Step and draw, on the owner goroutine, touch it (another goroutine steps a Fork)")...)
	}
	for _, decl := range file.Decls {
		fn := "(package var)"
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if frameWriters[fd.Name.Name] {
				continue
			}
			fn = fd.Name.Name
		}
		flag := func(at ast.Node) {
			out = append(out, finding{
				pos: fset.Position(at.Pos()),
				msg: fmt.Sprintf("frames: a variable frame's box written in %s; only bind, the loop rebinding (bindAt) and evalAssign write one", fn),
			})
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range x.Lhs {
					if writesBox(lhs) {
						flag(lhs)
					}
				}
			case *ast.IncDecStmt:
				if writesBox(x.X) {
					flag(x.X)
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok && id.Name == "box" {
					flag(x)
				}
			}
			return true
		})
	}
	return out
}

// resolverCalls flags the calls x.Docs(…) and x.Collections.Documents(…):
// the run's resolvers, which only its document memo asks.
func resolverCalls(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		via, isSel := sel.X.(*ast.SelectorExpr)
		if sel.Sel.Name == "Docs" || sel.Sel.Name == "Documents" && isSel && via.Sel.Name == "Collections" {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("frames: the run's resolver called directly (%s) in package %s; go through Context.Doc or Context.Collection, the run's document memo, so each URI answers one tree per run",
					sel.Sel.Name, file.Name.Name),
			})
		}
		return true
	})
	return out
}

// runFields are the fields of runtime.Run, and Run itself, the field of
// a Context that points at its run.
var runFields = map[string]bool{
	"Ambient": true, "Docs": true, "Collections": true, "Hooks": true, "Now": true,
	"PUL": true, "Profiler": true, "Budget": true, "IO": true,
	"NoIndex": true, "NoIndexBuild": true, "Run": true,
}

// runMakers are the functions that make or derive a run.
var runMakers = map[string]bool{"NewContext": true, "Derive": true}

// runWrites flags an assignment to a run's field outside the functions
// that make or derive a run (runMakers, and a function literal handed
// to a Derive call, which edits the run Derive made). Every Context
// copy shares its run, so a write anywhere else reaches the run of the
// evaluation the copy was taken from: ctx.PUL = nil on a context that
// ContextFor made is the caller's list gone.
func runWrites(fset *token.FileSet, file *ast.File) []finding {
	edits := map[*ast.FuncLit]bool{} // a call is visited before its arguments
	var out []finding
	for _, decl := range file.Decls {
		fn := "(package var)"
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if runMakers[fd.Name.Name] {
				continue
			}
			fn = fd.Name.Name
		}
		check := func(lhs ast.Expr) {
			if sel, ok := lhs.(*ast.SelectorExpr); ok && runFields[sel.Sel.Name] {
				out = append(out, finding{
					pos: fset.Position(lhs.Pos()),
					msg: fmt.Sprintf("frames: a run's %s written in %s; only NewContext, Derive and the edit given to Derive write a run (a write elsewhere reaches a run other frames share)",
						sel.Sel.Name, fn),
				})
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Derive" {
					for _, arg := range x.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							edits[lit] = true
						}
					}
				}
			case *ast.FuncLit:
				return !edits[x]
			case *ast.AssignStmt:
				if x.Tok != token.DEFINE {
					for _, lhs := range x.Lhs {
						check(lhs)
					}
				}
			case *ast.IncDecStmt:
				check(x.X)
			}
			return true
		})
	}
	return out
}

// writesBox reports whether an assignment target is a box or a Box's
// value: its outermost selector is Val, or a selector on its way to the
// root is box.
func writesBox(lhs ast.Expr) bool {
	if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Val" {
		return true
	}
	for {
		switch x := lhs.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "box" {
				return true
			}
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		default:
			return false
		}
	}
}

// --- seqwrite -------------------------------------------------------------------

// handingOut are the calls whose result is a sequence the caller was
// handed, not one it made: an evaluation's value, a drained iterator's
// (which may be the slice behind it), what an iterator was made from,
// a literal's prebuilt sequence, a shared boolean result and a loop's
// cell.
var handingOut = map[string]bool{
	"Eval": true, "Materialize": true, "MaterializeAtMost": true, "Unpulled": true, "Value": true,
	"Bool": true, "nextCell": true, "holdCell": true,
}

// sharedSeqs are the package-level sequences of xdm every caller shares.
var sharedSeqs = map[string]bool{"True": true, "False": true}

// inPlace are the package functions that write into their first
// argument.
var inPlace = map[string]map[string]bool{
	"slices": {"Reverse": true, "Sort": true, "SortFunc": true, "SortStableFunc": true},
	"sort":   {"Slice": true, "SliceStable": true},
}

// seqWrite flags writes into a sequence a function was handed (see the
// seqwrite entry above). Detection is syntactic and per function: a
// name is handed a sequence when it is a parameter of type
// xdm.Sequence, or is assigned one of handingOut's results, a Val or
// Seq selector, xdm.True or xdm.False, an element of a []xdm.Sequence
// parameter, or a slice of
// another such name; a write through such a name, or through any of
// those expressions, is flagged.
func seqWrite(fset *token.FileSet, file *ast.File) []finding {
	var out []finding
	for _, decl := range file.Decls {
		fn, body := "(package var)", ast.Node(decl)
		fd, isFunc := decl.(*ast.FuncDecl)
		if isFunc {
			if fd.Body == nil {
				continue
			}
			fn, body = fd.Name.Name, fd.Body
		}
		handed := map[string]bool{} // names bound to a handed-out sequence
		lists := map[string]bool{}  // names of []xdm.Sequence parameters
		params := func(ft *ast.FuncType) {
			for _, f := range ft.Params.List {
				for _, n := range f.Names {
					switch {
					case isSeqType(f.Type):
						handed[n.Name] = true
					case isSeqListType(f.Type):
						lists[n.Name] = true
					}
				}
			}
		}
		var isHanded func(e ast.Expr) bool
		isHanded = func(e ast.Expr) bool {
			switch x := e.(type) {
			case *ast.ParenExpr:
				return isHanded(x.X)
			case *ast.SliceExpr:
				return isHanded(x.X)
			case *ast.Ident:
				return handed[x.Name]
			case *ast.IndexExpr:
				id, ok := x.X.(*ast.Ident)
				return ok && lists[id.Name]
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "xdm" && sharedSeqs[x.Sel.Name] {
					return true
				}
				return x.Sel.Name == "Val" || x.Sel.Name == "Seq"
			case *ast.CallExpr:
				switch callee := x.Fun.(type) {
				case *ast.SelectorExpr:
					return handingOut[callee.Sel.Name] && (callee.Sel.Name != "Value" || len(x.Args) == 0)
				case *ast.Ident:
					return handingOut[callee.Name] && callee.Name != "Value"
				}
			}
			return false
		}
		if isFunc {
			params(fd.Type)
		}
		// Bind first, to a fixed point: a name handed a sequence stays
		// handed for the whole function, wherever it is assigned.
		for changed := true; changed; {
			changed = false
			ast.Inspect(body, func(n ast.Node) bool {
				bind := func(name *ast.Ident, rhs ast.Expr) {
					if name.Name != "_" && !handed[name.Name] && isHanded(rhs) {
						handed[name.Name], changed = true, true
					}
				}
				switch x := n.(type) {
				case *ast.FuncLit:
					params(x.Type)
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						id, ok := lhs.(*ast.Ident)
						switch {
						case !ok:
						case len(x.Rhs) == len(x.Lhs):
							bind(id, x.Rhs[i])
						case len(x.Rhs) == 1 && i == 0:
							bind(id, x.Rhs[0])
						}
					}
				case *ast.ValueSpec:
					for i, id := range x.Names {
						if i < len(x.Values) {
							bind(id, x.Values[i])
						}
					}
				case *ast.RangeStmt:
					// for _, s := range args: each element is an argument.
					if v, ok := x.Value.(*ast.Ident); ok {
						if l, ok := x.X.(*ast.Ident); ok && lists[l.Name] {
							bind(v, &ast.IndexExpr{X: l})
						}
					}
				}
				return true
			})
		}
		flag := func(at ast.Node, how string) {
			out = append(out, finding{
				pos: fset.Position(at.Pos()),
				msg: fmt.Sprintf("seqwrite: %s in %s writes into a sequence it was handed (an evaluation's value, a binding, a literal or an argument), which others read too; copy it first", how, fn),
			})
		}
		written := func(lhs ast.Expr) bool {
			ix, ok := lhs.(*ast.IndexExpr)
			return ok && isHanded(ix.X)
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range x.Lhs {
					if written(lhs) {
						flag(lhs, "an index assignment")
					}
				}
			case *ast.IncDecStmt:
				if written(x.X) {
					flag(x.X, "an index assignment")
				}
			case *ast.CallExpr:
				if len(x.Args) == 0 || !isHanded(x.Args[0]) {
					return true
				}
				switch callee := x.Fun.(type) {
				case *ast.Ident:
					if callee.Name == "append" || callee.Name == "copy" {
						flag(x, callee.Name)
					}
				case *ast.SelectorExpr:
					if pkg, ok := callee.X.(*ast.Ident); ok && inPlace[pkg.Name][callee.Sel.Name] {
						flag(x, pkg.Name+"."+callee.Sel.Name)
					}
				}
			}
			return true
		})
	}
	return out
}

// isSeqType reports whether t is xdm.Sequence.
func isSeqType(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "xdm" && sel.Sel.Name == "Sequence"
}

// isSeqListType reports whether t is []xdm.Sequence.
func isSeqListType(t ast.Expr) bool {
	at, ok := t.(*ast.ArrayType)
	return ok && at.Len == nil && isSeqType(at.Elt)
}
