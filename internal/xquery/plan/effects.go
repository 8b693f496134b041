package plan

import "repro/internal/xquery/ast"

// What the optimizer must know about effects that are visible before
// an expression has finished (the rules are in optimize.go's header).
// Pending updates are not among them — they apply after the query, or,
// under scripting snapshots, between the statements of a block and the
// turns of a while loop, which is why the scripting constructs are.

// isScripting reports whether e is itself a construct of the scripting
// extension. The list is explicit: a new ast kind is not scripting
// until it is added here (and to the table test).
func isScripting(e ast.Expr) bool {
	switch e.(type) {
	case ast.Block, ast.BlockDecl, ast.Assign, ast.While, ast.Break, ast.Continue, ast.Exit:
		return true
	}
	return false
}

// actsAtOnce reports whether e is a browser statement whose effect does
// not wait in the pending update list: a triggered event runs its
// listeners, a behind-attachment invokes its listener, a style write
// changes the style attribute, all before the expression returns.
func actsAtOnce(e ast.Expr) bool {
	switch e.(type) {
	case ast.EventAttach, ast.EventDetach, ast.EventTrigger, ast.SetStyle:
		return true
	}
	return false
}

// contains reports whether is holds for e or for anything under it,
// word sources of full-text selections, hoisted operands and join
// annotations included (eachChild).
func contains(e ast.Expr, is func(ast.Expr) bool) bool {
	if e == nil {
		return false
	}
	if is(e) {
		return true
	}
	found := false
	eachChild(e, func(c ast.Expr) { found = found || contains(c, is) })
	return found
}

// hasScripting is the optimizer's unit guard: a module body or function
// body with a scripting construct anywhere in it keeps its planned tree.
func hasScripting(e ast.Expr) bool { return contains(e, isScripting) }

// changesMidLoop is the optimizer's FLWOR guard: evaluating e can reach
// a scripting construct, a browser statement that acts at once, or a
// call for which calls answers true.
func changesMidLoop(e ast.Expr, calls func(ast.FuncCall) bool) bool {
	return contains(e, func(x ast.Expr) bool {
		if c, ok := x.(ast.FuncCall); ok {
			return calls(c)
		}
		return isScripting(x) || actsAtOnce(x)
	})
}

// librarySpaces are the namespaces of the frozen built-in library, none
// of whose functions is sequential.
var librarySpaces = map[string]bool{
	fnSpace:                            true,
	"http://www.w3.org/2001/XMLSchema": true,
	"http://www.example.com/fulltext":  true,
}

// unknownCalls answers for a call when no module is in sight: only the
// library is known to be harmless.
func unknownCalls(c ast.FuncCall) bool { return !librarySpaces[c.Name.Space] }

// moduleCalls answers for the calls of one module: a declared function
// changes the documents mid-loop when it is sequential or external, or
// when its body can — the least fixpoint over the call graph, so
// recursion alone convicts nothing. Declarations sharing a name and
// arity are judged together. Every other name is unknownCalls' to judge.
func moduleCalls(m *ast.Module) func(ast.FuncCall) bool {
	if len(m.Prolog.Functions) == 0 {
		return unknownCalls
	}
	changes := map[fnArity]bool{}
	key := func(d *ast.FuncDecl) fnArity { return fnArity{vkey(d.Name), len(d.Params)} }
	for i := range m.Prolog.Functions {
		d := &m.Prolog.Functions[i]
		changes[key(d)] = changes[key(d)] || d.Sequential || d.External || d.Body == nil
	}
	calls := func(c ast.FuncCall) bool {
		if ch, declared := changes[fnArity{vkey(c.Name), len(c.Args)}]; declared {
			return ch
		}
		return unknownCalls(c)
	}
	for changed := true; changed; {
		changed = false
		for i := range m.Prolog.Functions {
			d := &m.Prolog.Functions[i]
			if !changes[key(d)] && changesMidLoop(d.Body, calls) {
				changes[key(d)], changed = true, true
			}
		}
	}
	return calls
}
