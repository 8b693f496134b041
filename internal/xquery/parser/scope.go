package parser

import (
	"slices"

	"repro/internal/dom"
	"repro/internal/xquery/ast"
)

// Name resolution. The parser decides, once, which binding every
// variable name means: a declaration gets a new ast.VarID, a reference
// or an assignment target the VarID of the innermost declaration of its
// name in scope where it stands. A for, let, some, every or copy
// variable (and a for's positional one) is in scope from the binding
// after its own to the end of its expression; a typeswitch variable in
// its branch; a parameter in its function's body; a block's declare to
// the end of the construct that holds it; a prolog global in the
// initialisers of the globals after it, in every function body — one
// declared before it too — and in the module body. A name no declaration binds is free
// (an imported module's variable, one the host binds, or an unbound
// one), one VarID per name. plan.Bind turns the VarIDs into the
// module's table of facts per binding.

// named is a binding in scope: an expanded name and its VarID.
type named struct {
	space, local string
	id           ast.VarID
}

// find returns the index of the last binding of name in list, or -1.
func find(list []named, name dom.QName) int {
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].space == name.Space && list[i].local == name.Local {
			return i
		}
	}
	return -1
}

// scopes is the resolution state of one parse.
type scopes struct {
	last ast.VarID // the last VarID handed out
	// stack is the globals declared so far, then the local bindings in
	// scope, innermost last; buf is its first backing.
	stack []named
	buf   [6]named
	// ahead holds the names function bodies read that no global has
	// declared yet: a global declared later takes its VarID over.
	ahead, free []named
	inFunction  bool // reading a function body
}

// mark is where the scope opened now starts; pop(mark) closes it.
func (s *scopes) mark() int { return len(s.stack) }

func (s *scopes) pop(mark int) { s.stack = s.stack[:mark] }

// declare brings a new binding of name into scope.
func (s *scopes) declare(name dom.QName) ast.VarID {
	s.last++
	return s.bring(name, s.last)
}

// bring brings binding id of name into scope.
func (s *scopes) bring(name dom.QName, id ast.VarID) ast.VarID {
	if s.stack == nil {
		s.stack = s.buf[:0]
	}
	s.stack = append(s.stack, named{name.Space, name.Local, id})
	return id
}

// declareGlobal brings a prolog global into scope, with the binding of
// the references function bodies made to it. A prolog declares a name
// once.
func (s *scopes) declareGlobal(name dom.QName) ast.VarID {
	if i := find(s.ahead, name); i >= 0 {
		id := s.ahead[i].id
		s.ahead = slices.Delete(s.ahead, i, i+1)
		return s.bring(name, id)
	}
	return s.declare(name)
}

// endProlog: what function bodies read and no global declared is free.
func (s *scopes) endProlog() {
	s.free, s.ahead = append(s.free, s.ahead...), nil
}

// resolve returns the binding name means here.
func (s *scopes) resolve(name dom.QName) ast.VarID {
	if i := find(s.stack, name); i >= 0 {
		return s.stack[i].id
	}
	names := &s.free
	if s.inFunction {
		names = &s.ahead // perhaps a global declared later
	}
	if i := find(*names, name); i >= 0 {
		return (*names)[i].id
	}
	s.last++
	*names = append(*names, named{name.Space, name.Local, s.last})
	return s.last
}
