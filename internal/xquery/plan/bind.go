package plan

import (
	"repro/internal/dom"
	"repro/internal/xquery/ast"
)

// Bind returns the binding table of m, indexed by VarID, or nil for a
// module without variables. The parser has resolved every name
// (ast.VarID); Bind walks the module once for what the static passes
// ask of a binding: its kind and position, how many references read it,
// whether one of them can run more than once per evaluation of the
// declaration, and whether an assignment targets it. Prepare installs
// the table as ast.Module.Bindings.
//
// A reference repeats when more repeating constructs stand around it
// than around its declaration. They are the bindings after a for
// clause's, a quantifier's after its first, a path's later steps and its
// predicates, a function body (for a global), and every kind the walk
// does not know to evaluate each operand at most once per evaluation (a
// while loop, a full-text selection, an event statement).
func Bind(m *ast.Module) ast.Bindings {
	if m.NumVars == 0 {
		return nil
	}
	vars := make(ast.Bindings, m.NumVars+1)
	var buf [64]int32 // loops, which most modules fit
	b := binder{vars: vars, loops: buf[:]}
	if len(vars) > len(buf) {
		b.loops = make([]int32, len(vars))
	}
	for _, v := range m.Prolog.Vars {
		b.walk(v.Init, 0)
		kind := ast.VarGlobal
		if v.External {
			kind = ast.VarExternal
		}
		b.declare(v.ID, v.Name, v.At, kind, 0)
	}
	for _, f := range m.Prolog.Functions {
		b.params = nil
		for _, p := range f.Params {
			b.declare(p.ID, p.Name, f.At, ast.VarParam, 1)
		}
		b.params = f.Params
		b.walk(f.Body, 1)
	}
	b.params = nil
	b.walk(m.Body, 0)
	for i := range vars {
		vars[i].Assigned = vars[i].Assigned || b.freeAssigned && vars[i].Kind == ast.VarFree
	}
	return vars
}

type binder struct {
	vars  ast.Bindings
	loops []int32 // per binding, the repeating constructs around its declaration
	// params are those of the function whose body is walked.
	params []ast.Param
	// freeAssigned: an assignment targets a free name or a global, which
	// a global's initialiser can read as a free name (the host's value of
	// a global declared after it).
	freeAssigned bool
}

func (b *binder) declare(id ast.VarID, name dom.QName, at ast.Pos, kind ast.VarKind, loops int32) {
	v := b.vars.Of(id)
	if v == nil || v.Kind != ast.VarFree {
		return // none, or a global declared again
	}
	v.Name, v.At, v.Kind, b.loops[id] = name, at, kind, loops
	for _, p := range b.params {
		if p.Name.Matches(name) {
			b.vars[p.ID].Shadowed = true
		}
	}
}

// use records a reference to id, or an assignment.
func (b *binder) use(id ast.VarID, loops int32, assign bool) {
	v := b.vars.Of(id)
	if v == nil {
		return
	}
	if assign {
		v.Assigned = true
		b.freeAssigned = b.freeAssigned || v.Kind == ast.VarFree || v.Kind == ast.VarGlobal || v.Kind == ast.VarExternal
		return
	}
	v.Refs++
	v.Repeats = v.Repeats || loops > b.loops[id]
}

// clauses walks the bindings of a FLWOR, quantifier or copy … modify,
// a let clause's of kind let, and returns the loops after them.
func (b *binder) clauses(cls []ast.Clause, loops int32, let ast.VarKind) int32 {
	for _, cl := range cls {
		b.walk(cl.In, loops)
		kind := let
		if cl.For {
			kind, loops = ast.VarFor, loops+1
		}
		b.declare(cl.ID, cl.Var, cl.At, kind, loops)
		b.declare(cl.PosID, cl.PosVar, cl.At, ast.VarAt, loops)
	}
	return loops
}

// walk records the references and declarations under e, which stands
// under loops repeating constructs. The planned roots it walks carry no
// join annotation.
func (b *binder) walk(e ast.Expr, loops int32) {
	switch x := e.(type) {
	case nil:
	case ast.VarRef:
		b.use(x.ID, loops, false)
	case ast.Assign:
		b.use(x.ID, loops, true)
		b.walk(x.Val, loops)
	case ast.BlockDecl:
		b.walk(x.Init, loops)
		b.declare(x.ID, x.Var, x.At, ast.VarBlockDecl, loops)
	case ast.FLWOR:
		loops = b.clauses(x.Clauses, loops, ast.VarLet)
		b.walk(x.Where, loops)
		for _, o := range x.OrderBy {
			b.walk(o.Key, loops)
		}
		b.walk(x.Return, loops)
	case ast.Quantified:
		b.walk(x.Satisfies, b.clauses(x.Vars, loops, ast.VarFor))
	case ast.Transform:
		loops = b.clauses(x.Bindings, loops, ast.VarCopy)
		b.walk(x.Modify, loops)
		b.walk(x.Return, loops)
	case ast.Typeswitch:
		b.walk(x.Operand, loops)
		for _, c := range x.Cases {
			b.declare(c.ID, c.Var, c.At, ast.VarCase, loops)
			b.walk(c.Body, loops)
		}
		b.declare(x.DefaultID, x.DefaultVar, x.At, ast.VarCase, loops)
		b.walk(x.Default, loops)
	case ast.Path:
		for i, s := range x.Steps {
			b.walk(s.Primary, loops+min(int32(i), 1))
			for _, pr := range s.Preds {
				b.walk(pr, loops+1)
			}
		}
	case ast.SeqExpr, ast.Ordered, ast.If, ast.FuncCall, ast.Binary, ast.Compare,
		ast.Unary, ast.Range, ast.InstanceOf, ast.TreatAs, ast.CastAs,
		ast.DirElem, ast.CompConstructor, ast.Insert, ast.Delete, ast.Replace,
		ast.Rename, ast.Block, ast.Exit:
		ast.EachChild(e, func(c ast.Expr) { b.walk(c, loops) })
	default:
		ast.EachChild(e, func(c ast.Expr) { b.walk(c, loops+1) })
	}
}
