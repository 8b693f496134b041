package plan

import (
	"repro/internal/xquery/ast"
)

// Constant folding lives in the planner so both consumers share one
// implementation: the optimizer (Optimize) replaces foldable subtrees
// with literals before compilation, and the static analyzer keeps
// using the same fold for dead-branch detection and range sizing.
// Folding is deliberately small — enough to catch `if (true())` /
// `if (1 = 2)` dead branches and to size `1 to N` ranges exactly;
// everything else stays unknown. It never errors: a subexpression
// whose evaluation could raise (idiv by zero, incomparable types)
// simply does not fold, so runtime error behaviour is untouched.

// ConstKind tags a folded constant value.
type ConstKind int

// Folded value kinds.
const (
	ConstInt ConstKind = iota
	ConstFloat
	ConstString
	ConstBool
	ConstEmpty
)

// Const is a folded constant.
type Const struct {
	Kind ConstKind
	I    int64
	F    float64
	S    string
	B    bool
}

// EBV is the effective boolean value of a folded constant.
func (v Const) EBV() bool {
	switch v.Kind {
	case ConstInt:
		return v.I != 0
	case ConstFloat:
		return v.F != 0 && v.F == v.F // non-zero, non-NaN
	case ConstString:
		return v.S != ""
	case ConstBool:
		return v.B
	default:
		return false
	}
}

// AsFloat widens an int or float constant to float64.
func (v Const) AsFloat() float64 {
	if v.Kind == ConstInt {
		return float64(v.I)
	}
	return v.F
}

// FoldBool folds e and takes its effective boolean value.
func FoldBool(e ast.Expr) (bool, bool) {
	v, ok := Fold(e)
	if !ok {
		return false, false
	}
	return v.EBV(), true
}

// Fold evaluates e if it is a constant expression.
func Fold(e ast.Expr) (Const, bool) {
	switch x := e.(type) {
	case ast.IntLit:
		return Const{Kind: ConstInt, I: x.Val}, true
	case ast.DoubleLit:
		return Const{Kind: ConstFloat, F: x.Val}, true
	case ast.StringLit:
		return Const{Kind: ConstString, S: x.Val}, true
	case ast.SeqExpr:
		if len(x.Items) == 0 {
			return Const{Kind: ConstEmpty}, true
		}
	case ast.Unary:
		// Over anything but a number, + and - raise (or, over (), yield
		// nothing): not a constant.
		v, ok := Fold(x.X)
		if !ok || v.Kind != ConstInt && v.Kind != ConstFloat {
			return Const{}, false
		}
		switch {
		case !x.Neg:
		case v.Kind == ConstInt:
			v.I = -v.I
		default:
			v.F = -v.F
		}
		return v, true
	case ast.FuncCall:
		if x.Name.Space != fnSpace {
			return Const{}, false
		}
		switch {
		case x.Name.Local == "true" && len(x.Args) == 0:
			return Const{Kind: ConstBool, B: true}, true
		case x.Name.Local == "false" && len(x.Args) == 0:
			return Const{Kind: ConstBool, B: false}, true
		case x.Name.Local == "not" && len(x.Args) == 1:
			if b, ok := FoldBool(x.Args[0]); ok {
				return Const{Kind: ConstBool, B: !b}, true
			}
		}
	case ast.Binary:
		return foldBinary(x)
	case ast.Compare:
		return foldCompare(x)
	}
	return Const{}, false
}

func foldBinary(x ast.Binary) (Const, bool) {
	switch x.Op {
	case "and", "or":
		// The left operand runs first, and only a constant one may
		// decide: a constant right operand still follows a left one
		// whose evaluation can raise.
		lb, ok := FoldBool(x.L)
		if !ok {
			return Const{}, false
		}
		if lb == (x.Op == "or") {
			return Const{Kind: ConstBool, B: lb}, true
		}
		rb, ok := FoldBool(x.R)
		if !ok {
			return Const{}, false
		}
		return Const{Kind: ConstBool, B: rb}, true
	case "+", "-", "*", "idiv", "mod":
		l, lok := Fold(x.L)
		r, rok := Fold(x.R)
		if !lok || !rok || l.Kind != ConstInt || r.Kind != ConstInt {
			return Const{}, false
		}
		switch x.Op {
		case "+":
			return Const{Kind: ConstInt, I: l.I + r.I}, true
		case "-":
			return Const{Kind: ConstInt, I: l.I - r.I}, true
		case "*":
			return Const{Kind: ConstInt, I: l.I * r.I}, true
		case "idiv":
			if r.I == 0 {
				return Const{}, false // a runtime error, not a constant
			}
			return Const{Kind: ConstInt, I: l.I / r.I}, true
		default: // mod
			if r.I == 0 {
				return Const{}, false
			}
			return Const{Kind: ConstInt, I: l.I % r.I}, true
		}
	}
	return Const{}, false
}

func foldCompare(x ast.Compare) (Const, bool) {
	if x.Kind == ast.NodeComp {
		return Const{}, false
	}
	l, lok := Fold(x.L)
	r, rok := Fold(x.R)
	if !lok || !rok {
		return Const{}, false
	}
	op := x.Op
	switch op { // value-comparison spellings map onto the general ones
	case "eq":
		op = "="
	case "ne":
		op = "!="
	case "lt":
		op = "<"
	case "le":
		op = "<="
	case "gt":
		op = ">"
	case "ge":
		op = ">="
	}
	var cmp int // -1, 0, 1
	switch {
	case l.Kind == ConstInt && r.Kind == ConstInt:
		cmp = cmpOrder(l.I < r.I, l.I == r.I)
	case l.Kind == ConstString && r.Kind == ConstString:
		cmp = cmpOrder(l.S < r.S, l.S == r.S)
	case (l.Kind == ConstFloat || l.Kind == ConstInt) && (r.Kind == ConstFloat || r.Kind == ConstInt):
		lf, rf := l.AsFloat(), r.AsFloat()
		if lf != lf || rf != rf { // NaN compares false for everything but !=
			return Const{Kind: ConstBool, B: op == "!="}, true
		}
		cmp = cmpOrder(lf < rf, lf == rf)
	default:
		return Const{}, false
	}
	var b bool
	switch op {
	case "=":
		b = cmp == 0
	case "!=":
		b = cmp != 0
	case "<":
		b = cmp < 0
	case "<=":
		b = cmp <= 0
	case ">":
		b = cmp > 0
	case ">=":
		b = cmp >= 0
	default:
		return Const{}, false
	}
	return Const{Kind: ConstBool, B: b}, true
}

func cmpOrder(less, eq bool) int {
	switch {
	case less:
		return -1
	case eq:
		return 0
	default:
		return 1
	}
}
