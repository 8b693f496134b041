package ast

import (
	"strconv"
	"strings"

	"repro/internal/dom"
	"repro/internal/xdm"
)

// The namespaces every parser context predeclares under these prefixes
// (parser.FnNamespace, parser.XSNamespace); everything else Unparse
// names through a namespace declaration of its own.
const (
	fnNamespace = "http://www.w3.org/2005/xpath-functions"
	xsNamespace = "http://www.w3.org/2001/XMLSchema"
)

// Unparse writes an expression back as XQuery text: a prolog of
// namespace declarations for the names the expression uses, then the
// expression. Parsing the text gives back the same tree up to source
// positions and lexical prefixes (names are written by their expanded
// form, under prefixes Unparse makes up), which is what lets the
// planner hand an expression to another process as text. ok is false
// for an expression outside the covered subset: constructors, updates,
// scripting and browser statements, typeswitch, and names that cannot
// be written (a function in no namespace). Planner annotations are not
// part of the text; whoever parses it plans it again.
func Unparse(e Expr) (src string, ok bool) {
	u := unparser{prefixes: map[string]string{}}
	u.expr(e)
	if u.bad {
		return "", false
	}
	if len(u.spaces) == 0 {
		return u.b.String(), true
	}
	var out strings.Builder
	for i, space := range u.spaces {
		out.WriteString("declare namespace ns" + strconv.Itoa(i+1) + " = ")
		writeStringLit(&out, space)
		out.WriteString("; ")
	}
	out.WriteString(u.b.String())
	return out.String(), true
}

// unparser is one Unparse run: the text so far, the namespaces it had
// to name (in first-use order) and whether it met something it cannot
// write.
type unparser struct {
	b        strings.Builder
	prefixes map[string]string // namespace URI → made-up prefix
	spaces   []string
	bad      bool
}

func (u *unparser) w(s string) { u.b.WriteString(s) }

// prefix returns the prefix (with its colon) a name in the namespace is
// written under; "" for no namespace.
func (u *unparser) prefix(space string) string {
	switch space {
	case "":
		return ""
	case fnNamespace:
		return "fn:"
	case xsNamespace:
		return "xs:"
	}
	p, ok := u.prefixes[space]
	if !ok {
		u.spaces = append(u.spaces, space)
		p = "ns" + strconv.Itoa(len(u.spaces)) + ":"
		u.prefixes[space] = p
	}
	return p
}

func (u *unparser) name(n dom.QName) { u.w(u.prefix(n.Space) + n.Local) }

func writeStringLit(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			b.WriteString(`""`)
		case '&':
			b.WriteString("&amp;")
		default:
			b.WriteByte(s[i])
		}
	}
	b.WriteByte('"')
}

// bare reports whether e can stand as an operand or as the primary of
// a path step without parentheses of its own.
func bare(e Expr) bool {
	switch x := e.(type) {
	case StringLit, DecimalLit, VarRef, ContextItem, SeqExpr, FuncCall, Ordered:
		return true
	case IntLit:
		return x.Val >= 0
	case DoubleLit:
		return x.Val >= 0
	}
	return false
}

// operand writes e where the grammar wants an operand: a path binds
// tighter than every operator, so only the lone "/" (which would take a
// following "*" or name for a step) and composite expressions need
// parentheses.
func (u *unparser) operand(e Expr) {
	if p, isPath := e.(Path); bare(e) || isPath && len(p.Steps) > 0 {
		u.expr(e)
		return
	}
	u.w("(")
	u.expr(e)
	u.w(")")
}

func (u *unparser) binary(l Expr, op string, r Expr) {
	u.operand(l)
	u.w(" " + op + " ")
	u.operand(r)
}

// expr writes e where the grammar wants an ExprSingle.
func (u *unparser) expr(e Expr) {
	switch x := e.(type) {
	case StringLit:
		writeStringLit(&u.b, x.Val)
	case IntLit:
		u.w(strconv.FormatInt(x.Val, 10))
	case DecimalLit:
		u.w(x.Val)
	case DoubleLit:
		u.w(strconv.FormatFloat(x.Val, 'e', -1, 64))
	case VarRef:
		u.w("$")
		u.name(x.Name)
	case ContextItem:
		u.w(".")
	case SeqExpr:
		u.w("(")
		for i, it := range x.Items {
			if i > 0 {
				u.w(", ")
			}
			u.expr(it)
		}
		u.w(")")
	case Ordered:
		u.w("ordered { ")
		u.expr(x.X)
		u.w(" }")
	case FuncCall:
		if x.Name.Space == "" {
			u.bad = true // an unprefixed call would land in the default function namespace
		}
		u.name(x.Name)
		u.w("(")
		for i, a := range x.Args {
			if i > 0 {
				u.w(", ")
			}
			u.expr(a)
		}
		u.w(")")
	case If:
		u.w("if (")
		u.expr(x.Cond)
		u.w(") then ")
		u.expr(x.Then)
		u.w(" else ")
		u.expr(x.Else)
	case FLWOR:
		u.flwor(x)
	case Quantified:
		if x.Every {
			u.w("every ")
		} else {
			u.w("some ")
		}
		for i, cl := range x.Vars {
			if i > 0 {
				u.w(", ")
			}
			u.binding(cl, " in ")
		}
		u.w(" satisfies ")
		u.expr(x.Satisfies)
	case Binary:
		u.binary(x.L, x.Op, x.R)
	case Compare:
		u.binary(x.L, x.Op, x.R)
	case Range:
		u.binary(x.L, "to", x.R)
	case Unary:
		if x.Neg {
			u.w("-")
		} else {
			u.w("+")
		}
		u.operand(x.X)
	case InstanceOf:
		u.operand(x.X)
		u.w(" instance of ")
		u.seqType(x.Type)
	case TreatAs:
		u.operand(x.X)
		u.w(" treat as ")
		u.seqType(x.Type)
	case CastAs:
		u.operand(x.X)
		if x.Castable {
			u.w(" castable as ")
		} else {
			u.w(" cast as ")
		}
		u.w(x.Type.String())
		if x.Optional {
			u.w("?")
		}
	case Path:
		u.path(x)
	case FTContains:
		u.operand(x.X)
		u.w(" ftcontains ")
		u.ftSel(x.Sel)
	default:
		u.bad = true
	}
}

// binding writes "$v (as T)? (at $i)?" and the clause's expression
// behind sep (" in " or " := ").
func (u *unparser) binding(cl Clause, sep string) {
	u.w("$")
	u.name(cl.Var)
	if cl.Type != nil {
		u.w(" as ")
		u.seqType(*cl.Type)
	}
	if !cl.PosVar.IsZero() {
		u.w(" at $")
		u.name(cl.PosVar)
	}
	u.w(sep)
	u.expr(cl.In)
}

func (u *unparser) flwor(f FLWOR) {
	if f.Join != nil {
		u.bad = true // an optimizer copy: part of its where lives in the annotation
	}
	for _, cl := range f.Clauses {
		if cl.For {
			u.w("for ")
			u.binding(cl, " in ")
		} else {
			u.w("let ")
			u.binding(cl, " := ")
		}
		u.w(" ")
	}
	if f.Where != nil {
		u.w("where ")
		u.expr(f.Where)
		u.w(" ")
	}
	for i, o := range f.OrderBy {
		if i == 0 {
			u.w("order by ")
		} else {
			u.w(", ")
		}
		u.expr(o.Key)
		if o.Descending {
			u.w(" descending")
		}
		switch {
		case o.EmptySet && o.EmptyLeast:
			u.w(" empty least")
		case o.EmptySet:
			u.w(" empty greatest")
		}
	}
	if len(f.OrderBy) > 0 {
		u.w(" ")
	}
	u.w("return ")
	u.expr(f.Return)
}

func (u *unparser) path(p Path) {
	if p.Absolute {
		u.w("/")
	}
	for i := range p.Steps {
		if i > 0 {
			u.w("/")
		}
		s := &p.Steps[i]
		switch {
		case s.Primary == nil:
			u.w(s.Axis.String() + "::")
			u.nodeTest(s.Test)
		case bare(s.Primary):
			u.expr(s.Primary)
		default:
			u.w("(")
			u.expr(s.Primary)
			u.w(")")
		}
		for _, pr := range s.Preds {
			u.w("[")
			u.expr(pr)
			u.w("]")
		}
	}
}

func (u *unparser) nodeTest(t NodeTest) {
	switch {
	case t.AnyNode:
		u.w("node()")
	case t.IsName && t.AnySpace && t.Name.Local == "*":
		u.w("*")
	case t.IsName && t.AnySpace:
		u.w("*:" + t.Name.Local)
	case t.IsName:
		u.name(t.Name) // "p:*" included: its Local is the star
	default:
		u.kindTest(t.Kind, t.HasName, t.KindName, t.PITarget)
	}
}

func (u *unparser) kindTest(kind xdm.Type, hasName bool, name dom.QName, piTarget string) {
	switch kind {
	case xdm.TElementNode, xdm.TAttributeNode:
		if kind == xdm.TElementNode {
			u.w("element(")
		} else {
			u.w("attribute(")
		}
		if hasName {
			u.name(name) // element(*) carries the star as its local name
		}
		u.w(")")
	case xdm.TPINode:
		u.w("processing-instruction(")
		if piTarget != "" {
			writeStringLit(&u.b, piTarget)
		}
		u.w(")")
	case xdm.TDocumentNode, xdm.TTextNode, xdm.TCommentNode:
		u.w(kind.String())
	default:
		u.bad = true
	}
}

func (u *unparser) seqType(t xdm.SeqType) {
	if t.Empty {
		u.w("empty-sequence()")
		return
	}
	switch it := t.Item; {
	case it.AnyItem:
		u.w("item()")
	case it.AnyNode:
		u.w("node()")
	case it.Atomic != 0:
		u.w(it.Atomic.String())
	default:
		u.kindTest(it.Kind, it.HasName, it.KindName, "")
	}
	u.w(t.Occ.String())
}

// ftSel writes a full-text selection; every selection that is not a
// plain words match goes in parentheses, so the ftor/ftand/ftnot
// precedence never matters.
func (u *unparser) ftSel(sel FTSelection) {
	switch s := sel.(type) {
	case FTWords:
		switch src := s.Source.(type) {
		case StringLit:
			writeStringLit(&u.b, src.Val)
		default:
			u.w("{")
			u.expr(src)
			u.w("}")
		}
		switch s.AnyAll {
		case "all", "phrase":
			u.w(" " + s.AnyAll)
		}
		if s.Opts.Stemming {
			u.w(" with stemming")
		}
		if s.Opts.Wildcards {
			u.w(" with wildcards")
		}
		if s.Opts.CaseSensitive {
			u.w(" case sensitive")
		}
	case FTAnd:
		u.ftOperand(s.L)
		u.w(" ftand ")
		u.ftOperand(s.R)
	case FTOr:
		u.ftOperand(s.L)
		u.w(" ftor ")
		u.ftOperand(s.R)
	case FTNot:
		u.w("ftnot ")
		u.ftOperand(s.X)
	default:
		u.bad = true
	}
}

func (u *unparser) ftOperand(sel FTSelection) {
	if _, words := sel.(FTWords); words {
		u.ftSel(sel)
		return
	}
	u.w("(")
	u.ftSel(sel)
	u.w(")")
}
