// Package ast defines the abstract syntax of the extended XQuery dialect
// this repository implements: XQuery 1.0, the Update Facility, the
// Scripting Extension subset, full-text ftcontains, and the browser
// extensions proposed in the paper (§4.3 event grammar, §4.5 CSS
// grammar). QNames in the AST are fully resolved: the parser expands
// prefixes against the in-scope namespaces, so later phases never see a
// lexical prefix they cannot interpret.
package ast

import (
	"sync"

	"repro/internal/dom"
	ftindex "repro/internal/fulltext/index"
	"repro/internal/xdm"
)

// Expr is any expression node.
type Expr interface{ exprNode() }

// Pos is a source position: 1-based line and byte column. The zero Pos
// means "unknown" (a synthesised node). Nodes that the static analyzer
// reports on carry their position in an At field; PosOf retrieves it
// generically.
type Pos struct{ Line, Col int }

// PosOf returns the source position of an expression, or the zero Pos
// for node kinds that do not record one.
func PosOf(e Expr) Pos {
	switch x := e.(type) {
	case VarRef:
		return x.At
	case FuncCall:
		return x.At
	case If:
		return x.At
	case FLWOR:
		if len(x.Clauses) > 0 {
			return x.Clauses[0].At
		}
	case Quantified:
		if len(x.Vars) > 0 {
			return x.Vars[0].At
		}
	case Typeswitch:
		return x.At
	case Insert:
		return x.At
	case Delete:
		return x.At
	case Replace:
		return x.At
	case Rename:
		return x.At
	case Transform:
		return x.At
	case Block:
		if len(x.Stmts) > 0 {
			return PosOf(x.Stmts[0])
		}
	case BlockDecl:
		return x.At
	case Assign:
		return x.At
	case While:
		return x.At
	case Exit:
		return x.At
	case EventAttach:
		return x.At
	case EventDetach:
		return x.At
	case EventTrigger:
		return x.At
	case SetStyle:
		return x.At
	case GetStyle:
		return x.At
	case Ordered:
		return PosOf(x.X)
	case SeqExpr:
		if len(x.Items) > 0 {
			return PosOf(x.Items[0])
		}
	}
	return Pos{}
}

// --- Literals and primaries ----------------------------------------------

// StringLit is a string literal. Seq, where set, is its value as a
// sequence, built once when the planner plans the literal (or the
// optimizer folds one) and returned by every evaluation of it: no
// caller writes into a sequence it was returned (DESIGN.md §5b).
type StringLit struct {
	Val string
	Seq xdm.Sequence
}

// NewStringLit returns the literal v with its sequence built.
func NewStringLit(v string) StringLit {
	return StringLit{Val: v, Seq: xdm.Sequence{xdm.String(v)}}
}

// Value returns the literal's value: its Seq, or a new sequence where
// the literal was not planned.
func (l StringLit) Value() xdm.Sequence {
	if l.Seq != nil {
		return l.Seq
	}
	return xdm.Singleton(xdm.String(l.Val))
}

// IntLit is an integer literal.
type IntLit struct{ Val int64 }

// DecimalLit is a decimal literal, kept in lexical form for exactness.
type DecimalLit struct{ Val string }

// DoubleLit is a double literal.
type DoubleLit struct{ Val float64 }

// VarRef is a variable reference $name. ID is the binding the name
// means where the reference stands (see VarID).
type VarRef struct {
	Name dom.QName
	At   Pos
	ID   VarID
}

// VarID identifies one variable binding of a module: a declaration, or
// a name no declaration binds (a free name). The parser decides which
// binding each reference and assignment target means (parser/scope.go),
// and every later pass compares VarIDs; Module.Bindings has the facts of
// each. The zero VarID, on a node built by hand, may be any binding.
type VarID int32

// ContextItem is the "." expression.
type ContextItem struct{}

// SeqExpr is the comma operator; with no items it is the empty sequence
// "()".
type SeqExpr struct{ Items []Expr }

// FuncCall is a static function call.
type FuncCall struct {
	Name dom.QName
	Args []Expr
	At   Pos

	// Ship, when non-nil, is the planner's per-document annotation on a
	// fn:count over a collection path (see ShipPlan).
	Ship *ShipPlan
}

// ShipPlan is the planner's annotation on an expression that is a map
// over the documents of fn:collection(URI) with atomic results (see
// plan.Annotate): evaluating Src with each document as the context
// item and concatenating the values in collection order — or, with Sum,
// adding the per-document counts up — gives the expression's value. An
// evaluator whose run's collection source can ship hands URI and Src to
// it, so the holder of the documents evaluates Src and only the
// values travel; an evaluator that ignores the annotation is still
// right. Like Step.Access, only the planner writes it, under
// Module.EnsurePlanned, and evaluation only reads it.
type ShipPlan struct {
	URI string // the collection's URI; "" is the default collection
	Src string // the per-document expression as XQuery text (ast.Unparse)
	// Expr is what Src is the text of, planned: the evaluator runs it
	// itself on whatever a shipping resolver hands back unevaluated (the
	// diagnostic element of a degraded federated gather).
	Expr Expr
	Sum  bool // the per-document values are counts to add up
}

// Ordered is ordered{...} / unordered{...}; we always evaluate in order,
// so it is a transparent wrapper.
type Ordered struct{ X Expr }

// --- Control expressions --------------------------------------------------

// If is the conditional expression.
type If struct {
	Cond, Then, Else Expr
	At               Pos
}

// FLWOR is the for/let/where/order by/return expression.
type FLWOR struct {
	Clauses []Clause // for and let clauses, in order
	Where   Expr     // nil if absent
	OrderBy []OrderSpec
	Return  Expr

	// Join, when non-nil, is the optimizer's equality-join annotation:
	// the clause at Join.Clause — always the last one — can be executed
	// as the build side of a hash join instead of a nested loop. The
	// annotated predicate is removed from Where and kept in Join.Pred:
	// the evaluator either hashes or, where it may not (keys outside the
	// string class), applies Join.Pred to every tuple in the place the
	// conjunct had, first. Only the optimizer (internal/xquery/plan)
	// writes this field, and only on its own copies of the tree —
	// parsed modules never carry it.
	Join *JoinPlan

	// Ship, when non-nil, is the planner's per-document annotation on a
	// FLWOR ranging over a collection path (see ShipPlan).
	Ship *ShipPlan

	// StreamDomain is the planner's: the FLWOR cannot apply an update
	// before it ends, so its for domains stream. The zero value
	// snapshots them, which is right whatever the loop does.
	StreamDomain bool
}

// JoinPlan annotates a FLWOR with a detected equality join (see
// plan.Optimize). OuterKey depends only on clauses before Clause;
// InnerKey depends only on the clause variable itself. ValueEq
// distinguishes `eq` (value comparison, at-most-one key per tuple)
// from `=` (general comparison, existential over key sequences).
type JoinPlan struct {
	Clause    int  // index of the inner (build-side) for clause
	OuterKey  Expr // probe key, evaluated in the outer tuple's scope
	InnerKey  Expr // build key, evaluated with the clause var bound
	ValueEq   bool // eq (value comp) vs = (general comp)
	OuterLeft bool // OuterKey was the left operand (evaluation-order parity)
	Pred      Expr // the original predicate, for non-hash evaluation
}

// Hoisted marks a loop-invariant let value or where conjunct of a
// FLWOR: the evaluator computes it at most once per entry of that FLWOR
// (memoised at first use, so a zero-iteration loop never evaluates it).
// Anywhere else it is a transparent wrapper, like Ordered. Only the
// optimizer constructs it, and only in those two places; Slot numbers
// the hoisted expressions of one FLWOR from 0, which is how the entry
// finds each one's memo.
type Hoisted struct {
	X    Expr
	Slot int
}

// Clause is a for or let clause of a FLWOR (and a binding of a
// quantifier or a copy … modify).
type Clause struct {
	For    bool
	ID     VarID // Var's binding
	PosID  VarID // PosVar's binding, 0 if absent
	Var    dom.QName
	PosVar dom.QName // "at $i", zero if absent (for only)
	Type   *xdm.SeqType
	In     Expr // binding sequence (for) or value (let)
	At     Pos  // position of the bound variable
}

// OrderSpec is one key of an order by clause.
type OrderSpec struct {
	Key        Expr
	Descending bool
	EmptyLeast bool
	EmptySet   bool // whether empty greatest/least was written
}

// Quantified is some/every $x in ... satisfies ....
type Quantified struct {
	Every     bool
	Vars      []Clause // For is true for all of them
	Satisfies Expr
	// StreamDomain is the planner's, as on FLWOR.
	StreamDomain bool
}

// Typeswitch is the typeswitch expression.
type Typeswitch struct {
	Operand    Expr
	Cases      []TypeswitchCase
	DefaultVar dom.QName // zero if unnamed
	DefaultID  VarID     // DefaultVar's binding, 0 if unnamed
	Default    Expr
	At         Pos
}

// TypeswitchCase is one case of a typeswitch.
type TypeswitchCase struct {
	Var  dom.QName // zero if unnamed
	ID   VarID     // Var's binding, 0 if unnamed
	Type xdm.SeqType
	Body Expr
	At   Pos
}

// --- Operators --------------------------------------------------------------

// Binary covers or, and, arithmetic (+ - * div idiv mod), union (| union),
// intersect and except; Op holds the operator name.
type Binary struct {
	Op   string
	L, R Expr
}

// CompareKind distinguishes the three comparison families.
type CompareKind int

// Comparison families.
const (
	GeneralComp CompareKind = iota // = != < <= > >=
	ValueComp                      // eq ne lt le gt ge
	NodeComp                       // is << >>
)

// Compare is a comparison expression.
type Compare struct {
	Op   string
	Kind CompareKind
	L, R Expr
}

// Unary is a chain of unary +/- collapsed to a single sign.
type Unary struct {
	Neg bool
	X   Expr
}

// Range is the "to" expression.
type Range struct{ L, R Expr }

// InstanceOf is "instance of".
type InstanceOf struct {
	X    Expr
	Type xdm.SeqType
}

// TreatAs is "treat as".
type TreatAs struct {
	X    Expr
	Type xdm.SeqType
}

// CastAs covers "cast as" and "castable as" (Castable flag).
type CastAs struct {
	X        Expr
	Type     xdm.Type
	Optional bool // "?" on the single type
	Castable bool
}

// --- Paths -----------------------------------------------------------------

// Axis enumerates the XPath axes.
type Axis int

// The thirteen axes (namespace excluded).
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisAttribute
	AxisSelf
	AxisDescendantOrSelf
	AxisFollowingSibling
	AxisFollowing
	AxisParent
	AxisAncestor
	AxisPrecedingSibling
	AxisPreceding
	AxisAncestorOrSelf
)

// Reverse reports whether the axis is a reverse axis (affects predicate
// position numbering).
func (a Axis) Reverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisPrecedingSibling, AxisPreceding, AxisAncestorOrSelf:
		return true
	}
	return false
}

// String returns the axis name.
func (a Axis) String() string {
	return [...]string{"child", "descendant", "attribute", "self",
		"descendant-or-self", "following-sibling", "following", "parent",
		"ancestor", "preceding-sibling", "preceding", "ancestor-or-self"}[a]
}

// NodeTest selects nodes on an axis. Exactly one of the fields is
// meaningful: a name test (possibly wildcarded), a kind test, or the
// universal node() test.
type NodeTest struct {
	// AnyNode is the node() test.
	AnyNode bool

	// Name test: Local "*" matches any local name; Space "*" (lexical
	// prefix wildcard) matches any namespace.
	Name     dom.QName
	AnySpace bool
	IsName   bool

	// Kind test: one of the node types, zero otherwise. KindName
	// optionally constrains element()/attribute() names; PITarget
	// constrains processing-instruction(target).
	Kind     xdm.Type
	KindName dom.QName
	HasName  bool
	PITarget string
}

// AccessMethod is the path planner's choice of access path for an axis
// step (see internal/xquery/plan). The zero value is AccessScan, so an
// unplanned AST evaluates exactly as before planning existed.
type AccessMethod uint8

// Access methods.
const (
	// AccessScan walks the axis node by node (the default).
	AccessScan AccessMethod = iota
	// AccessIndexName probes the per-document element-name index:
	// candidates are the subtree slice of the name's document-order
	// list instead of a full subtree walk.
	AccessIndexName
	// AccessIndexID probes the tree's id map (dom.Node.AppendByID),
	// which package dom keeps current through every mutation: the
	// step's first predicate is an attribute comparison (PredAttrCmp)
	// on the no-namespace id attribute, over a descendant axis. The
	// runtime reads the key once per step evaluation and probes for it
	// when it is one non-empty string, the element-name index otherwise.
	AccessIndexID
	// AccessFT probes the per-document full-text index: the step's
	// first predicate is an ftcontains over the context item with
	// all-literal sources, and candidates come from posting-list
	// intersection/union instead of a subtree walk.
	AccessFT
)

// String returns the access-method name (profiler/debug output).
func (a AccessMethod) String() string {
	switch a {
	case AccessIndexName:
		return "index-name"
	case AccessIndexID:
		return "index-id"
	case AccessFT:
		return "index-ft"
	default:
		return "scan"
	}
}

// PredKind is the path planner's classification of one step predicate:
// what the predicate's stage has to do for it, decided once per module
// instead of on every evaluation.
type PredKind uint8

// Predicate kinds.
const (
	// PredSized: the predicate may call last(), so its stage
	// materializes its input to know the size. The zero value: a
	// predicate nobody planned is evaluated this way, which is correct
	// for every predicate.
	PredSized PredKind = iota
	// PredStream: the predicate never reads the size; candidates are
	// tested one at a time as they stream by.
	PredStream
	// PredBounded: a PredStream predicate that accepts no candidate
	// past position Bound ([N], [position() le N]); the stage stops
	// pulling input there.
	PredBounded
	// PredAttrCmp: the predicate is @a = K or @a eq K (either operand
	// order) with @a a predicate-free attribute step on a concrete name
	// and K step-invariant: it reads nothing of the candidate (no
	// focus, position or size), has no effect and resolves no document,
	// and names no variable the module assigns (the planner's one key
	// rule). The runtime reads K once per step evaluation and tests the
	// predicate natively when K turns out to be strings (see
	// runtime.predIter).
	PredAttrCmp
)

// PredPlan is the planner's annotation for one predicate of a step.
type PredPlan struct {
	Kind  PredKind
	Bound int64     // PredBounded: the last position that can match
	Attr  dom.QName // PredAttrCmp: the attribute's expanded name
	Key   Expr      // PredAttrCmp: K, any step-invariant expression
	Value bool      // PredAttrCmp: a value comparison (eq), so K must be exactly one item
}

// Step is one step of a relative path: either an axis step or a primary
// ("filter") expression, each with trailing predicates.
type Step struct {
	// Axis step (when Primary is nil).
	Axis Axis
	Test NodeTest

	// Filter step.
	Primary Expr

	Preds []Expr

	// Access and PredPlans are the planner's annotations: the step's
	// access path and one plan per predicate, index-aligned with Preds.
	// The planner (plan.Annotate, under Module.EnsurePlanned) writes
	// them on the steps it builds before the module is shared;
	// evaluation only reads them.
	Access    AccessMethod
	PredPlans []PredPlan
}

// PredPlan returns the plan of predicate i, or the zero plan (PredSized,
// always correct) on a step the planner never saw.
func (s *Step) PredPlan(i int) PredPlan {
	if i < len(s.PredPlans) {
		return s.PredPlans[i]
	}
	return PredPlan{}
}

// Path is a path expression. Absolute paths start at the root of the
// context node's tree ("/..."); an empty Steps list with Absolute set is
// the "/" expression itself.
type Path struct {
	Absolute bool
	Steps    []Step
}

// --- Constructors ------------------------------------------------------------

// DirElem is a direct element constructor. Attribute and content values
// interleave literal text (StringLit) with enclosed expressions.
type DirElem struct {
	Name    dom.QName
	Attrs   []DirAttr
	Content []Expr // StringLit text runs, nested constructors, enclosed exprs

	// Adopt, index-aligned with Content, is the planner's freshness
	// annotation (see plan.Annotate): Adopt[i] says every node Content[i]
	// yields was built by a constructor for that very evaluation and is
	// reachable from nothing else, so the element may take the node
	// itself as a child where it otherwise copies it. The zero value —
	// nil, or a shorter list — means copy, which is right for every
	// expression. Like Step.Access, only the planner writes it and
	// evaluation only reads it; the same goes for the Adopt flag of
	// CompConstructor (its Content), Insert (its Source) and Replace (its
	// With).
	Adopt []bool
}

// AdoptContent reports whether the planner marked content expression i
// as fresh (see Adopt); false on a constructor the planner never saw.
func (e *DirElem) AdoptContent(i int) bool { return i < len(e.Adopt) && e.Adopt[i] }

// DirAttr is an attribute of a direct element constructor.
type DirAttr struct {
	Name   dom.QName
	Pieces []Expr // StringLit and enclosed expressions
}

// CompConstructor is a computed constructor. Kind selects the node type;
// for element/attribute/PI either Name or NameExpr gives the name.
type CompConstructor struct {
	Kind     xdm.Type
	Name     dom.QName
	NameExpr Expr
	Content  Expr // nil for empty
	Adopt    bool // the planner's: Content is fresh (see DirElem.Adopt)
}

// --- Update Facility ---------------------------------------------------------

// InsertPos says where an insert places its nodes.
type InsertPos int

// Insert positions.
const (
	Into InsertPos = iota
	IntoFirst
	IntoLast
	Before
	After
)

// Insert is "insert node(s) Source ... Target".
type Insert struct {
	Source Expr
	Target Expr
	Pos    InsertPos
	At     Pos
	Adopt  bool // the planner's: Source is fresh (see DirElem.Adopt)
}

// Delete is "delete node(s) Target".
type Delete struct {
	Target Expr
	At     Pos
}

// Replace is "replace (value of)? node Target with With".
type Replace struct {
	ValueOf bool
	Target  Expr
	With    Expr
	At      Pos
	Adopt   bool // the planner's: With is fresh (see DirElem.Adopt)
}

// Rename is "rename node Target as NewName".
type Rename struct {
	Target  Expr
	NewName Expr
	At      Pos
}

// Transform is "copy $x := e modify m return r".
type Transform struct {
	Bindings []Clause // Var + In
	Modify   Expr
	Return   Expr
	At       Pos
}

// --- Scripting extension -------------------------------------------------------

// Block is a sequential block "{ stmt; stmt; ... }" (or "block {...}").
// Statements see the side effects of earlier statements.
type Block struct {
	Stmts []Expr
}

// BlockDecl is "declare variable $x := e;" inside a block.
type BlockDecl struct {
	Var  dom.QName
	ID   VarID
	Type *xdm.SeqType
	Init Expr // nil means empty sequence
	At   Pos
}

// Assign is "set $x := e" or "$x := e".
type Assign struct {
	Var dom.QName
	ID  VarID // the binding Var means
	Val Expr
	At  Pos
}

// While is the scripting while loop.
type While struct {
	Cond Expr
	Body Expr
	At   Pos
}

// Exit is "exit with e" / "exit returning e".
type Exit struct {
	With Expr
	At   Pos
}

// Break is the scripting "break" statement (§3.3).
type Break struct{}

// Continue is the scripting "continue" statement (§3.3).
type Continue struct{}

// --- Browser extensions (paper §4.3, §4.5) -----------------------------------

// EventAttach is "on event E (at|behind) T attach listener F".
type EventAttach struct {
	Event    Expr
	Target   Expr
	Behind   bool // asynchronous-call binding (§4.4)
	Listener dom.QName
	At       Pos
}

// EventDetach is "on event E at T detach listener F".
type EventDetach struct {
	Event    Expr
	Target   Expr
	Listener dom.QName
	At       Pos
}

// EventTrigger is "trigger event E at T".
type EventTrigger struct {
	Event  Expr
	Target Expr
	At     Pos
}

// SetStyle is "set style P of T to V".
type SetStyle struct {
	Prop, Target, Value Expr
	At                  Pos
}

// GetStyle is "get style P of T".
type GetStyle struct {
	Prop, Target Expr
	At           Pos
}

// --- Full text ------------------------------------------------------------------

// FTContains is "X ftcontains Selection".
type FTContains struct {
	X   Expr
	Sel FTSelection

	// LitSel, when non-nil, is Sel resolved — the form the full-text
	// index and the scan matcher read — which the planner resolves once
	// where every word source is a literal; an evaluation resolves any
	// other selection itself. Like Step.Access, only the planner writes
	// it.
	LitSel ftindex.Sel
}

// FTSelection is a full-text selection tree.
type FTSelection interface{ ftNode() }

// FTWords matches the words/phrases produced by an expression; each
// string item is a phrase whose tokens must occur consecutively.
type FTWords struct {
	Source Expr
	// AnyAll: "any" (default), "all", "any word", "all words", "phrase".
	AnyAll string
	Opts   FTOptions
}

// FTAnd requires both selections to match.
type FTAnd struct{ L, R FTSelection }

// FTOr requires either selection to match.
type FTOr struct{ L, R FTSelection }

// FTNot is ftnot / not-in negation.
type FTNot struct{ X FTSelection }

// FTOptions are the match options we support (paper uses stemming).
type FTOptions struct {
	Stemming      bool
	CaseSensitive bool
	// Wildcards enables the W3C wildcard constructs ("." with optional
	// "?", "*", "+" or "{n,m}" quantifier) in query words.
	Wildcards bool
}

func (FTWords) ftNode() {}
func (FTAnd) ftNode()   {}
func (FTOr) ftNode()    {}
func (FTNot) ftNode()   {}

// --- Modules ----------------------------------------------------------------------

// Param is a function parameter.
type Param struct {
	Name dom.QName
	ID   VarID
	Type *xdm.SeqType
}

// FuncDecl is a function declaration from the prolog.
type FuncDecl struct {
	Name       dom.QName
	Params     []Param
	ReturnType *xdm.SeqType
	Body       Expr // nil for external
	// Optimized is Body after the algebraic optimizer, or nil where the
	// optimizer left the body alone (see Module.Optimized).
	Optimized  Expr
	Updating   bool
	Sequential bool
	External   bool
	At         Pos
}

// VarDecl is a global variable declaration from the prolog.
type VarDecl struct {
	Name     dom.QName
	ID       VarID // every declaration of one name shares it
	Type     *xdm.SeqType
	Init     Expr // nil for external
	External bool
	At       Pos
}

// ModuleImport records "import module namespace p = uri (at hints)?;".
type ModuleImport struct {
	Prefix string
	URI    string
	Hints  []string
}

// Prolog is the query prolog.
type Prolog struct {
	Namespaces    map[string]string // prefix -> URI declared by the query
	DefaultElemNS string
	DefaultFnNS   string
	Vars          []VarDecl
	Functions     []FuncDecl
	Imports       []ModuleImport
	Options       map[string]string // lexical QName -> value
}

// Module is a parsed main or library module.
type Module struct {
	// Library module header: "module namespace p = uri (port:N)?;".
	IsLibrary bool
	Prefix    string
	URI       string
	Port      int // webservice extension (paper §3.4), 0 if absent

	Prolog Prolog
	Body   Expr // nil for library modules

	// NumVars is the highest VarID the parser handed out, and Bindings
	// the facts of bindings 1 to NumVars (plan.Bind), written once, by
	// plan.Prepare under EnsurePlanned: nil on a module nobody prepared
	// and on one without variables.
	NumVars  VarID
	Bindings Bindings

	// Optimized is Body after the algebraic optimizer (plan.Optimize),
	// FuncDecl.Optimized the same for a function body, and Rewrites what
	// the optimizer did to get there. They are a second set of roots, not
	// a replacement: Body stays the planned, source-shaped tree the
	// static analyzer reports positions from, and evaluation runs
	// Optimized where there is one — nil means "run Body": a unit with
	// scripting constructs, or a module nobody optimized. Written once,
	// by plan.Prepare under EnsurePlanned, and only read afterwards.
	Optimized Expr
	Rewrites  RewriteStats

	// Effects is what running the module can do — the union over its
	// body and its global initialisers, calls answered from the declared
	// functions' bodies (plan/props.go), and EffReadsScores if any
	// declared function can read scores (a host may call it by name).
	// Written once, by plan.Prepare under EnsurePlanned; a module nobody
	// prepared records none.
	Effects Effects

	planOnce sync.Once
}

// Binding is what the static passes know of one variable binding of a
// module: a row of Module.Bindings, which they read instead of walking
// scopes.
type Binding struct {
	Name dom.QName
	At   Pos // the declaration's; of a free name, both are zero
	Kind VarKind
	Refs int32 // the references that read it
	// Repeats: a reference can run more than once per evaluation of the
	// declaration (plan.Bind).
	Repeats  bool
	Assigned bool // an assignment targets it; of a free name, any free name or global
	Shadowed bool // a parameter whose name its function's body binds again
}

// VarKind is what declares a binding.
type VarKind uint8

// The kinds of binding. VarFree has no declaration, VarExternal is a
// global the host binds, VarFor is a for, some or every variable, VarAt
// a positional one, VarCase a typeswitch one.
const (
	VarFree VarKind = iota
	VarGlobal
	VarExternal
	VarParam
	VarFor
	VarLet
	VarAt
	VarCase
	VarCopy
	VarBlockDecl
)

// Bindings is a module's binding table, indexed by VarID.
type Bindings []Binding

// Of returns the row of binding id; nil for the zero VarID or no table.
func (t Bindings) Of(id VarID) *Binding {
	if id <= 0 || int(id) >= len(t) {
		return nil
	}
	return &t[id]
}

// Effects is the effect half of the static properties the planner
// infers for an expression (plan/props.go), one bit each. Bits are
// conservative: set means "can", clear means "cannot".
type Effects uint16

// The effect bits. Each consumer reads its own mask of them (DESIGN.md
// §5r has the table).
const (
	// EffUpdates: an update primitive, or a call to an updating function.
	// A copy … modify absorbs its modify clause's: they target copies.
	EffUpdates Effects = 1 << iota
	// EffWrites: fn:put.
	EffWrites
	// EffScripting: a scripting construct — block, declaration,
	// assignment, while, break, continue, exit — in the expression itself.
	EffScripting
	// EffScriptedCall: a call to a declared function whose body holds a
	// scripting construct, directly or through its own calls.
	EffScriptedCall
	// EffSequentialCall: a call to a function declared sequential.
	EffSequentialCall
	// EffActsAtOnce: an event or style statement, whose effect does not
	// wait in the pending update list.
	EffActsAtOnce
	// EffOpaqueCall: a call of a host, imported, external or undeclared
	// function: what it does only a binding knows.
	EffOpaqueCall
	// EffModuleCall: a call of a function the module declares.
	EffModuleCall
	// EffImpure: a library call off the pure list (fn:trace, fn:error,
	// fn:current-dateTime, fn:doc-available, ft:score, …) or a style
	// read through the browser host.
	EffImpure
	// EffResolves: fn:doc or fn:collection, which read the run's
	// resolvers. The run resolves each URI once (runtime/memo.go), so
	// the call is stable and may move; a source that evaluates it for a
	// remote caller has other resolvers, so it never ships.
	EffResolves
	// EffScores: an ftcontains, which records the scores ft:score reads.
	EffScores
	// EffConstructs: builds nodes — a constructor, a copy … modify.
	EffConstructs
	// EffReadsFocus: reads the focus outside one a path step sets: the
	// context item, a leading axis step or "/", a built-in that defaults
	// an omitted argument to the context item.
	EffReadsFocus
	// EffReadsPosition and EffReadsLast: a call named position or last
	// anywhere under the expression, predicates of its own included.
	EffReadsPosition
	EffReadsLast
	// EffReadsScores: ft:score, which reads the scores an ftcontains
	// recorded. A run records them only where it can read them
	// (plan.ReadsScores).
	EffReadsScores
)

// RewriteStats counts what the optimizer did to a module.
type RewriteStats struct {
	Folds     int // subtrees replaced by literals
	Pushdowns int // where conjuncts moved into path predicates
	Hoists    int // loop-invariant lets/conjuncts marked Hoisted
	Joins     int // FLWORs annotated with a JoinPlan
}

// EnsurePlanned runs f exactly once over the module's lifetime — the
// hook the path planner uses to replace the module's expressions with
// their planned forms and to install the optimized roots and the effect
// summary beside them. Parsed modules are shared across engines by the
// program cache and compiled concurrently, so the planning pass needs a
// happens-before edge to every reader; sync.Once provides it. Apart
// from this single guarded pass the AST stays read-only after parse.
func (m *Module) EnsurePlanned(f func()) { m.planOnce.Do(f) }

// Imports reports whether the prolog imports the module namespace uri.
func (m *Module) Imports(uri string) bool {
	for _, imp := range m.Prolog.Imports {
		if imp.URI == uri {
			return true
		}
	}
	return false
}

func (StringLit) exprNode()       {}
func (IntLit) exprNode()          {}
func (DecimalLit) exprNode()      {}
func (DoubleLit) exprNode()       {}
func (VarRef) exprNode()          {}
func (ContextItem) exprNode()     {}
func (SeqExpr) exprNode()         {}
func (FuncCall) exprNode()        {}
func (Ordered) exprNode()         {}
func (If) exprNode()              {}
func (FLWOR) exprNode()           {}
func (Quantified) exprNode()      {}
func (Typeswitch) exprNode()      {}
func (Binary) exprNode()          {}
func (Compare) exprNode()         {}
func (Unary) exprNode()           {}
func (Range) exprNode()           {}
func (InstanceOf) exprNode()      {}
func (TreatAs) exprNode()         {}
func (CastAs) exprNode()          {}
func (Path) exprNode()            {}
func (DirElem) exprNode()         {}
func (CompConstructor) exprNode() {}
func (Insert) exprNode()          {}
func (Delete) exprNode()          {}
func (Replace) exprNode()         {}
func (Rename) exprNode()          {}
func (Transform) exprNode()       {}
func (Block) exprNode()           {}
func (BlockDecl) exprNode()       {}
func (Assign) exprNode()          {}
func (While) exprNode()           {}
func (Exit) exprNode()            {}
func (Break) exprNode()           {}
func (Continue) exprNode()        {}
func (EventAttach) exprNode()     {}
func (EventDetach) exprNode()     {}
func (EventTrigger) exprNode()    {}
func (SetStyle) exprNode()        {}
func (GetStyle) exprNode()        {}
func (FTContains) exprNode()      {}
func (Hoisted) exprNode()         {}
