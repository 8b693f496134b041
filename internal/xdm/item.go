// Package xdm implements the XQuery 1.0 and XPath 2.0 Data Model: items,
// sequences, atomic values with the XML Schema primitive type hierarchy,
// atomization, effective boolean value, comparisons, arithmetic and
// casting. Node items wrap the live dom tree, which is how the plug-in
// "implements the XDM on top of the DOM" (paper §5.2): reads see the
// current page and updates applied through the Update Facility mutate it.
package xdm

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"time"

	"repro/internal/dom"
)

// Item is a single XDM item: an atomic value or a node.
type Item interface {
	// Type returns the dynamic type of the item.
	Type() Type
	// String returns the string value (for atomics, the canonical
	// lexical form; for nodes, the XDM string value).
	String() string
}

// Sequence is an ordered sequence of items — the value of every XQuery
// expression. The empty sequence is represented by a nil or empty slice.
type Sequence []Item

// Empty reports whether the sequence has no items.
func (s Sequence) Empty() bool { return len(s) == 0 }

// One returns the single item of a singleton sequence.
func (s Sequence) One() (Item, error) {
	if len(s) != 1 {
		return nil, fmt.Errorf("xdm: expected a singleton sequence, got %d items", len(s))
	}
	return s[0], nil
}

// AtMostOne returns the item of a zero-or-one sequence (nil for empty).
func (s Sequence) AtMostOne() (Item, error) {
	switch len(s) {
	case 0:
		return nil, nil
	case 1:
		return s[0], nil
	default:
		return nil, fmt.Errorf("xdm: expected at most one item, got %d", len(s))
	}
}

// Singleton builds a one-item sequence.
func Singleton(i Item) Sequence { return Sequence{i} }

// True and False are the two boolean results, shared by every
// expression that returns one: read-only, like every sequence a caller
// is returned (nobody writes into one; the seqwrite pass of
// tools/analyzers holds the evaluator and the library to it).
var (
	True  = Sequence{Boolean(true)}
	False = Sequence{Boolean(false)}
)

// Bool returns True or False: a boolean result without an allocation.
func Bool(b bool) Sequence {
	if b {
		return True
	}
	return False
}

// --- Atomic value types -------------------------------------------------

// String is xs:string.
type String string

// Type implements Item.
func (String) Type() Type { return TString }

func (v String) String() string { return string(v) }

// UntypedAtomic is xs:untypedAtomic: the type of atomized untyped nodes
// (all browser DOM content, since web pages are schemaless).
type UntypedAtomic string

// Type implements Item.
func (UntypedAtomic) Type() Type { return TUntypedAtomic }

func (v UntypedAtomic) String() string { return string(v) }

// AnyURI is xs:anyURI.
type AnyURI string

// Type implements Item.
func (AnyURI) Type() Type { return TAnyURI }

func (v AnyURI) String() string { return string(v) }

// Boolean is xs:boolean.
type Boolean bool

// Type implements Item.
func (Boolean) Type() Type { return TBoolean }

func (v Boolean) String() string {
	if v {
		return "true"
	}
	return "false"
}

// Integer is xs:integer.
type Integer int64

// Type implements Item.
func (Integer) Type() Type { return TInteger }

func (v Integer) String() string { return strconv.FormatInt(int64(v), 10) }

// Double is xs:double (xs:float is widened to it).
type Double float64

// Type implements Item.
func (Double) Type() Type { return TDouble }

func (v Double) String() string { return formatDouble(float64(v)) }

// formatDouble renders the XPath canonical-ish lexical form of a double.
func formatDouble(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "INF"
	case math.IsInf(f, -1):
		return "-INF"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		s := fmt.Sprintf("%g", f)
		return strings.Replace(s, "e+0", "E", 1)
	}
}

// Decimal is xs:decimal, backed by an exact rational.
type Decimal struct{ r *big.Rat }

// DecimalFromInt builds a Decimal with integer value n.
func DecimalFromInt(n int64) Decimal { return Decimal{r: new(big.Rat).SetInt64(n)} }

// DecimalFromString parses a decimal lexical form.
func DecimalFromString(s string) (Decimal, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.ContainsAny(s, "eE") {
		return Decimal{}, fmt.Errorf("xdm: invalid xs:decimal %q", s)
	}
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return Decimal{}, fmt.Errorf("xdm: invalid xs:decimal %q", s)
	}
	return Decimal{r: r}, nil
}

// Rat returns the underlying rational (not a copy).
func (v Decimal) Rat() *big.Rat {
	if v.r == nil {
		return new(big.Rat)
	}
	return v.r
}

// Type implements Item.
func (Decimal) Type() Type { return TDecimal }

func (v Decimal) String() string {
	r := v.Rat()
	if r.IsInt() {
		return r.Num().String()
	}
	// Render with up to 18 fractional digits, trimming zeros.
	s := r.FloatString(18)
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	return s
}

// Float64 returns the nearest float64.
func (v Decimal) Float64() float64 { f, _ := v.Rat().Float64(); return f }

// QNameValue is xs:QName.
type QNameValue struct{ Name dom.QName }

// Type implements Item.
func (QNameValue) Type() Type { return TQName }

func (v QNameValue) String() string { return v.Name.String() }

// DateTime is xs:dateTime, xs:date or xs:time depending on kind.
type DateTime struct {
	T     time.Time
	Kind  Type // TDateTime, TDate or TTime
	HasTZ bool
}

// Type implements Item.
func (v DateTime) Type() Type { return v.Kind }

func (v DateTime) String() string {
	var s string
	switch v.Kind {
	case TDate:
		s = v.T.Format("2006-01-02")
	case TTime:
		s = v.T.Format("15:04:05")
	default:
		s = v.T.Format("2006-01-02T15:04:05")
	}
	if v.HasTZ {
		if _, off := v.T.Zone(); off == 0 {
			s += "Z"
		} else {
			s += v.T.Format("-07:00")
		}
	}
	return s
}

// Duration is xs:duration. YearMonth components are stored in Months;
// DayTime components in Nanos. xs:yearMonthDuration and
// xs:dayTimeDuration constrain one part to zero.
type Duration struct {
	Months int64
	Nanos  time.Duration
	Kind   Type // TDuration, TYearMonthDuration or TDayTimeDuration
}

// Type implements Item.
func (v Duration) Type() Type {
	if v.Kind == 0 {
		return TDuration
	}
	return v.Kind
}

func (v Duration) String() string {
	neg := v.Months < 0 || (v.Months == 0 && v.Nanos < 0)
	m, n := v.Months, v.Nanos
	if neg {
		m, n = -m, -n
	}
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	b.WriteByte('P')
	if y := m / 12; y > 0 {
		fmt.Fprintf(&b, "%dY", y)
	}
	if mo := m % 12; mo > 0 {
		fmt.Fprintf(&b, "%dM", mo)
	}
	day := int64(n / (24 * time.Hour))
	n -= time.Duration(day) * 24 * time.Hour
	if day > 0 {
		fmt.Fprintf(&b, "%dD", day)
	}
	h := int64(n / time.Hour)
	n -= time.Duration(h) * time.Hour
	mi := int64(n / time.Minute)
	n -= time.Duration(mi) * time.Minute
	secs := n.Seconds()
	if h > 0 || mi > 0 || secs != 0 {
		b.WriteByte('T')
		if h > 0 {
			fmt.Fprintf(&b, "%dH", h)
		}
		if mi > 0 {
			fmt.Fprintf(&b, "%dM", mi)
		}
		if secs != 0 {
			s := fmt.Sprintf("%g", secs)
			fmt.Fprintf(&b, "%sS", s)
		}
	}
	out := b.String()
	if out == "P" || out == "-P" {
		return "PT0S"
	}
	return out
}

// --- Node items ---------------------------------------------------------

// Node wraps a dom node as an XDM item. The wrapper is a value type;
// two Nodes are the same XDM node iff their N pointers are equal.
type Node struct{ N *dom.Node }

// NewNode wraps a dom node.
func NewNode(n *dom.Node) Node { return Node{N: n} }

// Type implements Item.
func (n Node) Type() Type {
	switch n.N.Type {
	case dom.DocumentNode:
		return TDocumentNode
	case dom.ElementNode:
		return TElementNode
	case dom.AttributeNode:
		return TAttributeNode
	case dom.TextNode:
		return TTextNode
	case dom.CommentNode:
		return TCommentNode
	default:
		return TPINode
	}
}

func (n Node) String() string { return n.N.StringValue() }

// IsNode reports whether the item is a node and unwraps it.
func IsNode(i Item) (*dom.Node, bool) {
	n, ok := i.(Node)
	if !ok {
		return nil, false
	}
	return n.N, true
}

// --- Atomization and effective boolean value ----------------------------

// Atomize maps an item to its typed value: nodes become xs:untypedAtomic
// (our documents are schemaless), comments/PIs become xs:string per the
// XDM accessor rules, atomics pass through.
func Atomize(i Item) Item {
	n, ok := i.(Node)
	if !ok {
		return i
	}
	switch n.N.Type {
	case dom.CommentNode, dom.ProcessingInstructionNode:
		return String(n.N.StringValue())
	default:
		return UntypedAtomic(n.N.StringValue())
	}
}

// AtomizeSequence atomizes every item of a sequence.
func AtomizeSequence(s Sequence) Sequence {
	out := make(Sequence, len(s))
	for i, it := range s {
		out[i] = Atomize(it)
	}
	return out
}

// EffectiveBooleanValue computes fn:boolean over a sequence per XPath:
// empty is false; a sequence whose first item is a node is true; a
// singleton atomic follows its type's rules; anything else is an error.
func EffectiveBooleanValue(s Sequence) (bool, error) {
	if len(s) == 0 {
		return false, nil
	}
	if _, ok := s[0].(Node); ok {
		return true, nil
	}
	if len(s) > 1 {
		return false, fmt.Errorf("xdm: effective boolean value of a sequence of %d atomic items", len(s))
	}
	switch v := s[0].(type) {
	case Boolean:
		return bool(v), nil
	case String:
		return v != "", nil
	case UntypedAtomic:
		return v != "", nil
	case AnyURI:
		return v != "", nil
	case Integer:
		return v != 0, nil
	case Decimal:
		return v.Rat().Sign() != 0, nil
	case Double:
		return !(float64(v) == 0 || math.IsNaN(float64(v))), nil
	default:
		return false, fmt.Errorf("xdm: no effective boolean value for %s", v.Type())
	}
}

// DeepEqual implements fn:deep-equal over two items.
func DeepEqual(a, b Item) bool {
	na, aok := a.(Node)
	nb, bok := b.(Node)
	if aok != bok {
		return false
	}
	if aok {
		return deepEqualNode(na.N, nb.N)
	}
	// Atomic: compare with eq semantics; unequal types that cannot be
	// compared are not equal. NaN equals NaN for deep-equal.
	if da, ok := a.(Double); ok && math.IsNaN(float64(da)) {
		if db, ok := b.(Double); ok && math.IsNaN(float64(db)) {
			return true
		}
	}
	eq, err := CompareValues("eq", a, b)
	return err == nil && eq
}

func deepEqualNode(a, b *dom.Node) bool {
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case dom.TextNode, dom.CommentNode:
		return a.Data == b.Data
	case dom.AttributeNode:
		return a.Name.Matches(b.Name) && a.Data == b.Data
	case dom.ProcessingInstructionNode:
		return a.Name.Local == b.Name.Local && a.Data == b.Data
	}
	if a.Type == dom.ElementNode {
		if !a.Name.Matches(b.Name) {
			return false
		}
		if len(a.Attrs()) != len(b.Attrs()) {
			return false
		}
		for _, aa := range a.Attrs() {
			v, ok := b.Attr(aa.Name)
			if !ok || v != aa.Data {
				return false
			}
		}
	}
	// Compare children ignoring comments and PIs, per fn:deep-equal.
	ac := significantChildren(a)
	bc := significantChildren(b)
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if !deepEqualNode(ac[i], bc[i]) {
			return false
		}
	}
	return true
}

func significantChildren(n *dom.Node) []*dom.Node {
	var out []*dom.Node
	for _, c := range n.Children() {
		if c.Type == dom.CommentNode || c.Type == dom.ProcessingInstructionNode {
			continue
		}
		out = append(out, c)
	}
	return out
}
