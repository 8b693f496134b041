package xdm

import (
	"fmt"
	"math"
	"math/big"
	"strings"
)

// CompareValues applies a value comparison (eq, ne, lt, le, gt, ge) to
// two atomic items with XPath 2.0 promotion rules: untypedAtomic is
// treated as string; integer/decimal/double promote pairwise to the
// wider type. Incomparable type pairs yield an error (err:XPTY0004).
func CompareValues(op string, a, b Item) (bool, error) {
	c, err := compareAtomic(a, b)
	if err == errNaN {
		// Comparisons involving NaN are false, except ne which is true.
		return op == "ne", nil
	}
	if err != nil {
		return false, err
	}
	switch op {
	case "eq":
		return c == 0, nil
	case "ne":
		return c != 0, nil
	case "lt":
		return c < 0, nil
	case "le":
		return c <= 0, nil
	case "gt":
		return c > 0, nil
	case "ge":
		return c >= 0, nil
	default:
		return false, fmt.Errorf("xdm: unknown value comparison %q", op)
	}
}

// nanErr signals an unordered comparison involving NaN: every comparison
// with NaN is false except ne, which CompareValues handles specially.
var errNaN = fmt.Errorf("xdm: NaN comparison")

func compareAtomic(a, b Item) (int, error) {
	ta, tb := a.Type(), b.Type()
	// untypedAtomic compares as string.
	if ta == TUntypedAtomic {
		a, ta = String(a.String()), TString
	}
	if tb == TUntypedAtomic {
		b, tb = String(b.String()), TString
	}
	switch {
	case ta.IsNumeric() && tb.IsNumeric():
		return compareNumeric(a, b)
	case (ta == TString || ta == TAnyURI) && (tb == TString || tb == TAnyURI):
		return strings.Compare(a.String(), b.String()), nil
	case ta == TBoolean && tb == TBoolean:
		x, y := bool(a.(Boolean)), bool(b.(Boolean))
		switch {
		case x == y:
			return 0, nil
		case !x:
			return -1, nil
		default:
			return 1, nil
		}
	case (ta == TDate || ta == TTime || ta == TDateTime) && ta == tb:
		x, y := a.(DateTime), b.(DateTime)
		if x.T.Before(y.T) {
			return -1, nil
		}
		if x.T.After(y.T) {
			return 1, nil
		}
		return 0, nil
	case isDurationType(ta) && isDurationType(tb):
		x, y := a.(Duration), b.(Duration)
		// Order by approximate total length (months = 30 days).
		xf := float64(x.Months)*30*24*3600e9 + float64(x.Nanos)
		yf := float64(y.Months)*30*24*3600e9 + float64(y.Nanos)
		switch {
		case xf < yf:
			return -1, nil
		case xf > yf:
			return 1, nil
		default:
			return 0, nil
		}
	case ta == TQName && tb == TQName:
		if a.(QNameValue).Name.Matches(b.(QNameValue).Name) {
			return 0, nil
		}
		return strings.Compare(a.String(), b.String()), nil
	}
	return 0, fmt.Errorf("xdm: cannot compare %s with %s", ta, tb)
}

func isDurationType(t Type) bool {
	return t == TDuration || t == TYearMonthDuration || t == TDayTimeDuration
}

func compareNumeric(a, b Item) (int, error) {
	ta, tb := a.Type(), b.Type()
	if ta == TDouble || tb == TDouble {
		x, y := toFloat(a), toFloat(b)
		if math.IsNaN(x) || math.IsNaN(y) {
			return 0, errNaN
		}
		switch {
		case x < y:
			return -1, nil
		case x > y:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if ta == TDecimal || tb == TDecimal {
		return toRat(a).Cmp(toRat(b)), nil
	}
	x, y := int64(a.(Integer)), int64(b.(Integer))
	switch {
	case x < y:
		return -1, nil
	case x > y:
		return 1, nil
	default:
		return 0, nil
	}
}

func toFloat(i Item) float64 {
	switch v := i.(type) {
	case Integer:
		return float64(v)
	case Decimal:
		return v.Float64()
	case Double:
		return float64(v)
	default:
		return math.NaN()
	}
}

func toRat(i Item) *big.Rat {
	switch v := i.(type) {
	case Integer:
		return new(big.Rat).SetInt64(int64(v))
	case Decimal:
		return v.Rat()
	default:
		r := new(big.Rat)
		r.SetFloat64(toFloat(i))
		return r
	}
}

// valueOp returns the value comparison a general comparison applies to
// each pair of items, or "" for an unknown operator.
func valueOp(op string) string {
	switch op {
	case "=":
		return "eq"
	case "!=":
		return "ne"
	case "<":
		return "lt"
	case "<=":
		return "le"
	case ">":
		return "gt"
	case ">=":
		return "ge"
	}
	return ""
}

// coerceGeneralPair applies the untypedAtomic coercion rules of general
// comparisons.
func coerceGeneralPair(x, y Item) (Item, Item, error) {
	tx, ty := x.Type(), y.Type()
	if tx == TUntypedAtomic && ty != TUntypedAtomic {
		c, err := coerceUntyped(x, ty)
		if err != nil {
			return nil, nil, err
		}
		return c, y, nil
	}
	if ty == TUntypedAtomic && tx != TUntypedAtomic {
		c, err := coerceUntyped(y, tx)
		if err != nil {
			return nil, nil, err
		}
		return x, c, nil
	}
	return x, y, nil
}

func coerceUntyped(u Item, other Type) (Item, error) {
	switch {
	case other.IsNumeric():
		return Cast(u, TDouble)
	case other == TUntypedAtomic || other == TString || other == TAnyURI:
		return String(u.String()), nil
	default:
		return Cast(u, other)
	}
}

// CompareForSort orders two atomic items for `order by`: the empty
// comparison conventions are handled by the caller; NaN sorts per
// emptyLeast handling (callers place NaN like empty). Returns an error
// for incomparable types.
func CompareForSort(a, b Item) (int, error) {
	c, err := compareAtomic(a, b)
	if err == errNaN {
		// Total order for sorting: NaN first.
		an := isNaN(a)
		bn := isNaN(b)
		switch {
		case an && bn:
			return 0, nil
		case an:
			return -1, nil
		default:
			return 1, nil
		}
	}
	return c, err
}

func isNaN(i Item) bool {
	d, ok := i.(Double)
	return ok && math.IsNaN(float64(d))
}
