// Package funclib implements the fn: function and operator library
// (paper §3.1: "a whole function library in this namespace, e.g. sum,
// distinct-values"). Register installs roughly ninety built-ins into a
// runtime registry; Library is the one frozen registry layer every
// engine of the process stacks its own functions on.
package funclib

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

var (
	libOnce sync.Once
	lib     *runtime.Registry
)

// Library returns the process-wide built-in layer: the whole fn:/xs:/ft:
// library, registered once and frozen, so engines share it instead of
// re-registering ~350 closures each. No built-in keeps state between
// calls, which is what makes one copy safe for every engine and
// goroutine. Because it is frozen, Register on it fails; host functions
// go on a layer above it (Registry.Layer).
func Library() *runtime.Registry {
	libOnce.Do(func() {
		lib = runtime.NewRegistry()
		Register(lib)
		lib.Freeze()
	})
	return lib
}

// Register installs the built-in function library on a writable layer.
func Register(reg *runtime.Registry) {
	registerStrings(reg)
	registerNumeric(reg)
	registerBooleans(reg)
	registerSequences(reg)
	registerStreaming(reg)
	registerAggregates(reg)
	registerNodes(reg)
	registerDates(reg)
	registerRegex(reg)
	registerDocs(reg)
	registerContext(reg)
	registerConstructors(reg)
	registerFullText(reg)
}

// registerConstructors installs the xs: constructor functions
// (xs:integer("5"), xs:date("2008-01-01"), ...), which are casts.
func registerConstructors(reg *runtime.Registry) {
	names := []string{"string", "boolean", "decimal", "integer", "int",
		"long", "double", "float", "date", "time", "dateTime", "duration",
		"yearMonthDuration", "dayTimeDuration", "QName", "anyURI",
		"untypedAtomic"}
	for _, local := range names {
		typ, ok := xdm.AtomicTypeByName(local)
		if !ok {
			continue
		}
		t := typ
		reg.Register(&runtime.Function{
			Name:    dom.QName{Space: parser.XSNamespace, Prefix: "xs", Local: local},
			MinArgs: 1, MaxArgs: 1,
			Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
				it, err := xdm.AtomizeSequence(args[0]).AtMostOne()
				if err != nil || it == nil {
					return nil, err
				}
				c, err := xdm.Cast(it, t)
				if err != nil {
					return nil, err
				}
				return xdm.Singleton(c), nil
			},
		})
	}
}

// fnName builds a QName in the fn namespace.
func fnName(local string) dom.QName {
	return dom.QName{Space: parser.FnNamespace, Prefix: "fn", Local: local}
}

// simple registers a fixed-arity fn: function.
func simple(reg *runtime.Registry, local string, arity int,
	f func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error)) {
	reg.Register(&runtime.Function{Name: fnName(local), MinArgs: arity, MaxArgs: arity, Invoke: f})
}

// ranged registers an fn: function with optional arguments.
func ranged(reg *runtime.Registry, local string, min, max int,
	f func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error)) {
	reg.Register(&runtime.Function{Name: fnName(local), MinArgs: min, MaxArgs: max, Invoke: f})
}

// --- argument helpers ------------------------------------------------------

// argOrContext returns args[0] if present, else the context item.
func argOrContext(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
	if len(args) > 0 {
		return args[0], nil
	}
	if ctx.Item == nil {
		return nil, fmt.Errorf("fn: context item is undefined")
	}
	return xdm.Singleton(ctx.Item), nil
}

// stringArg atomizes a zero-or-one sequence to a string ("" for empty).
func stringArg(s xdm.Sequence) (string, error) {
	it, err := xdm.AtomizeSequence(s).AtMostOne()
	if err != nil || it == nil {
		return "", err
	}
	return it.String(), nil
}

// numArg atomizes a zero-or-one sequence to a numeric item (nil for
// empty); untyped values are cast to double.
func numArg(s xdm.Sequence) (xdm.Item, error) {
	it, err := xdm.AtomizeSequence(s).AtMostOne()
	if err != nil || it == nil {
		return nil, err
	}
	if it.Type() == xdm.TUntypedAtomic {
		return xdm.Cast(it, xdm.TDouble)
	}
	if !it.Type().IsNumeric() {
		return nil, fmt.Errorf("fn: expected a number, got %s", it.Type())
	}
	return it, nil
}

// intArg atomizes a required integer argument.
func intArg(s xdm.Sequence) (int64, error) {
	it, err := xdm.AtomizeSequence(s).One()
	if err != nil {
		return 0, err
	}
	c, err := xdm.Cast(it, xdm.TInteger)
	if err != nil {
		return 0, err
	}
	return int64(c.(xdm.Integer)), nil
}

func str(s string) xdm.Sequence { return xdm.Singleton(xdm.String(s)) }

func integer(n int64) xdm.Sequence { return xdm.Singleton(xdm.Integer(n)) }

// --- strings ----------------------------------------------------------------

func registerStrings(reg *runtime.Registry) {
	ranged(reg, "string", 0, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := argOrContext(ctx, args)
		if err != nil {
			return nil, err
		}
		it, err := s.AtMostOne()
		if err != nil {
			return nil, err
		}
		if it == nil {
			return str(""), nil
		}
		return str(it.String()), nil
	})
	reg.Register(&runtime.Function{Name: fnName("concat"), MinArgs: 2, MaxArgs: -1,
		Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			var b strings.Builder
			for _, a := range args {
				s, err := stringArg(a)
				if err != nil {
					return nil, err
				}
				b.WriteString(s)
			}
			return str(b.String()), nil
		}})
	ranged(reg, "string-join", 1, 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		sep := ""
		if len(args) == 2 {
			var err error
			if sep, err = stringArg(args[1]); err != nil {
				return nil, err
			}
		}
		parts := make([]string, len(args[0]))
		for i, it := range xdm.AtomizeSequence(args[0]) {
			parts[i] = it.String()
		}
		return str(strings.Join(parts, sep)), nil
	})
	ranged(reg, "substring", 2, 3, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		start, err := numArg(args[1])
		if err != nil {
			return nil, err
		}
		if start == nil {
			return str(""), nil
		}
		runes := []rune(s)
		from := math.Round(toF(start))
		to := math.Inf(1)
		if len(args) == 3 {
			l, err := numArg(args[2])
			if err != nil {
				return nil, err
			}
			if l == nil {
				return str(""), nil
			}
			to = from + math.Round(toF(l))
		}
		var b strings.Builder
		for i, r := range runes {
			p := float64(i + 1)
			if p >= from && p < to {
				b.WriteRune(r)
			}
		}
		return str(b.String()), nil
	})
	ranged(reg, "string-length", 0, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := argOrContext(ctx, args)
		if err != nil {
			return nil, err
		}
		v, err := stringArg(s)
		if err != nil {
			return nil, err
		}
		return integer(int64(len([]rune(v)))), nil
	})
	// The paper's AJAX example calls fn:length on a string (§4.4); keep
	// it as an alias for string-length.
	ranged(reg, "length", 0, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := argOrContext(ctx, args)
		if err != nil {
			return nil, err
		}
		v, err := stringArg(s)
		if err != nil {
			return nil, err
		}
		return integer(int64(len([]rune(v)))), nil
	})
	ranged(reg, "normalize-space", 0, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := argOrContext(ctx, args)
		if err != nil {
			return nil, err
		}
		v, err := stringArg(s)
		if err != nil {
			return nil, err
		}
		return str(strings.Join(strings.Fields(v), " ")), nil
	})
	simple(reg, "upper-case", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		v, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		return str(strings.ToUpper(v)), nil
	})
	simple(reg, "lower-case", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		v, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		return str(strings.ToLower(v)), nil
	})
	simple(reg, "translate", 3, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		from, err := stringArg(args[1])
		if err != nil {
			return nil, err
		}
		to, err := stringArg(args[2])
		if err != nil {
			return nil, err
		}
		fr, tr := []rune(from), []rune(to)
		var b strings.Builder
		for _, r := range s {
			idx := -1
			for i, f := range fr {
				if f == r {
					idx = i
					break
				}
			}
			switch {
			case idx < 0:
				b.WriteRune(r)
			case idx < len(tr):
				b.WriteRune(tr[idx])
			}
		}
		return str(b.String()), nil
	})
	binStr := func(local string, f func(a, b string) bool) {
		simple(reg, local, 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			a, err := stringArg(args[0])
			if err != nil {
				return nil, err
			}
			b, err := stringArg(args[1])
			if err != nil {
				return nil, err
			}
			return xdm.Bool(f(a, b)), nil
		})
	}
	binStr("contains", strings.Contains)
	binStr("starts-with", strings.HasPrefix)
	binStr("ends-with", strings.HasSuffix)
	simple(reg, "substring-before", 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		a, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		b, err := stringArg(args[1])
		if err != nil {
			return nil, err
		}
		if i := strings.Index(a, b); i >= 0 && b != "" {
			return str(a[:i]), nil
		}
		return str(""), nil
	})
	simple(reg, "substring-after", 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		a, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		b, err := stringArg(args[1])
		if err != nil {
			return nil, err
		}
		if i := strings.Index(a, b); i >= 0 && b != "" {
			return str(a[i+len(b):]), nil
		}
		return str(""), nil
	})
	simple(reg, "compare", 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		a, err := xdm.AtomizeSequence(args[0]).AtMostOne()
		if err != nil || a == nil {
			return nil, err
		}
		b, err := xdm.AtomizeSequence(args[1]).AtMostOne()
		if err != nil || b == nil {
			return nil, err
		}
		return integer(int64(strings.Compare(a.String(), b.String()))), nil
	})
	simple(reg, "codepoints-to-string", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		var b strings.Builder
		for _, it := range xdm.AtomizeSequence(args[0]) {
			c, err := xdm.Cast(it, xdm.TInteger)
			if err != nil {
				return nil, err
			}
			b.WriteRune(rune(c.(xdm.Integer)))
		}
		return str(b.String()), nil
	})
	simple(reg, "string-to-codepoints", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		var out xdm.Sequence
		for _, r := range s {
			out = append(out, xdm.Integer(r))
		}
		return out, nil
	})
	simple(reg, "encode-for-uri", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		const unreserved = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_.~"
		var b strings.Builder
		for _, c := range []byte(s) {
			if strings.IndexByte(unreserved, c) >= 0 {
				b.WriteByte(c)
			} else {
				fmt.Fprintf(&b, "%%%02X", c)
			}
		}
		return str(b.String()), nil
	})
}

func toF(it xdm.Item) float64 {
	c, err := xdm.Cast(it, xdm.TDouble)
	if err != nil {
		return math.NaN()
	}
	return float64(c.(xdm.Double))
}

// --- numeric -----------------------------------------------------------------

func registerNumeric(reg *runtime.Registry) {
	unary := func(local string, f func(xdm.Item) (xdm.Item, error)) {
		simple(reg, local, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			v, err := numArg(args[0])
			if err != nil || v == nil {
				return nil, err
			}
			r, err := f(v)
			if err != nil {
				return nil, err
			}
			return xdm.Singleton(r), nil
		})
	}
	unary("abs", func(v xdm.Item) (xdm.Item, error) {
		neg, err := xdm.CompareValues("lt", v, xdm.Integer(0))
		if err != nil {
			return nil, err
		}
		if neg {
			return xdm.Negate(v)
		}
		return v, nil
	})
	unary("floor", func(v xdm.Item) (xdm.Item, error) {
		if d, ok := v.(xdm.Double); ok {
			return xdm.Double(math.Floor(float64(d))), nil
		}
		f := math.Floor(toF(v))
		return xdm.Integer(int64(f)), nil
	})
	unary("ceiling", func(v xdm.Item) (xdm.Item, error) {
		if d, ok := v.(xdm.Double); ok {
			return xdm.Double(math.Ceil(float64(d))), nil
		}
		f := math.Ceil(toF(v))
		return xdm.Integer(int64(f)), nil
	})
	unary("round", func(v xdm.Item) (xdm.Item, error) {
		if d, ok := v.(xdm.Double); ok {
			return xdm.Double(math.Floor(float64(d) + 0.5)), nil
		}
		f := math.Floor(toF(v) + 0.5)
		return xdm.Integer(int64(f)), nil
	})
	ranged(reg, "round-half-to-even", 1, 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		v, err := numArg(args[0])
		if err != nil || v == nil {
			return nil, err
		}
		prec := int64(0)
		if len(args) == 2 {
			if prec, err = intArg(args[1]); err != nil {
				return nil, err
			}
		}
		scale := math.Pow(10, float64(prec))
		f := toF(v) * scale
		r := math.RoundToEven(f) / scale
		if _, ok := v.(xdm.Double); ok {
			return xdm.Singleton(xdm.Double(r)), nil
		}
		if prec <= 0 {
			return integer(int64(r)), nil
		}
		d, err := xdm.DecimalFromString(fmt.Sprintf("%.*f", prec, r))
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(d), nil
	})
	ranged(reg, "number", 0, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := argOrContext(ctx, args)
		if err != nil {
			return nil, err
		}
		it, err := xdm.AtomizeSequence(s).AtMostOne()
		if err != nil || it == nil {
			return xdm.Singleton(xdm.Double(math.NaN())), nil
		}
		c, err := xdm.Cast(it, xdm.TDouble)
		if err != nil {
			return xdm.Singleton(xdm.Double(math.NaN())), nil
		}
		return xdm.Singleton(c), nil
	})
}

// --- booleans ---------------------------------------------------------------

func registerBooleans(reg *runtime.Registry) {
	simple(reg, "true", 0, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.True, nil
	})
	simple(reg, "false", 0, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.False, nil
	})
}
