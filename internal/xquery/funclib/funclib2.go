package funclib

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"time"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
)

// --- sequences ----------------------------------------------------------------

func registerSequences(reg *runtime.Registry) {
	simple(reg, "reverse", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		in := args[0]
		out := make(xdm.Sequence, len(in))
		for i, it := range in {
			out[len(in)-1-i] = it
		}
		return out, nil
	})
	simple(reg, "data", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.AtomizeSequence(args[0]), nil
	})
	simple(reg, "distinct-values", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		seen := map[string]bool{}
		var out xdm.Sequence
		for _, it := range xdm.AtomizeSequence(args[0]) {
			k := valueKey(it)
			if !seen[k] {
				seen[k] = true
				out = append(out, it)
			}
		}
		return out, nil
	})
	simple(reg, "insert-before", 3, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		pos, err := intArg(args[1])
		if err != nil {
			return nil, err
		}
		target, ins := args[0], args[2]
		if pos < 1 {
			pos = 1
		}
		if pos > int64(len(target))+1 {
			pos = int64(len(target)) + 1
		}
		out := make(xdm.Sequence, 0, len(target)+len(ins))
		out = append(out, target[:pos-1]...)
		out = append(out, ins...)
		out = append(out, target[pos-1:]...)
		return out, nil
	})
	simple(reg, "remove", 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		pos, err := intArg(args[1])
		if err != nil {
			return nil, err
		}
		in := args[0]
		if pos < 1 || pos > int64(len(in)) {
			return in, nil
		}
		out := make(xdm.Sequence, 0, len(in)-1)
		out = append(out, in[:pos-1]...)
		out = append(out, in[pos:]...)
		return out, nil
	})
	simple(reg, "index-of", 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		search, err := xdm.AtomizeSequence(args[1]).One()
		if err != nil {
			return nil, err
		}
		var out xdm.Sequence
		for i, it := range xdm.AtomizeSequence(args[0]) {
			eq, err := xdm.CompareValues("eq", it, search)
			if err == nil && eq {
				out = append(out, xdm.Integer(i+1))
			}
		}
		return out, nil
	})
	simple(reg, "exactly-one", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) != 1 {
			return nil, fmt.Errorf("fn:exactly-one: sequence has %d items", len(args[0]))
		}
		return args[0], nil
	})
	ranged(reg, "deep-equal", 2, 3, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		a, b := args[0], args[1]
		if len(a) != len(b) {
			return xdm.False, nil
		}
		for i := range a {
			if !xdm.DeepEqual(a[i], b[i]) {
				return xdm.False, nil
			}
		}
		return xdm.True, nil
	})
	ranged(reg, "error", 0, 3, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		msg := "fn:error called"
		if len(args) >= 2 {
			d, err := stringArg(args[1])
			if err == nil && d != "" {
				msg = d
			}
		} else if len(args) == 1 {
			if c, err := stringArg(args[0]); err == nil && c != "" {
				msg = c
			}
		}
		return nil, fmt.Errorf("%s", msg)
	})
	simple(reg, "trace", 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return args[0], nil
	})
}

// valueKey builds a distinct-values equality key: numerics collapse to
// their double value, strings/untyped to their text.
func valueKey(it xdm.Item) string {
	t := it.Type()
	switch {
	case t.IsNumeric():
		f := toF(it)
		if math.IsNaN(f) {
			return "num:NaN"
		}
		return fmt.Sprintf("num:%v", f)
	case t == xdm.TString || t == xdm.TUntypedAtomic || t == xdm.TAnyURI:
		return "str:" + it.String()
	case t == xdm.TBoolean:
		return "bool:" + it.String()
	default:
		return t.String() + ":" + it.String()
	}
}

// --- aggregates ----------------------------------------------------------------

func registerAggregates(reg *runtime.Registry) {
	ranged(reg, "sum", 1, 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		items := xdm.AtomizeSequence(args[0])
		if len(items) == 0 {
			if len(args) == 2 {
				return args[1], nil
			}
			return integer(0), nil
		}
		acc, err := coerceNumericOrDuration(items[0])
		if err != nil {
			return nil, err
		}
		for _, it := range items[1:] {
			v, err := coerceNumericOrDuration(it)
			if err != nil {
				return nil, err
			}
			if acc, err = xdm.Arithmetic("+", acc, v); err != nil {
				return nil, err
			}
		}
		return xdm.Singleton(acc), nil
	})
	simple(reg, "avg", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		items := xdm.AtomizeSequence(args[0])
		if len(items) == 0 {
			return nil, nil
		}
		acc, err := coerceNumericOrDuration(items[0])
		if err != nil {
			return nil, err
		}
		for _, it := range items[1:] {
			v, err := coerceNumericOrDuration(it)
			if err != nil {
				return nil, err
			}
			if acc, err = xdm.Arithmetic("+", acc, v); err != nil {
				return nil, err
			}
		}
		r, err := xdm.Arithmetic("div", acc, xdm.Integer(int64(len(items))))
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(r), nil
	})
	extreme := func(local, op string) {
		ranged(reg, local, 1, 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			items := xdm.AtomizeSequence(args[0])
			if len(items) == 0 {
				return nil, nil
			}
			best, err := coerceComparable(items[0])
			if err != nil {
				return nil, err
			}
			for _, it := range items[1:] {
				v, err := coerceComparable(it)
				if err != nil {
					return nil, err
				}
				better, err := xdm.CompareValues(op, v, best)
				if err != nil {
					return nil, err
				}
				if better {
					best = v
				}
			}
			return xdm.Singleton(best), nil
		})
	}
	extreme("min", "lt")
	extreme("max", "gt")
}

func coerceNumericOrDuration(it xdm.Item) (xdm.Item, error) {
	t := it.Type()
	switch {
	case t == xdm.TUntypedAtomic:
		return xdm.Cast(it, xdm.TDouble)
	case t.IsNumeric(), t == xdm.TDuration, t == xdm.TYearMonthDuration, t == xdm.TDayTimeDuration:
		return it, nil
	default:
		return nil, fmt.Errorf("fn: cannot aggregate %s values", t)
	}
}

func coerceComparable(it xdm.Item) (xdm.Item, error) {
	if it.Type() == xdm.TUntypedAtomic {
		return xdm.Cast(it, xdm.TDouble)
	}
	return it, nil
}

// --- nodes ------------------------------------------------------------------------

func registerNodes(reg *runtime.Registry) {
	nodeArg := func(ctx *runtime.Context, args []xdm.Sequence) (*dom.Node, error) {
		s, err := argOrContext(ctx, args)
		if err != nil {
			return nil, err
		}
		it, err := s.AtMostOne()
		if err != nil || it == nil {
			return nil, err
		}
		n, ok := xdm.IsNode(it)
		if !ok {
			return nil, fmt.Errorf("fn: expected a node")
		}
		return n, nil
	}
	ranged(reg, "name", 0, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := nodeArg(ctx, args)
		if err != nil || n == nil {
			return str(""), err
		}
		switch n.Type {
		case dom.ElementNode, dom.AttributeNode, dom.ProcessingInstructionNode:
			return str(n.Name.String()), nil
		default:
			return str(""), nil
		}
	})
	ranged(reg, "local-name", 0, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := nodeArg(ctx, args)
		if err != nil || n == nil {
			return str(""), err
		}
		return str(n.Name.Local), nil
	})
	ranged(reg, "namespace-uri", 0, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := nodeArg(ctx, args)
		if err != nil || n == nil {
			return str(""), err
		}
		return str(n.Name.Space), nil
	})
	ranged(reg, "root", 0, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := nodeArg(ctx, args)
		if err != nil || n == nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewNode(n.Root())), nil
	})
	ranged(reg, "base-uri", 0, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := nodeArg(ctx, args)
		if err != nil || n == nil {
			return nil, err
		}
		if b := n.Base(); b != "" {
			return xdm.Singleton(xdm.AnyURI(b)), nil
		}
		return nil, nil
	})
	// fn:id — elements with matching id attributes, the XQuery twin of
	// getElementById (our documents are schemaless, so any attribute
	// named "id" qualifies).
	ranged(reg, "id", 1, 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		var root *dom.Node
		if len(args) == 2 {
			it, err := args[1].One()
			if err != nil {
				return nil, err
			}
			n, ok := xdm.IsNode(it)
			if !ok {
				return nil, fmt.Errorf("fn:id: second argument must be a node")
			}
			root = n.Root()
		} else {
			n, ok := xdm.IsNode(ctx.Item)
			if !ok {
				return nil, fmt.Errorf("fn:id: context item is not a node")
			}
			root = n.Root()
		}
		want := map[string]bool{}
		for _, it := range xdm.AtomizeSequence(args[0]) {
			for _, id := range strings.Fields(it.String()) {
				want[id] = true
			}
		}
		// The tree's id map answers each value in O(matches); the
		// per-value lists merge back to document order through the one
		// document-order sort. NoIndex, and NoIndexBuild on a tree with
		// no map yet, fall back to the full walk.
		if ctx.UsesIDMap(root) {
			var nodes []*dom.Node
			for id := range want {
				nodes = root.AppendByID(nodes, id, true)
			}
			return runtime.SortedNodeSequence(nodes), nil
		}
		var out xdm.Sequence
		root.Walk(func(n *dom.Node) bool {
			if n.Type == dom.ElementNode && want[n.AttrValue("id")] && n.AttrValue("id") != "" {
				out = append(out, xdm.NewNode(n))
			}
			return true
		})
		return out, nil
	})
	simple(reg, "node-name", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := nodeArg(ctx, args)
		if err != nil || n == nil {
			return nil, err
		}
		if n.Name.IsZero() {
			return nil, nil
		}
		return xdm.Singleton(xdm.QNameValue{Name: n.Name}), nil
	})
}

// --- dates ------------------------------------------------------------------------

func registerDates(reg *runtime.Registry) {
	simple(reg, "current-dateTime", 0, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Singleton(xdm.DateTime{T: ctx.Now, Kind: xdm.TDateTime, HasTZ: true}), nil
	})
	simple(reg, "current-date", 0, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		y, m, d := ctx.Now.Date()
		return xdm.Singleton(xdm.DateTime{T: timeDate(y, int(m), d), Kind: xdm.TDate, HasTZ: false}), nil
	})
	simple(reg, "current-time", 0, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Singleton(xdm.DateTime{T: ctx.Now, Kind: xdm.TTime, HasTZ: true}), nil
	})
	component := func(local string, kinds []xdm.Type, f func(dt xdm.DateTime) xdm.Item) {
		simple(reg, local, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			it, err := xdm.AtomizeSequence(args[0]).AtMostOne()
			if err != nil || it == nil {
				return nil, err
			}
			if it.Type() == xdm.TUntypedAtomic || it.Type() == xdm.TString {
				for _, k := range kinds {
					if c, err := xdm.Cast(it, k); err == nil {
						it = c
						break
					}
				}
			}
			dt, ok := it.(xdm.DateTime)
			if !ok {
				return nil, fmt.Errorf("fn:%s: expected a date/time, got %s", local, it.Type())
			}
			return xdm.Singleton(f(dt)), nil
		})
	}
	component("year-from-dateTime", []xdm.Type{xdm.TDateTime}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(dt.T.Year()) })
	component("month-from-dateTime", []xdm.Type{xdm.TDateTime}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(int64(dt.T.Month())) })
	component("day-from-dateTime", []xdm.Type{xdm.TDateTime}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(dt.T.Day()) })
	component("hours-from-dateTime", []xdm.Type{xdm.TDateTime}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(dt.T.Hour()) })
	component("minutes-from-dateTime", []xdm.Type{xdm.TDateTime}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(dt.T.Minute()) })
	component("seconds-from-dateTime", []xdm.Type{xdm.TDateTime}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(dt.T.Second()) })
	component("year-from-date", []xdm.Type{xdm.TDate}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(dt.T.Year()) })
	component("month-from-date", []xdm.Type{xdm.TDate}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(int64(dt.T.Month())) })
	component("day-from-date", []xdm.Type{xdm.TDate}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(dt.T.Day()) })
	component("hours-from-time", []xdm.Type{xdm.TTime}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(dt.T.Hour()) })
	component("minutes-from-time", []xdm.Type{xdm.TTime}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(dt.T.Minute()) })
	component("seconds-from-time", []xdm.Type{xdm.TTime}, func(dt xdm.DateTime) xdm.Item { return xdm.Integer(dt.T.Second()) })

	durComponent := func(local string, f func(d xdm.Duration) xdm.Item) {
		simple(reg, local, 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			it, err := xdm.AtomizeSequence(args[0]).AtMostOne()
			if err != nil || it == nil {
				return nil, err
			}
			if it.Type() == xdm.TUntypedAtomic || it.Type() == xdm.TString {
				if c, err := xdm.Cast(it, xdm.TDuration); err == nil {
					it = c
				}
			}
			d, ok := it.(xdm.Duration)
			if !ok {
				return nil, fmt.Errorf("fn:%s: expected a duration, got %s", local, it.Type())
			}
			return xdm.Singleton(f(d)), nil
		})
	}
	durComponent("years-from-duration", func(d xdm.Duration) xdm.Item {
		return xdm.Integer(d.Months / 12)
	})
	durComponent("months-from-duration", func(d xdm.Duration) xdm.Item {
		return xdm.Integer(d.Months % 12)
	})
	durComponent("days-from-duration", func(d xdm.Duration) xdm.Item {
		return xdm.Integer(int64(d.Nanos.Hours()) / 24)
	})
	durComponent("hours-from-duration", func(d xdm.Duration) xdm.Item {
		return xdm.Integer(int64(d.Nanos.Hours()) % 24)
	})
	durComponent("minutes-from-duration", func(d xdm.Duration) xdm.Item {
		return xdm.Integer(int64(d.Nanos.Minutes()) % 60)
	})
	durComponent("seconds-from-duration", func(d xdm.Duration) xdm.Item {
		return mustSecondsDecimal(d.Nanos % time.Minute)
	})
}

func timeDate(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

// mustSecondsDecimal renders a sub-minute duration as an exact decimal
// number of seconds.
func mustSecondsDecimal(d time.Duration) xdm.Decimal {
	neg := d < 0
	if neg {
		d = -d
	}
	s := fmt.Sprintf("%d.%09d", d/time.Second, d%time.Second)
	if neg {
		s = "-" + s
	}
	dec, err := xdm.DecimalFromString(s)
	if err != nil {
		return xdm.DecimalFromInt(int64(d / time.Second))
	}
	return dec
}

// --- regex -------------------------------------------------------------------------

func registerRegex(reg *runtime.Registry) {
	compile := func(pattern, flags string) (*regexp.Regexp, error) {
		var goFlags string
		for _, f := range flags {
			switch f {
			case 'i':
				goFlags += "i"
			case 's':
				goFlags += "s"
			case 'm':
				goFlags += "m"
			case 'x':
				// Free-spacing mode: strip whitespace.
				pattern = strings.Join(strings.Fields(pattern), "")
			default:
				return nil, fmt.Errorf("fn: unsupported regex flag %q", string(f))
			}
		}
		if goFlags != "" {
			pattern = "(?" + goFlags + ")" + pattern
		}
		return regexp.Compile(pattern)
	}
	ranged(reg, "matches", 2, 3, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		pat, err := stringArg(args[1])
		if err != nil {
			return nil, err
		}
		flags := ""
		if len(args) == 3 {
			if flags, err = stringArg(args[2]); err != nil {
				return nil, err
			}
		}
		re, err := compile(pat, flags)
		if err != nil {
			return nil, err
		}
		return xdm.Bool(re.MatchString(s)), nil
	})
	ranged(reg, "replace", 3, 4, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		pat, err := stringArg(args[1])
		if err != nil {
			return nil, err
		}
		rep, err := stringArg(args[2])
		if err != nil {
			return nil, err
		}
		flags := ""
		if len(args) == 4 {
			if flags, err = stringArg(args[3]); err != nil {
				return nil, err
			}
		}
		re, err := compile(pat, flags)
		if err != nil {
			return nil, err
		}
		// XPath uses $1..$9 for group references, same as Go's Expand.
		return str(re.ReplaceAllString(s, rep)), nil
	})
	ranged(reg, "tokenize", 2, 3, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		s, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		pat, err := stringArg(args[1])
		if err != nil {
			return nil, err
		}
		flags := ""
		if len(args) == 3 {
			if flags, err = stringArg(args[2]); err != nil {
				return nil, err
			}
		}
		re, err := compile(pat, flags)
		if err != nil {
			return nil, err
		}
		if s == "" {
			return nil, nil
		}
		var out xdm.Sequence
		for _, part := range re.Split(s, -1) {
			out = append(out, xdm.String(part))
		}
		return out, nil
	})
}

// --- documents and context ------------------------------------------------------------

func registerDocs(reg *runtime.Registry) {
	simple(reg, "doc", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if ctx.Prog != nil && ctx.Prog.BlockDoc {
			// Paper §4.2.1: fn:doc and fn:put are blocked in the browser
			// for security; use browser:document and REST instead.
			return nil, fmt.Errorf("fn:doc is blocked in the browser profile")
		}
		uri, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		if ctx.Docs == nil {
			return nil, fmt.Errorf("fn:doc: no document resolver available")
		}
		doc, err := ctx.Doc(uri)
		if err != nil {
			return nil, fmt.Errorf("fn:doc(%q): %w", uri, err)
		}
		return xdm.Singleton(xdm.NewNode(doc)), nil
	})
	simple(reg, "doc-available", 1, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if ctx.Prog != nil && ctx.Prog.BlockDoc {
			return xdm.False, nil
		}
		uri, err := stringArg(args[0])
		if err != nil {
			return nil, err
		}
		if ctx.Docs == nil {
			return xdm.False, nil
		}
		// The run's memo answers the fn:doc that follows, so the two agree.
		_, err = ctx.Doc(uri)
		return xdm.Bool(err == nil), nil
	})
	simple(reg, "put", 2, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return nil, fmt.Errorf("fn:put is blocked (paper §4.2.1)")
	})
}

func registerContext(reg *runtime.Registry) {
	simple(reg, "position", 0, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if ctx.Pos == 0 {
			return nil, fmt.Errorf("fn:position: context position is undefined")
		}
		return integer(int64(ctx.Pos)), nil
	})
	simple(reg, "last", 0, func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if ctx.Size == 0 {
			return nil, fmt.Errorf("fn:last: context size is undefined")
		}
		return integer(int64(ctx.Size)), nil
	})
}
