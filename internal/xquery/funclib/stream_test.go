package funclib

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

// eagerReference holds a materializing body for each streamed built-in
// of stream.go, which sees its arguments whole: the oracle the streams
// are held to.
var eagerReference = map[string]func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error){
	"empty": func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Bool(len(args[0]) == 0), nil
	},
	"exists": func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Bool(len(args[0]) > 0), nil
	},
	"count": func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		return integer(int64(len(args[0]))), nil
	},
	"head": func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) == 0 {
			return nil, nil
		}
		return xdm.Singleton(args[0][0]), nil
	},
	"tail": func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) <= 1 {
			return nil, nil
		}
		return args[0][1:], nil
	},
	"zero-or-one": func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) > 1 {
			return nil, fmt.Errorf("fn:zero-or-one: sequence has %d items", len(args[0]))
		}
		return args[0], nil
	},
	"one-or-more": func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if len(args[0]) == 0 {
			return nil, fmt.Errorf("fn:one-or-more: empty sequence")
		}
		return args[0], nil
	},
	"not": func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		b, err := xdm.EffectiveBooleanValue(args[0])
		if err != nil {
			return nil, err
		}
		return xdm.Bool(!b), nil
	},
	"boolean": func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		b, err := xdm.EffectiveBooleanValue(args[0])
		if err != nil {
			return nil, err
		}
		return xdm.Bool(b), nil
	},
	"subsequence": func(_ *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		start, err := numArg(args[1])
		if err != nil || start == nil {
			return nil, err
		}
		from := math.Round(toF(start))
		to := math.Inf(1)
		if len(args) == 3 {
			l, err := numArg(args[2])
			if err != nil || l == nil {
				return nil, err
			}
			to = from + math.Round(toF(l))
		}
		var out xdm.Sequence
		for i, it := range args[0] {
			p := float64(i + 1)
			if p >= from && p < to {
				out = append(out, it)
			}
		}
		return out, nil
	},
	"collection": func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
		if ctx.Prog != nil && ctx.Prog.BlockDoc {
			return nil, fmt.Errorf("fn:collection is blocked in the browser profile")
		}
		if ctx.Collections == nil {
			return nil, fmt.Errorf("fn:collection: no collection resolver available")
		}
		uri := ""
		if len(args) == 1 {
			var err error
			if uri, err = stringArg(args[0]); err != nil {
				return nil, err
			}
		}
		it, err := ctx.Collections.Documents(uri)
		if err != nil {
			return nil, fmt.Errorf("fn:collection(%q): %w", uri, err)
		}
		return xdm.Materialize(it)
	},
}

// iterSource is a streaming runtime.CollectionSource over a function.
type iterSource func(uri string) (xdm.Iter, error)

func (f iterSource) Documents(uri string) (xdm.Iter, error) { return f(uri) }

var errInjected = errors.New("injected argument error")

// refArg is one argument: its items, and — when failAt > 0 — the pull
// that fails instead of yielding item failAt.
type refArg struct {
	items  xdm.Sequence
	failAt int
}

func (a refArg) iter() xdm.Iter {
	i := 0
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		if i+1 == a.failAt {
			return nil, false, errInjected
		}
		if i == len(a.items) {
			return nil, false, nil
		}
		i++
		return a.items[i-1], true, nil
	})
}

// render prints a result so that two results compare equal exactly
// when they hold the same items: nodes by identity, atomics by type and
// value.
func render(s xdm.Sequence, err error) string {
	if err != nil {
		return "error"
	}
	var b strings.Builder
	for _, it := range s {
		if n, ok := xdm.IsNode(it); ok {
			fmt.Fprintf(&b, "node %p, ", n)
		} else {
			fmt.Fprintf(&b, "%s %s, ", it.Type(), it)
		}
	}
	return b.String()
}

// checkAgainstReference runs one call through the Stream body, through
// the Invoke derived from it and through the reference: a stream may
// skip an error past its decision point, never add one; where both
// succeed they agree; and over error-free arguments Invoke gives what
// the reference gives.
func checkAgainstReference(t *testing.T, reg *runtime.Registry, ctx *runtime.Context, local string, args []refArg) {
	t.Helper()
	f := reg.Lookup(dom.QName{Space: parser.FnNamespace, Local: local}, len(args))
	if f == nil || f.Stream == nil {
		t.Fatalf("fn:%s#%d is not streamed", local, len(args))
	}
	iters := make([]xdm.Iter, len(args))
	slices := make([]xdm.Sequence, len(args))
	faulty := false
	for i, a := range args {
		iters[i], slices[i] = a.iter(), a.items
		faulty = faulty || (a.failAt > 0 && a.failAt <= len(a.items)+1)
	}
	want := "error"
	if !faulty {
		want = render(eagerReference[local](ctx, slices))
	}
	label := fmt.Sprintf("fn:%s%v", local, args)
	it, err := f.Stream(ctx, iters)
	var got string
	if err != nil {
		got = render(nil, err)
	} else {
		got = render(xdm.Materialize(it))
	}
	switch {
	case got == "error" && want != "error":
		t.Errorf("%s: the stream errs, the reference gives %s", label, want)
	case got != "error" && want != "error" && got != want:
		t.Errorf("%s: stream %s, reference %s", label, got, want)
	}
	if !faulty {
		if inv := render(f.Invoke(ctx, slices)); inv != want {
			t.Errorf("%s: Invoke %s, reference %s", label, inv, want)
		}
	}
}

func TestStreamedBuiltinsMatchReference(t *testing.T) {
	doc, err := markup.Parse(`<r><a/><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	node := xdm.NewNode(doc.DocumentElement())
	long := make(xdm.Sequence, 100)
	for i := range long {
		long[i] = xdm.Integer(i + 1)
	}
	nan, inf := xdm.Double(math.NaN()), xdm.Double(math.Inf(1))
	seqs := []refArg{
		{},
		{items: xdm.Sequence{xdm.Integer(1)}},
		{items: xdm.Sequence{xdm.Integer(0)}},
		{items: xdm.Sequence{xdm.String("")}},
		{items: xdm.Sequence{xdm.String("x")}},
		{items: xdm.Sequence{xdm.Boolean(false)}},
		{items: xdm.Sequence{nan}},
		{items: xdm.Sequence{inf}},
		{items: xdm.Sequence{node}},
		{items: xdm.Sequence{node, xdm.Integer(0)}},
		{items: xdm.Sequence{xdm.Integer(1), xdm.Integer(2)}},
		{items: xdm.Sequence{xdm.Integer(1), node}},
		{items: long},
		{items: xdm.Sequence{xdm.Integer(1)}, failAt: 1},
		{items: xdm.Sequence{xdm.Integer(1), xdm.Integer(2)}, failAt: 2},
		{items: xdm.Sequence{node, node}, failAt: 2},
		{items: long, failAt: 3},
		{items: long, failAt: 101},
	}
	reg := runtime.NewRegistry()
	Register(reg)
	ctx := &runtime.Context{}
	for _, local := range []string{"empty", "exists", "count", "head", "tail", "zero-or-one", "one-or-more", "not", "boolean"} {
		for _, s := range seqs {
			checkAgainstReference(t, reg, ctx, local, []refArg{s})
		}
	}

	one := func(it xdm.Item) refArg { return refArg{items: xdm.Sequence{it}} }
	positions := []refArg{
		{},
		one(xdm.Integer(1)), one(xdm.Integer(0)), one(xdm.Integer(3)), one(xdm.Integer(-2)),
		one(xdm.Double(1.5)), one(xdm.Double(1.4)), one(xdm.UntypedAtomic("2")),
		one(nan), one(inf), one(xdm.Double(math.Inf(-1))),
		one(xdm.String("x")),
		{items: xdm.Sequence{xdm.Integer(1), xdm.Integer(2)}},
		{items: xdm.Sequence{xdm.Integer(1)}, failAt: 1},
	}
	for _, s := range []refArg{{}, {items: xdm.Sequence{xdm.Integer(7)}}, {items: long}, {items: long, failAt: 2}, {items: long, failAt: 50}} {
		for _, start := range positions {
			checkAgainstReference(t, reg, ctx, "subsequence", []refArg{s, start})
			for _, length := range positions {
				checkAgainstReference(t, reg, ctx, "subsequence", []refArg{s, start, length})
			}
		}
	}

	docs := []*dom.Node{doc, doc.DocumentElement()}
	// Two forms of one source: "missing" fails to resolve, "torn" fails
	// at its second document.
	slice := runtime.CollectionResolver(func(uri string) ([]*dom.Node, error) {
		if uri == "missing" || uri == "torn" {
			return nil, errInjected
		}
		return docs, nil
	})
	iter := iterSource(func(uri string) (xdm.Iter, error) {
		if uri == "missing" {
			return nil, errInjected
		}
		s := xdm.Sequence{xdm.NewNode(docs[0]), xdm.NewNode(docs[1])}
		if uri == "torn" {
			return refArg{items: s, failAt: 2}.iter(), nil
		}
		return xdm.FromSlice(s), nil
	})
	for _, c := range []*runtime.Context{
		{Run: &runtime.Run{}},
		{Run: &runtime.Run{Collections: slice}},
		{Run: &runtime.Run{Collections: iter}},
		{Run: &runtime.Run{Collections: slice}, Prog: &runtime.Program{BlockDoc: true}},
	} {
		checkAgainstReference(t, reg, c, "collection", nil)
		for _, uri := range []refArg{{}, one(xdm.String("c")), one(xdm.String("missing")), one(xdm.String("torn")),
			{items: xdm.Sequence{xdm.String("c"), xdm.String("d")}}, {items: xdm.Sequence{xdm.String("c")}, failAt: 1}} {
			checkAgainstReference(t, reg, c, "collection", []refArg{uri})
		}
	}
}
