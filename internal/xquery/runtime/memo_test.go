package runtime

import (
	"errors"
	"testing"

	"repro/internal/dom"
	"repro/internal/xdm"
)

// countingSource streams n fresh elements per Documents call, failing
// at item failAt (0: never) or at Documents for the URI "missing".
type countingSource struct {
	n, failAt       int
	resolves, pulls int
}

var errTorn = errors.New("torn")

func (s *countingSource) Documents(uri string) (xdm.Iter, error) {
	s.resolves++
	if uri == "missing" {
		return nil, errTorn
	}
	i := 0
	return xdm.IterFunc(func() (xdm.Item, bool, error) {
		if i == s.n {
			return nil, false, nil
		}
		i++
		s.pulls++
		if i == s.failAt {
			return nil, false, errTorn
		}
		return xdm.NewNode(dom.NewElement(dom.Name("d"))), true, nil
	}), nil
}

func pull(t *testing.T, it xdm.Iter, k int) (xdm.Sequence, error) {
	t.Helper()
	var out xdm.Sequence
	for len(out) < k {
		item, ok, err := it.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, item)
	}
	return out, nil
}

func TestCollectionReplaysInterleavedReaders(t *testing.T) {
	src := &countingSource{n: 4}
	ctx := NewContext(&Program{})
	ctx.Collections = src
	a, _ := ctx.Collection("c")
	first, _ := pull(t, a, 1)
	b, _ := ctx.Collection("c")
	second, _ := pull(t, b, 3) // one replayed, two streamed
	rest, _ := pull(t, a, 10)
	all := append(first, rest...)
	if len(all) != 4 || len(second) != 3 {
		t.Fatalf("read %d and %d items, want 4 and 3", len(all), len(second))
	}
	for i := range second {
		x, _ := xdm.IsNode(all[i])
		y, _ := xdm.IsNode(second[i])
		if x != y {
			t.Errorf("item %d differs between the two readers", i)
		}
	}
	c, _ := ctx.Collection("c") // drained: the buffer itself
	if s, ok := xdm.Unpulled(c); !ok || len(s) != 4 {
		t.Errorf("a drained collection answers %T, want its buffer", c)
	}
	if src.resolves != 1 || src.pulls != 4 {
		t.Errorf("%d resolutions and %d pulls, want 1 and 4", src.resolves, src.pulls)
	}
}

func TestCollectionReplaysItsErrors(t *testing.T) {
	src := &countingSource{n: 4, failAt: 2}
	ctx := NewContext(&Program{})
	ctx.Collections = src
	for call := 0; call < 2; call++ {
		it, err := ctx.Collection("c")
		if err != nil {
			t.Fatal(err)
		}
		got, err := pull(t, it, 10)
		if len(got) != 1 || !errors.Is(err, errTorn) {
			t.Errorf("call %d: %d items then %v, want 1 then %v", call, len(got), err, errTorn)
		}
		if _, err := ctx.Collection("missing"); !errors.Is(err, errTorn) {
			t.Errorf("call %d: an unresolvable URI answered %v", call, err)
		}
	}
	if src.resolves != 2 || src.pulls != 2 {
		t.Errorf("%d resolutions and %d pulls, want 2 and 2", src.resolves, src.pulls)
	}
}

func TestDocResolvesEachURIOnce(t *testing.T) {
	calls := map[string]int{}
	ctx := NewContext(&Program{})
	ctx.Docs = func(uri string) (*dom.Node, error) {
		calls[uri]++
		if uri == "missing" {
			return nil, errTorn
		}
		return dom.NewDocument(), nil
	}
	uris := []string{"a", "b", "missing", "c"}
	var first []*dom.Node
	for round := 0; round < 3; round++ {
		for i, u := range uris {
			n, err := ctx.Doc(u)
			if (err != nil) != (u == "missing") {
				t.Fatalf("doc(%s): %v", u, err)
			}
			if round == 0 {
				first = append(first, n)
			} else if n != first[i] {
				t.Errorf("round %d: doc(%s) is another node", round, u)
			}
		}
	}
	for _, u := range uris {
		if calls[u] != 1 {
			t.Errorf("%s resolved %d times, want 1", u, calls[u])
		}
	}
	// A detached context has a memo of its own; a dropped memo starts
	// over.
	d := ctx.detach()
	if n, _ := d.Doc("a"); n == first[0] {
		t.Error("a detached context answered from the run's memo")
	}
	if n, _ := d.Doc("a"); calls["a"] != 2 {
		t.Errorf("a resolved %d times after two detached calls, want 2", calls["a"])
	} else if m, _ := d.Doc("a"); m != n {
		t.Error("a detached context's doc(a) is not stable")
	}
	ctx.memo.drop()
	ctx.Doc("a")
	if calls["a"] != 3 {
		t.Errorf("a resolved %d times after a drop, want 3", calls["a"])
	}
}

// TestNestedFinishHasItsOwnMemo: an evaluation Finish starts while
// another runs, in a run derived from it (a listener a page script
// triggers), resolves through a memo of its own and, ending, leaves the
// outer one's intact; the outer one's Finish ends its memo.
func TestNestedFinishHasItsOwnMemo(t *testing.T) {
	calls := 0
	ctx := NewContext(&Program{})
	ctx.Docs = func(string) (*dom.Node, error) { calls++; return dom.NewDocument(), nil }
	_, _, err := ctx.Finish("outer", func() (xdm.Sequence, error) {
		a, _ := ctx.Doc("u")
		inner := ctx.Derive(func(*Run) {})
		if _, _, err := inner.Finish("inner", func() (xdm.Sequence, error) {
			if n, _ := inner.Doc("u"); n == a {
				t.Error("the nested evaluation answered from the outer one's memo")
			}
			return nil, nil
		}); err != nil {
			return nil, err
		}
		if b, _ := ctx.Doc("u"); b != a {
			t.Error("doc(u) changed identity across the nested evaluation")
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("u resolved %d times, want 2 (outer, nested)", calls)
	}
	ctx.Doc("u")
	if calls != 3 {
		t.Errorf("u resolved %d times after the outer evaluation ended, want 3", calls)
	}
}
