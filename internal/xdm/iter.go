package xdm

import "fmt"

// Iter is a pull-based (Volcano-style) item stream: the lazy counterpart
// of Sequence. Next returns the next item and true, or (nil, false, nil)
// when the stream is exhausted, or an error. After false or an error the
// iterator must not be pulled again.
//
// Iterators let consumers that only need a prefix of a sequence —
// fn:exists, positional predicates, quantifiers, general comparisons —
// stop pulling as soon as the answer is decided, instead of
// materializing every intermediate result. Producers that inherently
// need the whole sequence (sorts, fn:last(), order by, the pending
// update list) materialize explicitly via Materialize.
type Iter interface {
	Next() (Item, bool, error)
}

// IterFunc adapts a closure to the Iter interface.
type IterFunc func() (Item, bool, error)

// Next implements Iter.
func (f IterFunc) Next() (Item, bool, error) { return f() }

// sliceIter streams a materialized sequence.
type sliceIter struct {
	s Sequence
	i int
}

func (it *sliceIter) Next() (Item, bool, error) {
	if it.i >= len(it.s) {
		return nil, false, nil
	}
	item := it.s[it.i]
	it.i++
	return item, true, nil
}

// FromSlice adapts a materialized sequence to the Iter interface.
func FromSlice(s Sequence) Iter { return &sliceIter{s: s} }

// EmptyIter returns an iterator over the empty sequence.
func EmptyIter() Iter { return &sliceIter{} }

// SingletonIter returns an iterator over a one-item sequence.
func SingletonIter(i Item) Iter { return &sliceIter{s: Sequence{i}} }

// ErrIter returns an iterator that fails with err on the first pull.
func ErrIter(err error) Iter {
	return IterFunc(func() (Item, bool, error) { return nil, false, err })
}

// Unpulled returns the sequence behind an iterator FromSlice made that
// nobody has pulled from yet: the whole of what it will answer, with no
// copy.
func Unpulled(it Iter) (Sequence, bool) {
	if s, ok := it.(*sliceIter); ok && s.i == 0 {
		return s.s, true
	}
	return nil, false
}

// Materialize drains an iterator into a sequence. This is the single
// place lazy evaluation gives way to eager: sorts, last(), order by and
// snapshot (PUL) semantics call it.
func Materialize(it Iter) (Sequence, error) {
	if s, ok := Unpulled(it); ok {
		return s, nil
	}
	var out Sequence
	for {
		item, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, item)
	}
}

// MaterializeAtMost pulls up to max+1 items (to detect overflow) and
// returns them. Consumers with cardinality rules (zero-or-one, EBV) use
// it to bound their pulls.
func MaterializeAtMost(it Iter, max int) (Sequence, error) {
	var out Sequence
	for len(out) <= max {
		item, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, item)
	}
	return out, nil
}

// ConcatIters streams the concatenation of several iterators.
func ConcatIters(its ...Iter) Iter {
	i := 0
	return IterFunc(func() (Item, bool, error) {
		for i < len(its) {
			item, ok, err := its[i].Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return item, true, nil
			}
			i++
		}
		return nil, false, nil
	})
}

// EffectiveBooleanValueIter computes fn:boolean over a stream pulling at
// most two items: empty is false, a first-item node is true, a singleton
// atomic follows its type's rules, two or more atomics are an error.
func EffectiveBooleanValueIter(it Iter) (bool, error) {
	first, ok, err := it.Next()
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	if _, isNode := first.(Node); isNode {
		return true, nil
	}
	_, more, err := it.Next()
	if err != nil {
		return false, err
	}
	if more {
		return false, fmt.Errorf("xdm: effective boolean value of a sequence of two or more atomic items")
	}
	return EffectiveBooleanValue(Sequence{first})
}

// GeneralCompareStream applies a general comparison (=, !=, <, <=, >,
// >=) streaming the left operand against a materialized right operand:
// true iff some pair of items compares true, with untypedAtomic coerced
// to the other operand's type (or double against numbers) per XPath
// 2.0. It stops pulling as soon as one pair compares true; the result
// is implementation-ordered, so errors hidden behind an early match may
// not surface.
func GeneralCompareStream(op string, a Iter, b Sequence) (bool, error) {
	vop := valueOp(op)
	if vop == "" {
		return false, fmt.Errorf("xdm: unknown general comparison %q", op)
	}
	if len(b) == 0 {
		return false, nil
	}
	bAtomized := AtomizeSequence(b)
	for {
		item, ok, err := a.Next()
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
		x := Atomize(item)
		for _, y := range bAtomized {
			xi, yi, err := coerceGeneralPair(x, y)
			if err != nil {
				return false, err
			}
			ok, err := CompareValues(vop, xi, yi)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
}
