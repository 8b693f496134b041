package funclib

import (
	"fmt"
	"math"

	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
)

// This file holds the built-ins whose answer is decided by a prefix of
// their argument — fn:exists pulls one item, fn:zero-or-one at most two,
// fn:subsequence stops at the end of its window — and fn:collection,
// which hands a store's documents over one at a time. Each has one body,
// its Stream; streamed derives from it the Invoke that callers holding
// materialized arguments use.

// streamed registers an fn: function accepting min to max arguments
// whose body is s. Its Invoke runs s over the argument slices.
func streamed(reg *runtime.Registry, local string, min, max int,
	s func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error)) {
	reg.Register(&runtime.Function{Name: fnName(local), MinArgs: min, MaxArgs: max, Stream: s,
		Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
			iters := make([]xdm.Iter, len(args))
			for i, a := range args {
				iters[i] = xdm.FromSlice(a)
			}
			it, err := s(ctx, iters)
			if err != nil {
				return nil, err
			}
			return xdm.Materialize(it)
		}})
}

func registerStreaming(reg *runtime.Registry) {
	streamed(reg, "exists", 1, 1, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		_, ok, err := args[0].Next()
		if err != nil {
			return nil, err
		}
		return xdm.FromSlice(xdm.Bool(ok)), nil
	})
	streamed(reg, "empty", 1, 1, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		_, ok, err := args[0].Next()
		if err != nil {
			return nil, err
		}
		return xdm.FromSlice(xdm.Bool(!ok)), nil
	})
	streamed(reg, "count", 1, 1, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		// Counting drains the stream but never stores it.
		var n int64
		for {
			_, ok, err := args[0].Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				return xdm.SingletonIter(xdm.Integer(n)), nil
			}
			n++
		}
	})
	streamed(reg, "head", 1, 1, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		first, ok, err := args[0].Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return xdm.EmptyIter(), nil
		}
		return xdm.SingletonIter(first), nil
	})
	streamed(reg, "tail", 1, 1, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		_, _, err := args[0].Next()
		if err != nil {
			return nil, err
		}
		return args[0], nil
	})
	streamed(reg, "zero-or-one", 1, 1, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		s, err := xdm.MaterializeAtMost(args[0], 1)
		if err != nil {
			return nil, err
		}
		if len(s) > 1 {
			return nil, fmt.Errorf("fn:zero-or-one: sequence has more than one item")
		}
		return xdm.FromSlice(s), nil
	})
	streamed(reg, "one-or-more", 1, 1, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		first, ok, err := args[0].Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("fn:one-or-more: empty sequence")
		}
		return xdm.ConcatIters(xdm.SingletonIter(first), args[0]), nil
	})
	streamed(reg, "boolean", 1, 1, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		b, err := xdm.EffectiveBooleanValueIter(args[0])
		if err != nil {
			return nil, err
		}
		return xdm.FromSlice(xdm.Bool(b)), nil
	})
	streamed(reg, "not", 1, 1, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		b, err := xdm.EffectiveBooleanValueIter(args[0])
		if err != nil {
			return nil, err
		}
		return xdm.FromSlice(xdm.Bool(!b)), nil
	})
	streamed(reg, "subsequence", 2, 3, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		// The window is the positions p with round(start) <= p <
		// round(start) + round(length), compared as doubles.
		startSeq, err := xdm.Materialize(args[1])
		if err != nil {
			return nil, err
		}
		start, err := numArg(startSeq)
		if err != nil {
			return nil, err
		}
		if start == nil {
			return xdm.EmptyIter(), nil
		}
		from := math.Round(toF(start))
		to := math.Inf(1)
		if len(args) == 3 {
			lenSeq, err := xdm.Materialize(args[2])
			if err != nil {
				return nil, err
			}
			l, err := numArg(lenSeq)
			if err != nil {
				return nil, err
			}
			if l == nil {
				return xdm.EmptyIter(), nil
			}
			to = from + math.Round(toF(l))
		}
		if !(from < to) {
			// An empty window, or a NaN bound (start -INF with length
			// INF, say): no position is in it.
			return xdm.EmptyIter(), nil
		}
		in := args[0]
		p := 0.0
		done := false
		return xdm.IterFunc(func() (xdm.Item, bool, error) {
			for !done {
				if p+1 >= to {
					// The next position is past the window: stop
					// without pulling the input any further.
					break
				}
				item, ok, err := in.Next()
				if err != nil {
					return nil, false, err
				}
				if !ok {
					break
				}
				p++
				if p >= from {
					return item, true, nil
				}
			}
			done = true
			return nil, false, nil
		}), nil
	})
	streamed(reg, "collection", 0, 1, func(ctx *runtime.Context, args []xdm.Iter) (xdm.Iter, error) {
		// The context's source streams the documents (the sharded
		// store's incremental shard merge one Next at a time), so
		// collection($c)[1] pulls a single merge step instead of
		// materialising the collection; the run's memo replays what an
		// earlier call of the same URI pulled.
		if ctx.Prog != nil && ctx.Prog.BlockDoc {
			return nil, fmt.Errorf("fn:collection is blocked in the browser profile")
		}
		uri := ""
		if len(args) == 1 {
			seq, err := xdm.Materialize(args[0])
			if err != nil {
				return nil, err
			}
			if uri, err = stringArg(seq); err != nil {
				return nil, err
			}
		}
		if ctx.Collections == nil {
			return nil, fmt.Errorf("fn:collection: no collection resolver available")
		}
		it, err := ctx.Collection(uri)
		if err != nil {
			return nil, fmt.Errorf("fn:collection(%q): %w", uri, err)
		}
		return it, nil
	})
}
