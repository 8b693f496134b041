package runtime

import (
	"fmt"

	"repro/internal/xdm"
	"repro/internal/xquery/ast"
)

// EvalPathPerStep evaluates a path one whole step at a time, the
// reference TestPathIterMatchesPerStep holds pathIter to: the first
// step runs against the context's own focus, and every later step sees
// the whole sorted, deduplicated result of the one before it.
func (ctx *Context) EvalPathPerStep(p ast.Path) (xdm.Sequence, error) {
	steps := p.Steps
	if p.Absolute {
		n, ok := xdm.IsNode(ctx.Item)
		if !ok {
			return nil, fmt.Errorf("xquery: absolute path requires a node context item")
		}
		return ctx.continueSteps(xdm.Singleton(xdm.NewNode(n.Root())), steps)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("xquery: empty path")
	}
	first, err := ctx.evalStep(&steps[0], ctx.Item, ctx.Pos, ctx.Size, ctx.newStepKeys(&steps[0]))
	if err != nil {
		return nil, err
	}
	res, err := ctx.finishStep(first, len(steps) == 1)
	if err != nil {
		return nil, err
	}
	return ctx.continueSteps(res, steps[1:])
}
