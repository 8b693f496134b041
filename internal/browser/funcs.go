package browser

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/funclib"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/runtime"
)

// The browser: function namespace (paper §4.2), and the high-order
// event functions of §5.1. A function acts on the browser and the window
// whose script is executing, which it reads from the run's Hooks value
// (see Hooks), so security checks always know the caller's origin and a
// function never reaches another page's state.

// Hooks is the Hooks value of a run in which a page's or a frame's
// script executes: the runtime's extension points plus the browser and
// the window that script runs in. The host sets it per run; every
// browser: function fails in a run whose Hooks is not one.
type Hooks interface {
	runtime.Hooks
	Window() (*Browser, *Window)
}

func bName(local string) dom.QName {
	return dom.QName{Space: parser.BrowserNamespace, Prefix: "browser", Local: local}
}

// Functions returns the browser: namespace: one frozen registry layer
// above funclib.Library(), built on first use and shared by every page
// engine of the process (xquery.NewAbove), the linter and the goldens.
var Functions = sync.OnceValue(func() *runtime.Registry {
	reg := funclib.Library().Layer()
	register(reg)
	reg.Freeze()
	return reg
})

func register(reg *runtime.Registry) {
	add := func(local string, min, max int,
		f func(ctx *runtime.Context, b *Browser, w *Window, args []xdm.Sequence) (xdm.Sequence, error)) {
		reg.Register(&runtime.Function{Name: bName(local), MinArgs: min, MaxArgs: max,
			Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
				h, ok := ctx.Hooks.(Hooks)
				if !ok {
					return nil, fmt.Errorf("browser:%s is only available in a page's script", local)
				}
				b, w := h.Window()
				return f(ctx, b, w, args)
			}})
	}
	str0 := func(args []xdm.Sequence) string {
		if len(args) == 0 || len(args[0]) == 0 {
			return ""
		}
		return xdm.Atomize(args[0][0]).String()
	}

	// browser:top() — the topmost window as XML (§4.2.1). Marked
	// non-deterministic in the paper: every call pulls fresh state.
	add("top", 0, 0, func(_ *runtime.Context, b *Browser, w *Window, _ []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Singleton(xdm.NewNode(b.WindowTree(w))), nil
	})
	// browser:self() — the executing window's node, a descendant of the
	// tree that browser:top() returns.
	add("self", 0, 0, func(_ *runtime.Context, b *Browser, w *Window, _ []xdm.Sequence) (xdm.Sequence, error) {
		n := b.ViewOf(w, w)
		if n == nil {
			return nil, nil
		}
		return xdm.Singleton(xdm.NewNode(n)), nil
	})
	// browser:document($window?) — the document behind a window node
	// (§4.2.3); subject to the security check, empty sequence on
	// failure.
	add("document", 0, 1, func(_ *runtime.Context, b *Browser, w *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		target := w
		if len(args) == 1 {
			it, err := args[0].AtMostOne()
			if err != nil {
				return nil, err
			}
			if it == nil {
				return nil, nil
			}
			n, ok := xdm.IsNode(it)
			if !ok {
				return nil, fmt.Errorf("browser:document expects a window node")
			}
			tw, ok := b.WindowOf(n)
			if !ok {
				return nil, fmt.Errorf("browser:document: not a window node")
			}
			target = tw
		}
		if !b.Policy.CanAccess(w, target) || target.Document == nil {
			return nil, nil // empty sequence on security failure (§4.2.3)
		}
		return xdm.Singleton(xdm.NewNode(target.Document)), nil
	})
	add("screen", 0, 0, func(_ *runtime.Context, b *Browser, _ *Window, _ []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Singleton(xdm.NewNode(b.ScreenTree())), nil
	})
	add("navigator", 0, 0, func(_ *runtime.Context, b *Browser, _ *Window, _ []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Singleton(xdm.NewNode(b.NavigatorTree())), nil
	})

	// Window-related functions (§4.2.4).
	add("alert", 1, 1, func(_ *runtime.Context, b *Browser, _ *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		b.Alert(str0(args))
		return nil, nil
	})
	add("prompt", 1, 2, func(_ *runtime.Context, b *Browser, _ *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Singleton(xdm.String(b.Prompt(str0(args)))), nil
	})
	add("confirm", 1, 1, func(_ *runtime.Context, b *Browser, _ *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		return xdm.Bool(b.Confirm(str0(args))), nil
	})
	add("windowOpen", 1, 2, func(_ *runtime.Context, b *Browser, w *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		name := ""
		if len(args) == 2 && len(args[1]) > 0 {
			name = xdm.Atomize(args[1][0]).String()
		}
		nw, err := b.OpenWindow(w, str0(args), name)
		if err != nil {
			return nil, err
		}
		if v := b.ViewOf(w, nw); v != nil {
			return xdm.Singleton(xdm.NewNode(v)), nil
		}
		return nil, nil
	})
	add("windowClose", 0, 1, func(_ *runtime.Context, b *Browser, w *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		target := w
		if len(args) == 1 {
			it, err := args[0].AtMostOne()
			if err != nil || it == nil {
				return nil, err
			}
			n, _ := xdm.IsNode(it)
			if tw, ok := b.WindowOf(n); ok {
				target = tw
			}
		}
		if !b.Policy.CanAccess(w, target) {
			return nil, nil
		}
		b.CloseWindow(target)
		return nil, nil
	})
	add("windowMoveTo", 2, 2, func(_ *runtime.Context, _ *Browser, w *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		x, y, err := twoInts(args)
		if err != nil {
			return nil, err
		}
		w.X, w.Y = x, y
		return nil, nil
	})
	add("windowMoveBy", 2, 2, func(_ *runtime.Context, _ *Browser, w *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		x, y, err := twoInts(args)
		if err != nil {
			return nil, err
		}
		w.X += x
		w.Y += y
		return nil, nil
	})

	// History-related functions (§4.2.4).
	add("historyBack", 0, 0, func(_ *runtime.Context, b *Browser, w *Window, _ []xdm.Sequence) (xdm.Sequence, error) {
		return nil, b.HistoryGo(w, -1)
	})
	add("historyForward", 0, 0, func(_ *runtime.Context, b *Browser, w *Window, _ []xdm.Sequence) (xdm.Sequence, error) {
		return nil, b.HistoryGo(w, 1)
	})
	add("historyGo", 1, 1, func(_ *runtime.Context, b *Browser, w *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		n, err := intArg(args[0])
		if err != nil {
			return nil, err
		}
		return nil, b.HistoryGo(w, n)
	})

	// Document-related functions (§4.2.4) — the paper notes best
	// practice is the Update Facility instead, but provides them.
	add("write", 1, 1, func(_ *runtime.Context, b *Browser, w *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		b.Write(w, str0(args))
		return nil, nil
	})
	add("writeln", 1, 1, func(_ *runtime.Context, b *Browser, w *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		b.Write(w, str0(args)+"\n")
		return nil, nil
	})

	// The high-order-function event registration the Zorba-based
	// implementation used instead of the grammar extension ("as Zorba
	// does not allow to modify in a modular way the XQuery grammar it
	// uses, we use high-order-functions to bind events", §5.1):
	//
	//	browser:addEventListener($targets, $event, "local:listener")
	//	browser:removeEventListener($targets, $event, "local:listener")
	//
	// Both go through the run's Hooks, like the §4.3 grammar, so
	// experiment E8 compares the two routes directly.
	add("addEventListener", 3, 3, func(ctx *runtime.Context, _ *Browser, _ *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		event, listener, err := eventArgs(args)
		if err != nil {
			return nil, err
		}
		return nil, ctx.Hooks.AttachListener(ctx, event, args[0], listener)
	})
	add("removeEventListener", 3, 3, func(ctx *runtime.Context, _ *Browser, _ *Window, args []xdm.Sequence) (xdm.Sequence, error) {
		event, listener, err := eventArgs(args)
		if err != nil {
			return nil, err
		}
		return nil, ctx.Hooks.DetachListener(ctx, event, args[0], listener)
	})
}

// eventArgs reads the event type and the listener's name of an
// add/removeEventListener call; the name is "local:f" or "f", a local
// function either way.
func eventArgs(args []xdm.Sequence) (event string, listener dom.QName, err error) {
	var s [2]string
	for i := range s {
		it, err := xdm.AtomizeSequence(args[i+1]).One()
		if err != nil {
			return "", dom.QName{}, err
		}
		s[i] = it.String()
	}
	return s[0], dom.QName{Space: parser.LocalNamespace, Local: strings.TrimPrefix(s[1], "local:")}, nil
}

// intArg casts a one-item argument to an integer.
func intArg(s xdm.Sequence) (int, error) {
	it, err := xdm.AtomizeSequence(s).One()
	if err != nil {
		return 0, err
	}
	n, err := xdm.Cast(it, xdm.TInteger)
	if err != nil {
		return 0, err
	}
	return int(n.(xdm.Integer)), nil
}

func twoInts(args []xdm.Sequence) (int, int, error) {
	x, err := intArg(args[0])
	if err != nil {
		return 0, 0, err
	}
	y, err := intArg(args[1])
	return x, y, err
}
