package core

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/browser"
	"repro/internal/dom"
	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
	"repro/internal/xquery/update"
)

// hostHooks implements the runtime's browser extension points: the
// event grammar of §4.3, the behind construct of §4.4 and the CSS
// grammar of §4.5. It is also what the browser: functions read the
// executing window from (browser.Hooks): each run of a page's script
// carries the page's window, each run of a frame's the frame.
type hostHooks struct {
	h   *Host
	win *browser.Window
}

// Window returns the browser and the window whose script runs.
func (hh *hostHooks) Window() (*browser.Browser, *browser.Window) { return hh.h.Browser, hh.win }

// listenerKey identifies an XQuery listener registration so attach is
// idempotent and detach can find it (the DOM's duplicate-registration
// rule applied to the §4.3 grammar). Keys compare by value.
type listenerKey struct {
	event string
	fn    string // expanded QName
}

// eventListener is what one "on event E at T attach listener F"
// statement registers on every node of T: one key, one record and one
// callback for all of them.
type eventListener struct {
	h    *Host
	ctx  *runtime.Context
	name dom.QName
	// evt: the listener may read $evt, its first parameter, so each event
	// is built as XML for it; a listener that never names an untyped
	// $evt (runtime.Function.Reads) is passed () and no element is
	// built. A listener that does not resolve when it is attached is
	// called as always, and fails as always.
	evt bool
}

// handle runs the listener for one event.
func (l *eventListener) handle(ev *dom.Event) {
	// $obj is "the DOM node where the event occured" (§4.3.2) — the
	// target, so delegated listeners see the real source.
	args := []xdm.Sequence{nil, xdm.Singleton(xdm.NewNode(ev.Target))}
	var evt *dom.Event
	if l.evt {
		evt = ev
	}
	if err := l.h.invokeListener(l.ctx, l.name, args, evt); err != nil {
		l.h.recordAsyncErr(fmt.Errorf("core: listener %s: %w", l.name, err))
	}
}

// AttachListener implements "on event E at T attach listener F".
func (hh *hostHooks) AttachListener(ctx *runtime.Context, event string, targets xdm.Sequence, listener dom.QName) error {
	if len(targets) == 0 {
		return nil
	}
	l := &eventListener{h: hh.h, ctx: ctx, name: listener, evt: true}
	if f := ctx.Prog.Reg.Lookup(listener, 2); f != nil {
		l.evt = f.Reads(0)
	}
	var key any = listenerKey{event: event, fn: listener.Space + "#" + listener.Local}
	fn := l.handle
	for _, it := range targets {
		n, ok := xdm.IsNode(it)
		if !ok {
			return fmt.Errorf("core: event target must be a node")
		}
		n.AddEventListener(event, false, key, fn)
	}
	return nil
}

// DetachListener implements "on event E at T detach listener F".
func (hh *hostHooks) DetachListener(ctx *runtime.Context, event string, targets xdm.Sequence, listener dom.QName) error {
	for _, it := range targets {
		n, ok := xdm.IsNode(it)
		if !ok {
			return fmt.Errorf("core: event target must be a node")
		}
		n.RemoveEventListener(event, false,
			listenerKey{event: event, fn: listener.Space + "#" + listener.Local})
	}
	return nil
}

// TriggerEvent implements "trigger event E at T": it simulates the user
// action synchronously, exactly like dispatching a browser event.
func (hh *hostHooks) TriggerEvent(ctx *runtime.Context, event string, targets xdm.Sequence) error {
	for _, it := range targets {
		n, ok := xdm.IsNode(it)
		if !ok {
			return fmt.Errorf("core: event target must be a node")
		}
		hh.h.Dispatch(&dom.Event{Type: event, Bubbles: true, Cancelable: true, Button: 1}, n)
	}
	return nil
}

// AttachBehind implements "on event E behind Call attach listener F"
// (§4.4): the call evaluates asynchronously and every state change
// invokes the listener with ($readyState, $result); readyState 4
// carries the final result, mirroring XMLHttpRequest. The call is
// non-blocking — "the user keeps control of the user interface".
func (hh *hostHooks) AttachBehind(ctx *runtime.Context, event string, call func() (xdm.Sequence, error), listener dom.QName) error {
	h := hh.h
	h.begin()

	// readyState 1: the call has been initiated.
	if err := h.invokeListener(ctx, listener, []xdm.Sequence{
		xdm.Singleton(xdm.Integer(1)), nil,
	}, nil); err != nil {
		h.complete(nil)
		return err
	}

	go func() {
		res, err := call()
		h.complete(func() error {
			if err != nil {
				// readyState 4 with an empty result signals failure;
				// the error is also surfaced to the host.
				ierr := h.invokeListener(ctx, listener, []xdm.Sequence{
					xdm.Singleton(xdm.Integer(4)), nil,
				}, nil)
				if ierr != nil {
					return fmt.Errorf("core: behind listener: %v (call error: %w)", ierr, err)
				}
				return fmt.Errorf("core: asynchronous call failed: %w", err)
			}
			return h.invokeListener(ctx, listener, []xdm.Sequence{
				xdm.Singleton(xdm.Integer(4)), res,
			}, nil)
		})
	}()
	return nil
}

// SetStyle / GetStyle implement the §4.5 CSS grammar over the style
// attributes of the target elements.
func (hh *hostHooks) SetStyle(ctx *runtime.Context, prop string, targets xdm.Sequence, value string) error {
	for _, it := range targets {
		n, ok := xdm.IsNode(it)
		if !ok || n.Type != dom.ElementNode {
			return fmt.Errorf("core: set style target must be an element")
		}
		browser.SetStyleProp(n, prop, value)
	}
	return nil
}

func (hh *hostHooks) GetStyle(ctx *runtime.Context, prop string, targets xdm.Sequence) (xdm.Sequence, error) {
	var out xdm.Sequence
	for _, it := range targets {
		n, ok := xdm.IsNode(it)
		if !ok || n.Type != dom.ElementNode {
			return nil, fmt.Errorf("core: get style target must be an element")
		}
		if v, ok := browser.GetStyleProp(n, prop); ok {
			out = append(out, xdm.String(v))
		}
	}
	return out, nil
}

// invokeListener calls an XQuery function as an event listener: "Zorba
// is called with the XQuery prolog followed by the listener call"
// (Figure 1). Each invocation is a run of its own: its clock, memo and
// full-text state, a pending update list that applies when the listener
// returns (or per statement for sequential listeners), and a fresh
// budget: listeners must not inherit the partially consumed budget of
// the page-load script (or of an earlier event), and a budget-tripped
// listener must not poison the ones that follow. The host's context
// rides along so session cancellation aborts listeners too. When ev is
// not nil, args[0] becomes ev as XML ($evt), stamped with the run's
// clock, so $evt/timeStamp and fn:current-dateTime() agree.
func (h *Host) invokeListener(ctx *runtime.Context, name dom.QName, args []xdm.Sequence, ev *dom.Event) error {
	now := time.Now()
	if ev != nil {
		args[0] = xdm.Singleton(xdm.NewNode(EventToXML(ev, now)))
	}
	c := ctx.Derive(func(r *runtime.Run) {
		r.Now, r.PUL = now, &update.PUL{}
		r.Budget = runtime.NewBudgetContext(h.ctx, h.maxQuerySteps, h.queryTimeout)
	})
	_, err := h.finish(c, func() (xdm.Sequence, error) {
		return c.CallFunction(name, args)
	})
	return err
}

// EventToXML materialises a DOM event as the XML element listeners
// receive as $evt (§4.3.2): the same information available in a DOM
// Event object, stamped at. The Detail entries come last, in key order,
// so one event always gives the same element. It is recorded and built
// through one sized builder (dom.Recorder); its values are one string
// of its own.
func EventToXML(ev *dom.Event, at time.Time) *dom.Node {
	r := &eventRecorder
	r.Lock()
	defer r.Unlock()
	var num [32]byte
	field := func(name, val string) {
		r.Open(dom.ElementNode)
		r.Append(val)
		r.Leaf(dom.TextNode, dom.Str{}, dom.Str{}, dom.Str{}, r.Take())
		r.Close(dom.Str{}, dom.Str{}, r.Str(name))
	}
	r.Open(dom.ElementNode)
	field("type", ev.Type)
	field("altKey", strconv.FormatBool(ev.AltKey))
	field("ctrlKey", strconv.FormatBool(ev.CtrlKey))
	field("shiftKey", strconv.FormatBool(ev.ShiftKey))
	field("metaKey", strconv.FormatBool(ev.MetaKey))
	field("button", string(strconv.AppendInt(num[:0], int64(ev.Button), 10)))
	field("key", ev.Key)
	field("clientX", string(strconv.AppendInt(num[:0], int64(ev.ClientX), 10)))
	field("clientY", string(strconv.AppendInt(num[:0], int64(ev.ClientY), 10)))
	field("phase", string(strconv.AppendInt(num[:0], int64(ev.Phase), 10)))
	field("timeStamp", string(at.AppendFormat(num[:0], "2006-01-02T15:04:05.000")))
	if ev.Target != nil && ev.Target.Type == dom.ElementNode {
		field("targetName", ev.Target.Name.Local)
		field("targetId", ev.Target.AttrValue("id"))
	}
	keys := make([]string, 0, len(ev.Detail))
	for k := range ev.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		field(k, ev.Detail[k])
	}
	r.Close(dom.Str{}, dom.Str{}, r.Str("event"))
	var root [1]*dom.Node
	return r.Build(root[:0])[0]
}

// eventRecorder is the event elements' scratch, one at a time (a pool,
// which -race empties a quarter of the time, costs more than one).
var eventRecorder struct {
	sync.Mutex
	dom.Recorder
}
