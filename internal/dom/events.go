package dom

// DOM Level 3 event flow: capture phase from the root down, target
// phase, then bubbling back up. Both the XQuery engine (via the paper's
// "on event ... attach listener" syntax) and the JavaScript-style
// baseline register listeners through this interface, so a single
// dispatch serialises handlers from both languages exactly as §6.2
// describes ("the browser determines the order in which events are
// processed ... in the same way as ... if only JavaScript is used").

// EventPhase identifies the position of the dispatch when a listener
// fires.
type EventPhase int

// Event phases per DOM Level 3.
const (
	CapturePhase EventPhase = 1
	AtTarget     EventPhase = 2
	BubblePhase  EventPhase = 3
)

// Event carries the information passed to listeners. The fields mirror
// the DOM event object properties the paper queries ($evt/type,
// $evt/altKey, $evt/button, ...).
type Event struct {
	Type          string
	Target        *Node
	CurrentTarget *Node
	Phase         EventPhase

	// Input-device detail (zero unless the dispatcher sets them).
	AltKey   bool
	CtrlKey  bool
	ShiftKey bool
	MetaKey  bool
	Button   int // 0 none, 1 left, 2 middle, 3 right
	Key      string
	ClientX  int
	ClientY  int

	// Detail carries event-specific payload (e.g. the readyState and
	// result of an asynchronous call completion, §4.4).
	Detail map[string]string

	Bubbles    bool
	Cancelable bool

	stopped          bool
	defaultPrevented bool
}

// StopPropagation halts the dispatch after the current node's listeners.
func (e *Event) StopPropagation() { e.stopped = true }

// PreventDefault cancels the default action of a cancelable event.
func (e *Event) PreventDefault() {
	if e.Cancelable {
		e.defaultPrevented = true
	}
}

// DefaultPrevented reports whether PreventDefault was called.
func (e *Event) DefaultPrevented() bool { return e.defaultPrevented }

// Listener is an event callback.
type Listener func(*Event)

type listener struct {
	typ string
	fn  Listener
	id  any // identity token for removal (e.g. an XQuery QName)
	// seq numbers the registrations on one node, from 1: list order is
	// seq order, and a dispatch names a registration by it (see invoke).
	// 32 bits, so that capture shares its word: a listener is 48 bytes.
	seq     uint32
	capture bool
}

// The listeners of a node are side.first followed by side.more; both
// helpers accept the nil side of a node that never had one.

func (s *nodeSide) listenerCount() int {
	if s == nil || s.first.seq == 0 {
		return 0
	}
	return 1 + len(s.more)
}

func (s *nodeSide) listenerAt(i int) *listener {
	if i == 0 {
		return &s.first
	}
	return &s.more[i-1]
}

// AddEventListener registers fn for events of the given type on n.
// The id token identifies the registration for RemoveEventListener;
// registering the same (type, capture, id) twice is a no-op when id is
// non-nil, matching addEventListener's duplicate suppression.
func (n *Node) AddEventListener(typ string, capture bool, id any, fn Listener) {
	s := n.ensureSide()
	k := s.listenerCount()
	if id != nil {
		for i := 0; i < k; i++ {
			if l := s.listenerAt(i); l.typ == typ && l.capture == capture && l.id == id {
				return
			}
		}
	}
	s.seq++
	l := listener{typ: typ, fn: fn, id: id, seq: s.seq, capture: capture}
	if k == 0 {
		s.first = l
	} else {
		s.more = append(s.more, l)
	}
}

// RemoveEventListener removes the registration with the matching
// (type, capture, id).
func (n *Node) RemoveEventListener(typ string, capture bool, id any) {
	s := n.side.Load()
	for i, k := 0, s.listenerCount(); i < k; i++ {
		if l := s.listenerAt(i); l.typ != typ || l.capture != capture || l.id != id {
			continue
		}
		// Close the gap, keeping registration order; the vacated last
		// slot is zeroed so it does not pin the listener's closure.
		if i == 0 {
			if len(s.more) == 0 {
				s.first = listener{}
				return
			}
			s.first, i = s.more[0], 1
		}
		last := len(s.more) - 1
		copy(s.more[i-1:], s.more[i:])
		s.more[last] = listener{}
		s.more = s.more[:last]
		return
	}
}

// ListenerCount returns the number of listeners of the given type
// registered directly on n (both phases).
func (n *Node) ListenerCount(typ string) int {
	s := n.side.Load()
	c := 0
	for i, k := 0, s.listenerCount(); i < k; i++ {
		if s.listenerAt(i).typ == typ {
			c++
		}
	}
	return c
}

// DispatchEvent runs the full capture/target/bubble flow for ev with n
// as the target. It returns false if a listener prevented the default
// action.
func (n *Node) DispatchEvent(ev *Event) bool {
	ev.Target = n
	// Ancestor chain, target first: on the stack, unless the target is
	// deeper than a page's elements usually are.
	var buf [16]*Node
	chain := buf[:0]
	for a := n.parent; a != nil; a = a.parent {
		chain = append(chain, a)
	}
	// Capture: root towards target.
	ev.Phase = CapturePhase
	for i := len(chain) - 1; i >= 0 && !ev.stopped; i-- {
		chain[i].invoke(ev, true)
	}
	// Target.
	if !ev.stopped {
		ev.Phase = AtTarget
		n.invoke(ev, true)
		n.invoke(ev, false)
	}
	// Bubble: target towards root.
	if ev.Bubbles {
		ev.Phase = BubblePhase
		for i := 0; i < len(chain) && !ev.stopped; i++ {
			chain[i].invoke(ev, false)
		}
	}
	return !ev.defaultPrevented
}

func (n *Node) invoke(ev *Event, capture bool) {
	ev.CurrentTarget = n
	s := n.side.Load()
	if s == nil {
		return
	}
	// A listener may add and remove listeners of this node while it
	// runs: those added during the dispatch (seq above limit) do not
	// fire for this event, removed ones are skipped. The list can shift
	// under the loop, so it keeps a registration number, not a position,
	// and looks up the next live registration after it each time.
	limit, done := s.seq, uint32(0)
	for !ev.stopped {
		l := s.nextListener(done, limit)
		if l == nil {
			return
		}
		done = l.seq
		if l.typ == ev.Type && l.capture == capture {
			l.fn(ev)
		}
	}
}

// nextListener returns the first registration numbered above done and
// at most limit, or nil.
func (s *nodeSide) nextListener(done, limit uint32) *listener {
	for i, k := 0, s.listenerCount(); i < k; i++ {
		if l := s.listenerAt(i); l.seq > done {
			if l.seq > limit {
				return nil
			}
			return l
		}
	}
	return nil
}
