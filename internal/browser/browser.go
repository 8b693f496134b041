// Package browser implements the Browser Object Model of paper §4.2: a
// window tree with locations, navigator and screen information, history,
// and the windows-as-XML view with pull accessors guarded by a security
// policy. It also provides the browser: function namespace and the CSS
// style store behind the paper's §4.5 grammar.
//
// The browser is headless: rendering is out of scope (the plug-in's
// observable behaviour is DOM-, BOM- and event-level), but everything a
// script can reach — window.status, location navigation, alerts,
// history, frames — behaves as the paper describes.
package browser

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xquery/update"
)

// Window-write policy sentinels; applications match them with
// errors.Is (the facade re-exports them). Note that cross-origin
// *reads* are not errors: the policy renders hidden windows with no
// properties so accessors return the empty sequence (§4.2.1).
var (
	// ErrReadOnlyWindowProperty reports an update targeting a window
	// property that scripts may not write.
	ErrReadOnlyWindowProperty = errors.New("browser: window property is read-only")
	// ErrWindowUpdateUnsupported reports an update primitive other than
	// "replace value of node" aimed at window state.
	ErrWindowUpdateUnsupported = errors.New(`browser: only "replace value of node" is supported on window properties`)
)

// Location mirrors the JavaScript location object's fields.
type Location struct {
	Href     string
	Protocol string // "http:"
	Host     string // "host:port"
	Hostname string
	Port     string
	Pathname string
	Search   string
	Hash     string
}

// ParseLocation splits a URL into location fields.
func ParseLocation(href string) (Location, error) {
	u, err := url.Parse(href)
	if err != nil {
		return Location{}, fmt.Errorf("browser: invalid URL %q: %w", href, err)
	}
	loc := Location{
		Href:     href,
		Protocol: u.Scheme + ":",
		Host:     u.Host,
		Hostname: u.Hostname(),
		Port:     u.Port(),
		Pathname: u.Path,
		Hash:     u.Fragment,
	}
	if u.RawQuery != "" {
		loc.Search = "?" + u.RawQuery
	}
	return loc, nil
}

// Origin returns the scheme://host:port origin used by the same-origin
// policy.
func (l Location) Origin() string {
	return l.Protocol + "//" + l.Host
}

// Window is one browser window or frame.
type Window struct {
	Name         string
	Status       string
	Location     Location
	Document     *dom.Node
	LastModified time.Time
	Opener       *Window
	Closed       bool
	X, Y         int // window position (moveTo/moveBy)

	parent  *Window
	frames  []*Window
	history []string
	histPos int
}

// Parent returns the parent window (nil for top-level windows).
func (w *Window) Parent() *Window { return w.parent }

// Frames returns the child frames.
func (w *Window) Frames() []*Window { return w.frames }

// Top walks to the topmost ancestor window.
func (w *Window) Top() *Window {
	t := w
	for t.parent != nil {
		t = t.parent
	}
	return t
}

// AddFrame attaches a child frame.
func (w *Window) AddFrame(f *Window) {
	f.parent = w
	w.frames = append(w.frames, f)
}

// History returns the window's visited URLs and current position.
func (w *Window) History() ([]string, int) { return w.history, w.histPos }

// SecurityPolicy decides whether script running in one window may read
// or write another window's properties (paper §4.2.1).
type SecurityPolicy interface {
	CanAccess(from, to *Window) bool
}

// SameOriginPolicy allows access only between windows whose locations
// share scheme, host and port — "like in JavaScript" (§4.2.1).
type SameOriginPolicy struct{}

// CanAccess implements SecurityPolicy.
func (SameOriginPolicy) CanAccess(from, to *Window) bool {
	if from == nil || to == nil || from == to {
		return true
	}
	return from.Location.Origin() == to.Location.Origin()
}

// AllowAllPolicy disables the checks (single-origin tests and tools).
type AllowAllPolicy struct{}

// CanAccess implements SecurityPolicy.
func (AllowAllPolicy) CanAccess(from, to *Window) bool { return true }

// ScreenInfo mirrors window.screen.
type ScreenInfo struct {
	Width, Height           int
	AvailWidth, AvailHeight int
	ColorDepth, PixelDepth  int
}

// NavigatorInfo mirrors window.navigator.
type NavigatorInfo struct {
	AppName    string
	AppVersion string
	UserAgent  string
	Platform   string
	Language   string
	Vendor     string
	CookiesOn  bool
}

// PageLoader fetches and parses the page for a URL during navigation.
type PageLoader func(url string) (*dom.Node, error)

// Browser is the headless browser state shared by all windows.
type Browser struct {
	mu     sync.Mutex
	top    *Window
	Policy SecurityPolicy
	Screen ScreenInfo
	Nav    NavigatorInfo
	Loader PageLoader
	Now    func() time.Time

	// UI capture: alerts raised, scripted prompt/confirm answers.
	Alerts         []string
	promptAnswers  []string
	confirmAnswers []bool
	writeSink      []string

	// Pull-view bindings: materialized window-tree nodes back to their
	// windows and properties.
	views map[*dom.Node]*Window
	props map[*dom.Node]propBinding
}

type propBinding struct {
	w    *Window
	prop string // "status", "location.href", "name"
}

// New creates a browser with a top window showing the given document at
// the given URL.
func New(href string, doc *dom.Node) (*Browser, error) {
	loc, err := ParseLocation(href)
	if err != nil {
		return nil, err
	}
	b := &Browser{
		Policy: SameOriginPolicy{},
		Screen: ScreenInfo{Width: 1280, Height: 800, AvailWidth: 1280,
			AvailHeight: 770, ColorDepth: 24, PixelDepth: 24},
		Nav: NavigatorInfo{AppName: "XQIB", AppVersion: "1.0",
			UserAgent: "XQIB/1.0 (headless; Go)", Platform: "go",
			Language: "en", Vendor: "Systems Group", CookiesOn: true},
		Now:   time.Now,
		views: map[*dom.Node]*Window{},
		props: map[*dom.Node]propBinding{},
	}
	b.top = &Window{
		Name:         "top_window",
		Location:     loc,
		Document:     doc,
		LastModified: b.Now(),
		history:      []string{href},
	}
	if doc != nil {
		doc.SetBaseURI(href)
	}
	return b, nil
}

// Top returns the top window.
func (b *Browser) Top() *Window { return b.top }

// FindWindow returns the first window in the tree with the given name.
func (b *Browser) FindWindow(name string) *Window {
	var find func(w *Window) *Window
	find = func(w *Window) *Window {
		if w.Name == name {
			return w
		}
		for _, f := range w.frames {
			if r := find(f); r != nil {
				return r
			}
		}
		return nil
	}
	return find(b.top)
}

// Navigate loads a new URL into a window: the loader fetches the page,
// the location and history update, and previously handed-out window
// views to the old origin become useless under the policy (§4.2.1).
func (b *Browser) Navigate(w *Window, href string) error {
	loc, err := ParseLocation(href)
	if err != nil {
		return err
	}
	var doc *dom.Node
	if b.Loader != nil {
		doc, err = b.Loader(href)
		if err != nil {
			return fmt.Errorf("browser: loading %q: %w", href, err)
		}
	} else {
		doc = dom.NewDocument()
	}
	doc.SetBaseURI(href)
	b.mu.Lock()
	defer b.mu.Unlock()
	w.Location = loc
	w.Document = doc
	w.LastModified = b.Now()
	// Truncate forward history and append.
	if len(w.history) == 0 {
		w.history = []string{href}
	} else {
		w.history = append(w.history[:w.histPos+1], href)
	}
	w.histPos = len(w.history) - 1
	return nil
}

// HistoryGo moves delta entries through the window's history (negative
// is back) and reloads that URL.
func (b *Browser) HistoryGo(w *Window, delta int) error {
	pos := w.histPos + delta
	if pos < 0 || pos >= len(w.history) {
		return nil // browsers silently ignore out-of-range history moves
	}
	href := w.history[pos]
	loc, err := ParseLocation(href)
	if err != nil {
		return err
	}
	var doc *dom.Node
	if b.Loader != nil {
		if doc, err = b.Loader(href); err != nil {
			return err
		}
	} else {
		doc = dom.NewDocument()
	}
	doc.SetBaseURI(href)
	b.mu.Lock()
	defer b.mu.Unlock()
	w.histPos = pos
	w.Location = loc
	w.Document = doc
	w.LastModified = b.Now()
	return nil
}

// OpenWindow creates a new top-level-like window opened from `from`.
// It is attached as a frame of the opener's top window so that
// browser:top()//window can see it, mirroring how the examples navigate
// the window tree.
func (b *Browser) OpenWindow(from *Window, href, name string) (*Window, error) {
	w := &Window{Name: name, Opener: from, LastModified: b.Now()}
	from.Top().AddFrame(w)
	if err := b.Navigate(w, href); err != nil {
		return nil, err
	}
	return w, nil
}

// CloseWindow marks a window closed and detaches it from its parent.
func (b *Browser) CloseWindow(w *Window) {
	w.Closed = true
	if w.parent == nil {
		return
	}
	for i, f := range w.parent.frames {
		if f == w {
			w.parent.frames = append(w.parent.frames[:i], w.parent.frames[i+1:]...)
			break
		}
	}
	w.parent = nil
}

// Alert records an alert message (the headless stand-in for a dialog).
func (b *Browser) Alert(msg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Alerts = append(b.Alerts, msg)
}

// QueuePromptAnswer schedules the next prompt() response.
func (b *Browser) QueuePromptAnswer(s string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.promptAnswers = append(b.promptAnswers, s)
}

// Prompt pops the next scripted prompt answer ("" if none).
func (b *Browser) Prompt(msg string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.promptAnswers) == 0 {
		return ""
	}
	a := b.promptAnswers[0]
	b.promptAnswers = b.promptAnswers[1:]
	return a
}

// QueueConfirmAnswer schedules the next confirm() response.
func (b *Browser) QueueConfirmAnswer(v bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.confirmAnswers = append(b.confirmAnswers, v)
}

// Confirm pops the next scripted confirm answer (true if none).
func (b *Browser) Confirm(msg string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.confirmAnswers) == 0 {
		return true
	}
	a := b.confirmAnswers[0]
	b.confirmAnswers = b.confirmAnswers[1:]
	return a
}

// Write implements document.write-style output: text is appended to the
// window document's body (or the document root if there is no body).
func (b *Browser) Write(w *Window, text string) {
	b.mu.Lock()
	b.writeSink = append(b.writeSink, text)
	b.mu.Unlock()
	if w.Document == nil {
		return
	}
	target := w.Document.DocumentElement()
	if target == nil {
		el := dom.NewElement(dom.Name("html"))
		_ = w.Document.AppendChild(el)
		target = el
	}
	if bodies := target.Elements("body"); len(bodies) > 0 {
		target = bodies[0]
	}
	// document.write parses its argument as markup when it looks like
	// markup; plain text otherwise.
	if strings.Contains(text, "<") {
		if nodes, err := markup.ParseFragment(text); err == nil {
			for _, n := range nodes {
				_ = target.AppendChild(n)
			}
			return
		}
	}
	_ = target.AppendChild(dom.NewText(text))
}

// Written returns everything passed to Write (test observability).
func (b *Browser) Written() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.writeSink...)
}

// --- windows as XML (pull views, §4.2.1) -----------------------------------

// ResetViews drops the node→window bindings of earlier materializations.
// The host calls this once per event-loop turn to bound memory.
func (b *Browser) ResetViews() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.views = map[*dom.Node]*Window{}
	b.props = map[*dom.Node]propBinding{}
}

// WindowTree materializes the window tree as an XML element, evaluated
// from the viewer window's perspective: windows the policy hides are
// rendered with no properties at all, so "all accessors return an empty
// sequence" exactly as §4.2.1 requires. The function is pull-based —
// every call re-reads the live state, which is why the paper marks
// browser:top() as non-deterministic.
func (b *Browser) WindowTree(viewer *Window) *dom.Node {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.materializeWindow(b.top, viewer)
}

// ViewOf returns the materialized element for a specific window within
// a freshly pulled tree, or nil when hidden.
func (b *Browser) ViewOf(viewer, target *Window) *dom.Node {
	root := b.WindowTree(viewer)
	var found *dom.Node
	root.Walk(func(n *dom.Node) bool {
		b.mu.Lock()
		w := b.views[n]
		b.mu.Unlock()
		if w == target {
			found = n
			return false
		}
		return true
	})
	return found
}

func (b *Browser) materializeWindow(w, viewer *Window) *dom.Node {
	el := dom.NewElement(dom.Name("window"))
	b.views[el] = w
	if !b.Policy.CanAccess(viewer, w) {
		// Hidden window: an element with no properties, so every
		// accessor yields the empty sequence (§4.2.1). Frames are still
		// listed so the tree shape stays navigable, but they are
		// equally opaque unless individually accessible.
		frames := dom.NewElement(dom.Name("frames"))
		for _, f := range w.frames {
			_ = frames.AppendChild(b.materializeWindow(f, viewer))
		}
		_ = el.AppendChild(frames)
		return el
	}
	el.SetAttr(dom.Name("name"), w.Name)
	b.props[el.AttrNode(dom.Name("name"))] = propBinding{w, "name"}

	status := textElem("status", w.Status)
	b.props[status] = propBinding{w, "status"}
	_ = el.AppendChild(status)

	loc := dom.NewElement(dom.Name("location"))
	for _, p := range []struct{ name, val, prop string }{
		{"href", w.Location.Href, "location.href"},
		{"protocol", w.Location.Protocol, ""},
		{"host", w.Location.Host, ""},
		{"hostname", w.Location.Hostname, ""},
		{"port", w.Location.Port, ""},
		{"pathname", w.Location.Pathname, ""},
		{"search", w.Location.Search, ""},
		{"hash", w.Location.Hash, ""},
	} {
		e := textElem(p.name, p.val)
		if p.prop != "" {
			b.props[e] = propBinding{w, p.prop}
		}
		_ = loc.AppendChild(e)
	}
	_ = el.AppendChild(loc)

	_ = el.AppendChild(textElem("lastModified", w.LastModified.Format("2006-01-02T15:04:05")))
	_ = el.AppendChild(textElem("closed", boolStr(w.Closed)))

	frames := dom.NewElement(dom.Name("frames"))
	for _, f := range w.frames {
		_ = frames.AppendChild(b.materializeWindow(f, viewer))
	}
	_ = el.AppendChild(frames)
	return el
}

func textElem(name, val string) *dom.Node {
	e := dom.NewElement(dom.Name(name))
	if val != "" {
		_ = e.AppendChild(dom.NewText(val))
	}
	return e
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// WindowOf resolves a materialized window element (from any earlier
// pull this event-loop turn) back to its window.
func (b *Browser) WindowOf(n *dom.Node) (*Window, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	w, ok := b.views[n]
	return w, ok
}

// ScreenTree materializes window.screen as XML (§4.2.2).
func (b *Browser) ScreenTree() *dom.Node {
	el := dom.NewElement(dom.Name("screen"))
	for _, p := range []struct {
		name string
		val  int
	}{
		{"width", b.Screen.Width}, {"height", b.Screen.Height},
		{"availWidth", b.Screen.AvailWidth}, {"availHeight", b.Screen.AvailHeight},
		{"colorDepth", b.Screen.ColorDepth}, {"pixelDepth", b.Screen.PixelDepth},
	} {
		_ = el.AppendChild(textElem(p.name, fmt.Sprintf("%d", p.val)))
	}
	return el
}

// NavigatorTree materializes window.navigator as XML (§4.2.2).
func (b *Browser) NavigatorTree() *dom.Node {
	el := dom.NewElement(dom.Name("navigator"))
	for _, p := range []struct{ name, val string }{
		{"appName", b.Nav.AppName},
		{"appVersion", b.Nav.AppVersion},
		{"userAgent", b.Nav.UserAgent},
		{"platform", b.Nav.Platform},
		{"language", b.Nav.Language},
		{"vendor", b.Nav.Vendor},
		{"cookieEnabled", boolStr(b.Nav.CookiesOn)},
	} {
		_ = el.AppendChild(textElem(p.name, p.val))
	}
	return el
}

// ApplyUpdate routes an update primitive targeting a materialized
// window-tree node back to the underlying window state: replacing the
// value of a status or location/href element changes the window (the
// paper's "the window element can be manipulated using the XQuery
// Update Facility"). It reports whether the primitive was a window-tree
// write.
func (b *Browser) ApplyUpdate(pr update.Primitive) (bool, error) {
	b.mu.Lock()
	binding, ok := b.props[pr.Target]
	b.mu.Unlock()
	if !ok {
		return false, nil
	}
	if pr.Kind != update.ReplaceValue {
		return true, ErrWindowUpdateUnsupported
	}
	switch binding.prop {
	case "status":
		binding.w.Status = pr.Value
	case "name":
		binding.w.Name = pr.Value
	case "location.href":
		return true, b.Navigate(binding.w, pr.Value)
	default:
		return true, fmt.Errorf("%w: %q", ErrReadOnlyWindowProperty, binding.prop)
	}
	return true, nil
}
