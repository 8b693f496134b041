package markup

import (
	"io"
	"strings"

	"repro/internal/dom"
)

// Serialize renders a node (and its subtree) as XML.
func Serialize(n *dom.Node) string { return string(AppendXML(nil, n)) }

// SerializeHTML renders a node as HTML: void elements are written
// without end tags, other empty elements with both tags, and raw-text
// elements without escaping.
func SerializeHTML(n *dom.Node) string { return string(AppendHTML(nil, n)) }

// SerializeIndent renders a node as XML with two-space indentation,
// for human-facing dumps (cmd/xqib, examples). Text nodes containing
// non-whitespace suppress indentation inside their parent.
func SerializeIndent(n *dom.Node) string {
	w := writer{buf: make([]byte, 0, sizeHint(n)), mode: XML}
	w.walk(n, 0)
	return string(w.buf)
}

// AppendXML appends the XML serialization of n to dst and returns the
// extended buffer. With enough spare capacity in dst it allocates
// nothing.
func AppendXML(dst []byte, n *dom.Node) []byte { return appendNode(dst, n, XML) }

// AppendHTML is AppendXML with SerializeHTML's rules.
func AppendHTML(dst []byte, n *dom.Node) []byte { return appendNode(dst, n, HTML) }

func appendNode(dst []byte, n *dom.Node, mode Mode) []byte {
	w := writer{buf: reserve(dst, sizeHint(n)), mode: mode}
	w.walk(n, inline)
	return w.buf
}

// writeChunk is how much Write buffers before it hands bytes to the
// io.Writer: large enough that a typical page or stored document goes
// out in one call, small enough that a large one never sits in memory
// whole.
const writeChunk = 32 << 10

// Write streams the serialization of n to out and returns the number of
// bytes written and the first error out returned.
func Write(out io.Writer, n *dom.Node, mode Mode) (int64, error) {
	w := writer{buf: make([]byte, 0, min(sizeHint(n), writeChunk)), mode: mode, out: out}
	w.walk(n, inline)
	w.flush()
	return w.n, w.err
}

// sizeHint estimates the serialized size of n from lengths alone: exact
// when nothing needs escaping and every element has content, a little
// high for empty elements, low by the entity references otherwise. A
// buffer reserved from it is allocated once instead of grown a dozen
// times; the one walk that inspects content is writer.walk.
func sizeHint(n *dom.Node) int {
	size := 0
	switch n.Type {
	case dom.ElementNode:
		size = 2*nameLen(n.Name) + len("<></>")
		for _, a := range n.Attrs() {
			size += sizeHint(a)
		}
	case dom.TextNode:
		size = len(n.Data)
	case dom.AttributeNode:
		size = nameLen(n.Name) + len(n.Data) + len(` =""`)
	case dom.CommentNode:
		size = len(n.Data) + len("<!---->")
	case dom.ProcessingInstructionNode:
		size = len(n.Name.Local) + len(n.Data) + len("<? ?>")
	}
	for _, c := range n.Children() {
		size += sizeHint(c)
	}
	return size
}

func nameLen(q dom.QName) int {
	if q.Prefix != "" {
		return len(q.Prefix) + 1 + len(q.Local)
	}
	return len(q.Local)
}

// reserve returns dst with room for at least n more bytes, doubling the
// capacity when it has to grow so that appending many nodes to one
// buffer (a wire envelope) copies each byte a constant number of times.
func reserve(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	grown := make([]byte, len(dst), max(2*cap(dst), len(dst)+n))
	copy(grown, dst)
	return grown
}

// inline is the depth of a node written without indentation.
const inline = -1

// writer is the one serializer: an iterative walk that appends to buf
// and, when out is set, drains buf to it a chunk at a time.
type writer struct {
	buf  []byte
	mode Mode
	out  io.Writer
	n    int64
	err  error
}

// frame is an element or document whose children are being written.
type frame struct {
	node       *dom.Node
	next       int // index of the next child to write
	depth      int // indentation depth of node itself, or inline
	childDepth int
	ns         int // the namespace bindings in scope before node
}

// binding is a namespace declaration in scope in the output.
type binding struct{ prefix, uri string }

// walk writes root at the given indentation depth (inline for none).
func (w *writer) walk(root *dom.Node, depth int) {
	var fixed [32]frame // deeper trees spill to the heap
	var fixedNS [8]binding
	stack, ns := fixed[:0], fixedNS[:0]
	n := root
	for {
		mark, decls := len(ns), 0
		if w.mode == XML && n.Type == dom.ElementNode {
			ns, decls = scope(ns, n)
		}
		b, childDepth, descend := appendOpen(w.buf, n, w.mode, depth, ns[len(ns)-decls:])
		w.buf = b
		if descend {
			stack = append(stack, frame{node: n, depth: depth, childDepth: childDepth, ns: mark})
		} else {
			ns = ns[:mark]
		}
		if w.out != nil && len(w.buf) >= writeChunk {
			if w.flush(); w.err != nil {
				return
			}
		}
		for {
			if len(stack) == 0 {
				return
			}
			f := &stack[len(stack)-1]
			if kids := f.node.Children(); f.next < len(kids) {
				n, depth = kids[f.next], f.childDepth
				f.next++
				break
			}
			w.buf = appendClose(w.buf, f)
			ns = ns[:f.ns]
			stack = stack[:len(stack)-1]
		}
	}
}

func (w *writer) flush() {
	if w.out == nil || w.err != nil || len(w.buf) == 0 {
		return
	}
	k, err := w.out.Write(w.buf)
	w.n += int64(k)
	w.err = err
	w.buf = w.buf[:0]
}

// scope extends ns, the namespace bindings the output has in scope, by
// the declaration attributes of the element n, then by the bindings its
// name and prefixed attributes need that none in scope gives, and
// returns how many of those n's start tag is to write. It declares
// neither xml nor a prefix in no namespace, and no prefix the tag
// already binds.
func scope(ns []binding, n *dom.Node) ([]binding, int) {
	mark := len(ns)
	for _, a := range n.Attrs() {
		if a.Name.Space == XMLNSNamespace && a.Name.Prefix == "" {
			ns = append(ns, binding{"", a.Data})
		} else if a.Name.Space == XMLNSNamespace {
			ns = append(ns, binding{a.Name.Local, a.Data})
		}
	}
	own := len(ns)
	need := func(prefix, space string) {
		if prefix == "xml" || prefix != "" && space == "" {
			return
		}
		i := len(ns) - 1
		for i >= 0 && ns[i].prefix != prefix {
			i--
		}
		if i < 0 && space != "" || i >= 0 && i < mark && ns[i].uri != space {
			ns = append(ns, binding{prefix, space})
		}
	}
	need(n.Name.Prefix, n.Name.Space)
	for _, a := range n.Attrs() {
		if a.Name.Prefix != "" && a.Name.Space != XMLNSNamespace {
			need(a.Name.Prefix, a.Name.Space)
		}
	}
	return ns, len(ns) - own
}

// appendOpen appends everything of n that precedes its children, with
// the namespace declarations decls after an element's name, and reports
// whether the walk must descend into them, and at which depth.
func appendOpen(b []byte, n *dom.Node, mode Mode, depth int, decls []binding) (_ []byte, childDepth int, descend bool) {
	switch n.Type {
	case dom.DocumentNode:
		return b, depth, true
	case dom.ElementNode:
		b = appendIndent(b, depth)
		b = append(b, '<')
		b = appendName(b, n.Name)
		for _, d := range decls {
			if b = append(b, " xmlns"...); d.prefix != "" {
				b = append(append(b, ':'), d.prefix...)
			}
			b = append(appendEscaped(append(b, `="`...), d.uri, true), '"')
		}
		for _, a := range n.Attrs() {
			b = append(b, ' ')
			b = appendAttr(b, a)
		}
		kids := n.Children()
		switch {
		case mode == HTML && isVoidElement(n.Name.Local):
			b = append(b, "/>"...)
		case mode == HTML && isRawTextElement(n.Name.Local):
			b = append(b, '>')
			for _, c := range kids {
				if c.Type == dom.TextNode {
					b = append(b, c.Data...) // raw, unescaped
				}
			}
			b = appendEndTag(b, n.Name)
		case len(kids) == 0 && mode == HTML:
			// An HTML parser ignores the slash of <div/> and opens an
			// element that swallows what follows; write both tags, as the
			// WHATWG fragment serialization does.
			b = append(b, '>')
			b = appendEndTag(b, n.Name)
		case len(kids) == 0:
			b = append(b, "/>"...)
		case depth == inline || mixed(n):
			b = append(b, '>')
			return b, inline, true
		default:
			b = append(b, ">\n"...)
			return b, depth + 1, true
		}
	case dom.TextNode:
		if depth == inline {
			return appendEscaped(b, n.Data, false), 0, false
		}
		text := strings.TrimSpace(n.Data)
		if text == "" {
			return b, 0, false
		}
		b = appendIndent(b, depth)
		b = appendEscaped(b, text, false)
	case dom.CommentNode:
		b = appendIndent(b, depth)
		b = append(b, "<!--"...)
		b = append(b, n.Data...)
		b = append(b, "-->"...)
	case dom.ProcessingInstructionNode:
		b = appendIndent(b, depth)
		b = append(b, "<?"...)
		b = append(b, n.Name.Local...)
		if n.Data != "" {
			b = append(b, ' ')
			b = append(b, n.Data...)
		}
		b = append(b, "?>"...)
	case dom.AttributeNode:
		b = appendIndent(b, depth)
		b = appendAttr(b, n)
	default:
		return b, 0, false
	}
	if depth != inline {
		b = append(b, '\n')
	}
	return b, 0, false
}

// appendClose appends what follows the children of an opened node.
func appendClose(b []byte, f *frame) []byte {
	if f.node.Type != dom.ElementNode {
		return b
	}
	if f.childDepth != inline {
		b = appendIndent(b, f.depth)
	}
	b = appendEndTag(b, f.node.Name)
	if f.depth != inline {
		b = append(b, '\n')
	}
	return b
}

func appendIndent(b []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		b = append(b, "  "...)
	}
	return b
}

func appendName(b []byte, q dom.QName) []byte {
	if q.Prefix != "" {
		b = append(b, q.Prefix...)
		b = append(b, ':')
	}
	return append(b, q.Local...)
}

func appendEndTag(b []byte, q dom.QName) []byte {
	b = append(b, "</"...)
	b = appendName(b, q)
	return append(b, '>')
}

func appendAttr(b []byte, a *dom.Node) []byte {
	switch {
	case a.Name.Space != XMLNSNamespace:
		b = appendName(b, a.Name)
	case a.Name.Local == "xmlns":
		b = append(b, "xmlns"...)
	default:
		b = append(b, "xmlns:"...)
		b = append(b, a.Name.Local...)
	}
	b = append(b, `="`...)
	b = appendEscaped(b, a.Data, true)
	return append(b, '"')
}

// mixed reports whether an element has meaningful text content mixed
// with its children (in which case indentation would corrupt it).
func mixed(n *dom.Node) bool {
	for _, c := range n.Children() {
		if c.Type == dom.TextNode && strings.TrimSpace(c.Data) != "" {
			return true
		}
	}
	return false
}

// appendEscaped appends s with the markup characters of character data
// (& < >) or of a double-quoted attribute value (& < ") replaced by
// entity references: it scans for the next such byte and copies the run
// before it.
func appendEscaped(b []byte, s string, attr bool) []byte {
	run := 0
	for i := 0; i < len(s); i++ {
		var ref string
		switch s[i] {
		case '&':
			ref = "&amp;"
		case '<':
			ref = "&lt;"
		case '>':
			if attr {
				continue
			}
			ref = "&gt;"
		case '"':
			if !attr {
				continue
			}
			ref = "&quot;"
		default:
			continue
		}
		b = append(b, s[run:i]...)
		b = append(b, ref...)
		run = i + 1
	}
	return append(b, s[run:]...)
}

// EscapeText escapes character data for XML output.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "&<>") {
		return s
	}
	return string(appendEscaped(make([]byte, 0, len(s)+16), s, false))
}

// EscapeAttr escapes an attribute value for double-quoted XML output.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, `&<"`) {
		return s
	}
	return string(appendEscaped(make([]byte, 0, len(s)+16), s, true))
}
