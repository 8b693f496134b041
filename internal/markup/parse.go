// Package markup parses and serializes XML and (leniently) HTML into
// the dom package's trees. It is the browser's page parser of Figure 1
// ("the browser receives an XHTML document and parses it; it generates
// the DOM") and the engine's fn:doc / constructor serializer.
//
// HTML mode is deliberately forgiving: tag names are lower-cased (the
// inverse of the Internet Explorer upper-casing issue discussed in
// paper §5.1 — we normalise down so XPath is written in lower case),
// void elements need no end tag, unquoted attribute values are
// accepted, and <script>/<style> content is raw text so embedded XQuery
// or JavaScript is never mistaken for markup.
package markup

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/dom"
)

// XMLNamespace is the reserved namespace URI of the xml: prefix.
const XMLNamespace = "http://www.w3.org/XML/1998/namespace"

// XMLNSNamespace is the reserved namespace URI of xmlns declarations.
const XMLNSNamespace = "http://www.w3.org/2000/xmlns/"

// isVoidElement reports whether an HTML element never has content.
func isVoidElement(local string) bool {
	switch local {
	case "area", "base", "br", "col", "embed", "hr", "img", "input",
		"link", "meta", "param", "source", "track", "wbr":
		return true
	}
	return false
}

// isRawTextElement reports whether an element has character-data content
// that must not be parsed as markup in HTML mode.
func isRawTextElement(local string) bool { return local == "script" || local == "style" }

// Mode selects the parsing dialect.
type Mode int

// Parsing dialects.
const (
	XML Mode = iota
	HTML
)

// ParseError reports a syntax error with byte offset and line number.
type ParseError struct {
	Offset int
	Line   int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("markup: line %d: %s", e.Line, e.Msg)
}

// Parse parses src as strict XML and returns its document node.
//
// The names, text and attribute values of the result are slices of one
// string of their own, so the tree keeps nothing of src reachable.
func Parse(src string) (*dom.Node, error) { return parse(src, XML) }

// ParseHTML parses src as lenient HTML/XHTML.
func ParseHTML(src string) (*dom.Node, error) { return parse(src, HTML) }

// ParseFragment parses src as XML content (possibly multiple roots and
// text) and returns the parsed nodes, detached.
func ParseFragment(src string) ([]*dom.Node, error) { return parseFrag(src, XML) }

// ParseFragmentHTML parses src leniently as HTML content (innerHTML
// semantics) and returns the parsed nodes, detached.
func ParseFragmentHTML(src string) ([]*dom.Node, error) { return parseFrag(src, HTML) }

func parseFrag(src string, mode Mode) ([]*dom.Node, error) {
	doc, err := parse("<frag>"+src+"</frag>", mode)
	if err != nil {
		return nil, err
	}
	wrapper := doc.DocumentElement()
	kids := append([]*dom.Node(nil), wrapper.Children()...)
	wrapper.RemoveChildren()
	return kids, nil
}

// Content parses the XML content of elements in place: how a wire
// envelope's node payloads are read where they stand
// (rest.DecodeSequence), without building the envelope. One Content
// reads every payload of an envelope, reusing its scratch.
type Content struct {
	p     parser
	nodes []*dom.Node
}

// Parse parses src from offset from as the XML content of an element
// whose end tag is </name>, through that end tag. It returns the
// content's top-level nodes, which have no parent, in a slice the next
// Parse reuses, and the offset just past the end tag. The content sees
// no namespace declaration but the xml prefix's, as at the top of a
// document. The nodes of one call are carved from the same blocks.
func (c *Content) Parse(src string, from int, name string) ([]*dom.Node, int, error) {
	p := &c.p
	p.reset(src, from, XML)
	defer p.release()
	if err := p.parseContent(name); err != nil {
		return nil, 0, err
	}
	b := dom.NewBuilder(p.elems, p.leaves, p.slots)
	c.nodes = p.build(&b, c.nodes[:0])
	return c.nodes, p.pos, nil
}

// nsBinding is one in-scope namespace declaration.
type nsBinding struct {
	prefix string
	uri    span
}

// rawAttr is an attribute as written in a start tag, before its name is
// resolved against the namespace declarations of the same tag.
type rawAttr struct {
	name string
	val  span
	pos  int // offset of the name, for error positions
}

// span is a string of the tree being read: text[lo:hi] of the parse's
// text, or, for lo < 0, one of the constants.
type span struct{ lo, hi int }

// constants are the strings a tree has that are not in its source.
var constants = [...]string{XMLNamespace, XMLNSNamespace, "xmlns"}

// The spans of the constants.
var xmlNS, xmlnsNS, xmlnsName = span{-1, -1}, span{-2, -2}, span{-3, -3}

// in returns s as a string of the tree, whose text is text.
func (s span) in(text string) string {
	if s.lo < 0 {
		return constants[-1-s.lo]
	}
	return text[s.lo:s.hi]
}

// name is an expanded name as read.
type name struct{ space, prefix, local span }

// rec is one node of the tree being read, as the tree will keep it. An
// element's record is followed by those of its attributes, then by
// those of its content.
type rec struct {
	kind        dom.NodeType // dropped: not part of the tree
	name        name
	val         span
	attrs, kids int32 // an element's, once it has closed
}

// dropped marks the record of document-level whitespace.
const dropped dom.NodeType = 0

// parser is the one parser. It records the tree first and builds it
// once it is read: the counts of what the tree keeps size one
// dom.Builder, so the nodes and lists of a tree come from three blocks,
// and every name and value it keeps is copied as it is read into one
// text, one string of the tree's own, so that the tree keeps nothing of
// its source reachable. Its scratch is reused from parse to parse
// (parsers) and holds nothing of a source between them (release).
type parser struct {
	src  string
	pos  int
	mode Mode

	// ns is the namespace bindings in scope, innermost last; an element
	// appends only what its own start tag declares and truncates back
	// when it closes.
	ns []nsBinding
	// open is the local names of the open elements, innermost last
	// (HTML end-tag recovery looks for a match among them).
	open []string

	// recs is the tree read so far, in document order. kids holds the
	// indexes in recs of the finished children of every open element,
	// innermost last, and an element counts its own off the top when it
	// closes; what is left at the end is the top level.
	recs []rec
	kids []int32
	// elems, leaves and slots are what the tree keeps, for its builder
	// (the top level's slots are the caller's).
	elems, leaves, slots int

	// Scratch for the start tag being read.
	attrs []rawAttr

	// text is every name and value of the tree, in the order read;
	// text[from:] is the character data of a text node or attribute
	// value still being read.
	text []byte
	from int
}

// parsers keeps the scratch of finished parses for the next.
var parsers = sync.Pool{New: func() any { return new(parser) }}

func parse(src string, mode Mode) (*dom.Node, error) {
	p := parsers.Get().(*parser)
	defer parsers.Put(p)
	return p.parse(src, mode)
}

// parse parses src as a document with p's scratch.
func (p *parser) parse(src string, mode Mode) (*dom.Node, error) {
	p.reset(src, 0, mode)
	defer p.release()
	if err := p.parseContent(""); err != nil {
		return nil, err
	}
	if mode == XML {
		// Strict XML: exactly one root element, no text outside it
		// (whitespace ok).
		elements := 0
		for _, i := range p.kids {
			if p.recs[i].kind == dom.ElementNode {
				elements++
			}
		}
		if elements == 0 {
			return nil, p.errorf("no root element")
		}
		for _, i := range p.kids {
			if r := &p.recs[i]; r.kind == dom.TextNode && !blank(p.text[r.val.lo:r.val.hi]) {
				return nil, p.errorf("text outside root element")
			}
		}
		if elements > 1 {
			return nil, p.errorf("multiple root elements")
		}
	}
	// Drop pure-whitespace text at the document level.
	top := 0
	for _, i := range p.kids {
		if r := &p.recs[i]; r.kind == dom.TextNode && blank(p.text[r.val.lo:r.val.hi]) {
			r.kind = dropped
			p.leaves--
			continue
		}
		top++
	}
	b := dom.NewBuilder(p.elems, p.leaves, p.slots+top)
	doc := b.Document(top)
	p.build(&b, nil)
	return doc, nil
}

// reset readies p to read src from offset from.
func (p *parser) reset(src string, from int, mode Mode) {
	p.src, p.pos, p.mode = src, from, mode
	p.ns = append(p.ns[:0], nsBinding{"xml", xmlNS})
	p.open, p.recs, p.kids, p.text = p.open[:0], p.recs[:0], p.kids[:0], p.text[:0]
	p.elems, p.leaves, p.slots, p.from = 0, 0, 0, 0
}

// release drops every string of the source p holds, so that its scratch
// pins nothing of a parse that is over. The records hold spans of p's
// own text; the stacks, which shrink, are cleared to their capacity.
func (p *parser) release() {
	clear(p.ns[:cap(p.ns)])
	clear(p.open[:cap(p.open)])
	clear(p.attrs[:cap(p.attrs)])
	p.src = ""
}

// build adds the recorded tree to b, record by record in document
// order, and returns roots with the nodes that have no parent appended:
// the top level, unless b has a document for it.
func (p *parser) build(b *dom.Builder, roots []*dom.Node) []*dom.Node {
	text := string(p.text) // the tree's one string
	for i := range p.recs {
		r := &p.recs[i]
		if r.kind == dropped {
			continue
		}
		name := dom.QName{Space: r.name.space.in(text), Prefix: r.name.prefix.in(text), Local: r.name.local.in(text)}
		var n *dom.Node
		switch r.kind {
		case dom.ElementNode:
			n = b.Element(name, int(r.attrs), int(r.kids))
		case dom.AttributeNode:
			b.Attr(name, r.val.in(text))
			continue
		default:
			n = b.Leaf(r.kind, name, r.val.in(text))
		}
		if n.Parent() == nil {
			roots = append(roots, n)
		}
	}
	return roots
}

// blank reports whether text is empty or white space.
func blank(text []byte) bool { return len(bytes.TrimSpace(text)) == 0 }

// same reports whether two spans hold the same string.
func (p *parser) same(a, b span) bool {
	switch {
	case a.lo < 0 && b.lo < 0:
		return a == b
	case a.lo < 0:
		return constants[-1-a.lo] == string(p.text[b.lo:b.hi])
	case b.lo < 0:
		return constants[-1-b.lo] == string(p.text[a.lo:a.hi])
	}
	return string(p.text[a.lo:a.hi]) == string(p.text[b.lo:b.hi])
}

// leaf records a leaf node as the next child of the innermost open
// element.
func (p *parser) leaf(kind dom.NodeType, local, val span) {
	p.kids = append(p.kids, int32(len(p.recs)))
	p.recs = append(p.recs, rec{kind: kind, name: name{local: local}, val: val})
	p.leaves++
}

func (p *parser) errorf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:min(p.pos, len(p.src))], "\n")
	return &ParseError{Offset: p.pos, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) hasPrefix(s string) bool { return strings.HasPrefix(p.src[p.pos:], s) }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func (p *parser) skipSpace() {
	for !p.eof() && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) readName() (string, error) {
	start := p.pos
	if p.eof() || !isNameStart(p.src[p.pos]) {
		return "", p.errorf("expected name")
	}
	for !p.eof() && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

// addRun appends a stretch of the source to the pending character data.
func (p *parser) addRun(s string) { p.text = append(p.text, s...) }

// addRune appends a decoded entity to the pending character data.
func (p *parser) addRune(r rune) { p.text = utf8.AppendRune(p.text, r) }

// take returns the pending character data and clears it.
func (p *parser) take() span {
	s := span{p.from, len(p.text)}
	p.from = s.hi
	return s
}

// keep adds s to the tree's text; nothing may be pending.
func (p *parser) keep(s string) span {
	p.addRun(s)
	return p.take()
}

// flushText turns pending character data into a text node.
func (p *parser) flushText() {
	if v := p.take(); v.hi > v.lo {
		p.leaf(dom.TextNode, span{}, v)
	}
}

// parseContent parses children onto the kids stack until the matching
// end tag of closeName (or EOF for the document level, closeName == "").
func (p *parser) parseContent(closeName string) error {
	for {
		if p.eof() {
			p.flushText()
			if closeName == "" {
				return nil
			}
			if p.mode == HTML {
				return nil // implied close at EOF
			}
			return p.errorf("unexpected EOF: unclosed <%s>", closeName)
		}
		switch c := p.src[p.pos]; {
		case c == '&':
			r, err := p.readEntity()
			if err != nil {
				return err
			}
			p.addRune(r)
		case c != '<':
			start := p.pos
			for p.pos++; !p.eof() && p.src[p.pos] != '<' && p.src[p.pos] != '&'; p.pos++ {
			}
			p.addRun(p.src[start:p.pos])
		case p.hasPrefix("<!--"):
			p.flushText()
			if err := p.parseComment(); err != nil {
				return err
			}
		case p.hasPrefix("<![CDATA["):
			p.pos += len("<![CDATA[")
			end := strings.Index(p.src[p.pos:], "]]>")
			if end < 0 {
				return p.errorf("unterminated CDATA section")
			}
			p.addRun(p.src[p.pos : p.pos+end])
			p.pos += end + 3
		case p.hasPrefix("<!"):
			// DOCTYPE or other declaration: skip to '>'.
			end := strings.IndexByte(p.src[p.pos:], '>')
			if end < 0 {
				return p.errorf("unterminated declaration")
			}
			p.pos += end + 1
		case p.hasPrefix("<?"):
			p.flushText()
			if err := p.parsePI(); err != nil {
				return err
			}
		case p.hasPrefix("</"):
			p.flushText()
			save := p.pos
			p.pos += 2
			name, err := p.readName()
			if err != nil {
				return err
			}
			p.skipSpace()
			if p.peek() != '>' {
				return p.errorf("malformed end tag </%s", name)
			}
			p.pos++
			if p.mode == HTML {
				name = strings.ToLower(name)
			}
			if name == closeName {
				return nil
			}
			if p.mode != HTML {
				return p.errorf("mismatched end tag </%s>, expected </%s>", name, closeName)
			}
			// Mismatched end tag: if an open element matches, imply the
			// close of the current element by rewinding so the parent's
			// parseContent re-reads this end tag. Otherwise ignore the
			// stray end tag.
			if closeName != "" && p.isOpen(name) {
				p.pos = save
				return nil
			}
		default:
			p.flushText()
			if err := p.parseElement(); err != nil {
				return err
			}
		}
	}
}

// isOpen reports whether an open element has the given (lower-cased)
// local name.
func (p *parser) isOpen(name string) bool {
	for _, o := range p.open {
		if o == name {
			return true
		}
	}
	return false
}

func (p *parser) parseComment() error {
	p.pos += len("<!--")
	end := strings.Index(p.src[p.pos:], "-->")
	if end < 0 {
		return p.errorf("unterminated comment")
	}
	p.leaf(dom.CommentNode, span{}, p.keep(p.src[p.pos:p.pos+end]))
	p.pos += end + 3
	return nil
}

func (p *parser) parsePI() error {
	p.pos += 2
	target, err := p.readName()
	if err != nil {
		return err
	}
	end := strings.Index(p.src[p.pos:], "?>")
	if end < 0 {
		return p.errorf("unterminated processing instruction")
	}
	data := strings.TrimLeft(p.src[p.pos:p.pos+end], " \t\r\n")
	p.pos += end + 2
	if strings.EqualFold(target, "xml") {
		return nil // XML declaration: ignore
	}
	p.leaf(dom.ProcessingInstructionNode, p.keep(target), p.keep(data))
	return nil
}

func (p *parser) parseElement() error {
	p.pos++ // '<'
	rawName, err := p.readName()
	if err != nil {
		return err
	}
	if p.mode == HTML {
		rawName = strings.ToLower(rawName)
	}

	p.attrs = p.attrs[:0]
	selfClose := false
	for {
		p.skipSpace()
		if p.eof() {
			return p.errorf("unterminated start tag <%s", rawName)
		}
		if p.hasPrefix("/>") {
			p.pos += 2
			selfClose = true
			break
		}
		if p.peek() == '>' {
			p.pos++
			break
		}
		apos := p.pos
		aname, err := p.readName()
		if err != nil {
			return err
		}
		if p.mode == HTML {
			aname = strings.ToLower(aname)
		}
		p.skipSpace()
		var aval span
		if p.peek() == '=' {
			p.pos++
			p.skipSpace()
			aval, err = p.readAttrValue()
			if err != nil {
				return err
			}
		} else if p.mode == XML {
			return p.errorf("attribute %s missing value", aname)
		}
		p.attrs = append(p.attrs, rawAttr{aname, aval, apos})
	}

	// The tag's own declarations are in scope for its own names.
	nsMark := len(p.ns)
	for _, a := range p.attrs {
		if a.name == "xmlns" {
			p.ns = append(p.ns, nsBinding{"", a.val})
		} else if strings.HasPrefix(a.name, "xmlns:") {
			p.ns = append(p.ns, nsBinding{a.name[6:], a.val})
		}
	}

	el := len(p.recs)
	p.recs = append(p.recs, rec{kind: dom.ElementNode, name: p.resolveName(rawName, true)})
	local := rawName // as resolveName splits it
	if i := strings.IndexByte(rawName, ':'); i > 0 {
		local = rawName[i+1:]
	}
	for _, a := range p.attrs {
		var name name
		switch {
		case a.name == "xmlns":
			// Keep declarations as attributes for faithful reserialization.
			name.space, name.local = xmlnsNS, xmlnsName
		case strings.HasPrefix(a.name, "xmlns:"):
			name.space, name.prefix, name.local = xmlnsNS, xmlnsName, p.keep(a.name[6:])
		default:
			name = p.resolveName(a.name, false)
		}
		if dup := p.attrNamed(el, name); dup != nil {
			if p.mode == XML {
				p.pos = a.pos
				return p.errorf("duplicate attribute %s", a.name)
			}
			dup.val = a.val // HTML: the last value wins, in the first's place
			continue
		}
		p.recs = append(p.recs, rec{kind: dom.AttributeNode, name: name, val: a.val})
	}
	attrs := len(p.recs) - el - 1
	p.kids = append(p.kids, int32(el))

	kids := 0
	if !selfClose && !(p.mode == HTML && isVoidElement(local)) {
		mark := len(p.kids)
		if p.mode == HTML && isRawTextElement(local) {
			p.parseRawText(local)
		} else {
			p.open = append(p.open, local)
			// End tags match on the lexical (possibly prefixed) name.
			err = p.parseContent(rawName)
			p.open = p.open[:len(p.open)-1]
		}
		kids = len(p.kids) - mark
		p.kids = p.kids[:mark]
	}
	p.recs[el].attrs, p.recs[el].kids = int32(attrs), int32(kids)
	p.elems++
	p.leaves += attrs
	p.slots += dom.ListSlots(attrs, kids)
	p.ns = p.ns[:nsMark]
	return err
}

// attrNamed returns the record of the attribute already read for the
// start tag of the element recorded at el under the same expanded name,
// if any.
func (p *parser) attrNamed(el int, n name) *rec {
	for i := el + 1; i < len(p.recs); i++ {
		if a := &p.recs[i]; p.same(a.name.space, n.space) && p.same(a.name.local, n.local) {
			return a
		}
	}
	return nil
}

// parseRawText consumes character data until the matching end tag,
// without interpreting markup (HTML <script>/<style> content model).
func (p *parser) parseRawText(local string) {
	start, end := p.pos, len(p.src) // EOF is an implied close
	for {
		i := strings.IndexByte(p.src[p.pos:], '<')
		if i < 0 {
			p.pos = len(p.src)
			break
		}
		p.pos += i
		// "</" + local in any case, followed by whitespace or '>'.
		after := p.pos + 2 + len(local)
		if after < len(p.src) && p.src[p.pos+1] == '/' &&
			strings.EqualFold(p.src[p.pos+2:after], local) &&
			(p.src[after] == '>' || isSpace(p.src[after])) {
			end = p.pos
			p.pos = after
			for !p.eof() && p.peek() != '>' {
				p.pos++
			}
			if !p.eof() {
				p.pos++
			}
			break
		}
		p.pos++
	}
	text := p.src[start:end]
	// Strip a CDATA wrapper if the page author used one (XHTML habit).
	trimmed := strings.TrimSpace(text)
	if strings.HasPrefix(trimmed, "<![CDATA[") && strings.HasSuffix(trimmed, "]]>") {
		text = strings.TrimSuffix(strings.TrimPrefix(trimmed, "<![CDATA["), "]]>")
	}
	if text != "" {
		p.leaf(dom.TextNode, span{}, p.keep(text))
	}
}

// lookupNS returns the URI bound to prefix ("" for the default
// namespace), or the empty span if it is not declared.
func (p *parser) lookupNS(prefix string) span {
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return p.ns[i].uri
		}
	}
	return span{}
}

// resolveName maps a lexical name to an expanded name using the current
// namespace scope, and adds its prefix and local part to the tree's
// text. Elements use the default namespace; attributes do not.
func (p *parser) resolveName(lexical string, element bool) name {
	if i := strings.IndexByte(lexical, ':'); i > 0 {
		prefix, local := lexical[:i], lexical[i+1:]
		return name{p.lookupNS(prefix), p.keep(prefix), p.keep(local)}
	}
	if element {
		return name{space: p.lookupNS(""), local: p.keep(lexical)}
	}
	return name{local: p.keep(lexical)}
}

func (p *parser) readAttrValue() (span, error) {
	if p.eof() {
		return span{}, p.errorf("expected attribute value")
	}
	q := p.peek()
	if q == '"' || q == '\'' {
		p.pos++
		for {
			start := p.pos
			for !p.eof() && p.src[p.pos] != q && p.src[p.pos] != '&' {
				p.pos++
			}
			p.addRun(p.src[start:p.pos])
			if p.eof() {
				return span{}, p.errorf("unterminated attribute value")
			}
			if p.src[p.pos] == q {
				p.pos++
				return p.take(), nil
			}
			r, err := p.readEntity()
			if err != nil {
				return span{}, err
			}
			p.addRune(r)
		}
	}
	if p.mode == HTML {
		// Unquoted value: up to whitespace or '>'.
		start := p.pos
		for !p.eof() {
			c := p.peek()
			if isSpace(c) || c == '>' {
				break
			}
			if c == '/' && p.hasPrefix("/>") {
				break
			}
			p.pos++
		}
		return p.keep(p.src[start:p.pos]), nil
	}
	return span{}, p.errorf("attribute value must be quoted")
}

// maxEntityLen bounds the name of an entity reference: an '&' with no
// ';' within it is not a reference.
const maxEntityLen = 32

// readEntity decodes the entity reference at p.pos (an '&'). HTML
// mode takes an ampersand that starts no reference it knows as itself.
func (p *parser) readEntity() (rune, error) {
	r, n, msg := entity(p.src[p.pos:], p.mode)
	if n == 0 {
		if p.mode == HTML {
			p.pos++
			return '&', nil
		}
		return 0, p.errorf("%s", msg)
	}
	p.pos += n
	return r, nil
}

// Entity decodes the XML entity reference s starts with: one of the
// five predefined entities or a character reference. It returns the
// character and the reference's length in bytes, or a length of 0 when
// s does not start with a reference the XML parser accepts.
func Entity(s string) (rune, int) {
	r, n, _ := entity(s, XML)
	return r, n
}

// entity decodes the entity reference at the start of s (an '&') under
// mode's rules: the character and the reference's length, or a length
// of 0 and what is wrong. HTML mode also knows &nbsp; and reads a bad
// character reference as U+FFFD.
func entity(s string, mode Mode) (r rune, n int, msg string) {
	semi := strings.IndexByte(s[:min(len(s), maxEntityLen+1)], ';')
	if semi < 0 {
		return 0, 0, "unterminated entity reference"
	}
	switch ent := s[1:semi]; {
	case ent == "lt":
		r = '<'
	case ent == "gt":
		r = '>'
	case ent == "amp":
		r = '&'
	case ent == "quot":
		r = '"'
	case ent == "apos":
		r = '\''
	case ent == "nbsp" && mode == HTML:
		r = '\u00a0'
	case strings.HasPrefix(ent, "#"):
		var ok bool
		if r, ok = charRef(ent[1:]); !ok {
			if mode == XML {
				return 0, 0, fmt.Sprintf("bad character reference &%s;", ent)
			}
			r = utf8.RuneError
		}
	default:
		return 0, 0, fmt.Sprintf("unknown entity &%s;", ent)
	}
	return r, semi + 1, ""
}

// charRef decodes the body of a numeric character reference (what stands
// between "&#" and ";"): decimal digits, or x/X and hexadecimal digits,
// and nothing else — no sign, no blank, no trailing bytes. It reports
// false for those, for 0, for surrogates and for values above U+10FFFF.
func charRef(body string) (rune, bool) {
	base := 10
	if strings.HasPrefix(body, "x") || strings.HasPrefix(body, "X") {
		body, base = body[1:], 16
	}
	n, err := strconv.ParseUint(body, base, 32)
	if err != nil || n == 0 || !utf8.ValidRune(rune(n)) {
		return 0, false
	}
	return rune(n), true
}
