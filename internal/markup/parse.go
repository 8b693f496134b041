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
	"fmt"
	"slices"
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
	p := parsers.Get().(*parser)
	defer parsers.Put(p)
	return p.content(src, 0, mode, "", nil)
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
	nodes, err := c.p.content(src, from, XML, name, c.nodes[:0])
	if err != nil {
		return nil, 0, err
	}
	c.nodes = nodes
	return nodes, c.p.pos, nil
}

// nsBinding is one in-scope namespace declaration, its URI both a
// string to compare names by and a string of the tree.
type nsBinding struct {
	prefix, uri string
	str         dom.Str
}

// rawAttr is an attribute as written in a start tag (its value as
// written is raw, decoded if quoted), then resolved against the
// namespace declarations of the tag: n, with its URI and local part to
// compare by.
type rawAttr struct {
	name, raw    string
	val          dom.Str
	quoted       bool
	pos          int // offset of the name, for error positions
	n            name
	space, local string
}

// name is an expanded name as read.
type name struct{ space, prefix, local dom.Str }

// parser is the one parser. It records the tree as it reads it
// (dom.Recorder), copying every name and value it keeps into the
// recording's text, so that the built tree keeps nothing of its source
// reachable. Its scratch is reused from parse to parse (parsers) and
// holds nothing of a source between them (release).
type parser struct {
	src  string
	pos  int
	mode Mode
	// document is set while reading a document, whose top level keeps no
	// white space and, in XML, one element and no other text.
	document bool

	// ns is the namespace bindings in scope, innermost last; an element
	// appends only what its own start tag declares and truncates back
	// when it closes.
	ns []nsBinding
	// open is the local names of the open elements, innermost last
	// (HTML end-tag recovery looks for a match among them).
	open []string

	r     dom.Recorder
	built bool // unset: the recording was abandoned part way
	// Strings a tree has that are not in its source.
	xmlnsNS, xmlnsName dom.Str

	// A document's top level: its elements, whether the text being read
	// there is more than white space, and whether it kept text.
	elems         int
	solid, strays bool

	// Scratch for the start tag being read.
	attrs []rawAttr
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
	p.reset(src, 0, mode, true)
	defer p.release()
	p.r.Open(dom.DocumentNode)
	err := p.parseContent("")
	switch { // strict XML: exactly one root element, no text outside it
	case err != nil || mode != XML:
	case p.elems == 0:
		err = p.errorf("no root element")
	case p.strays:
		err = p.errorf("text outside root element")
	case p.elems > 1:
		err = p.errorf("multiple root elements")
	}
	if err != nil {
		return nil, err
	}
	p.r.Close(dom.Str{}, dom.Str{}, dom.Str{})
	var doc [1]*dom.Node
	roots := p.r.Build(doc[:0])
	p.built = true
	return roots[0], nil
}

// content parses src from offset from as top-level content, through
// the end tag </closeName> if closeName is not "", and returns roots
// with the content's nodes appended.
func (p *parser) content(src string, from int, mode Mode, closeName string, roots []*dom.Node) ([]*dom.Node, error) {
	p.reset(src, from, mode, false)
	defer p.release()
	if err := p.parseContent(closeName); err != nil {
		return nil, err
	}
	roots = p.r.Build(roots)
	p.built = true
	return roots, nil
}

// reset readies p to read src from offset from, as a document or as
// content.
func (p *parser) reset(src string, from int, mode Mode, document bool) {
	p.src, p.pos, p.mode, p.document, p.built = src, from, mode, document, false
	p.xmlnsNS, p.xmlnsName = p.r.Str(XMLNSNamespace), p.r.Str("xmlns")
	p.ns = append(p.ns[:0], nsBinding{"xml", XMLNamespace, p.r.Str(XMLNamespace)})
	p.open = p.open[:0]
	p.elems, p.solid, p.strays = 0, false, false
}

// release drops every string of the source p holds, so that its scratch
// pins nothing of a parse that is over, and a recording abandoned part
// way. A built recording holds nothing; the stacks, which shrink, are
// cleared to their capacity.
func (p *parser) release() {
	if !p.built {
		p.r = dom.Recorder{}
	}
	clear(p.ns[:cap(p.ns)])
	clear(p.open[:cap(p.open)])
	clear(p.attrs[:cap(p.attrs)])
	p.src = ""
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

// keep adds s to the tree's text; nothing may be pending.
func (p *parser) keep(s string) dom.Str {
	p.r.Append(s)
	return p.r.Take()
}

// addRun appends character data; top says it is at a document's top
// level.
func (p *parser) addRun(s string, top bool) {
	p.r.Append(s)
	p.solid = p.solid || top && strings.TrimSpace(s) != ""
}

// flushText turns pending character data into a text node, except at a
// document's top level (top), where white space is dropped.
func (p *parser) flushText(top bool) {
	v := p.r.Take()
	if top {
		if !p.solid {
			return
		}
		p.solid, p.strays = false, true
	}
	p.r.Leaf(dom.TextNode, dom.Str{}, dom.Str{}, dom.Str{}, v)
}

// parseContent parses children into the recording until the matching
// end tag of closeName, or EOF for the top level (closeName == "").
func (p *parser) parseContent(closeName string) error {
	top := closeName == "" && p.document
	for {
		if p.eof() {
			p.flushText(top)
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
			p.addRun(string(r), top)
		case c != '<':
			start := p.pos
			for p.pos++; !p.eof() && p.src[p.pos] != '<' && p.src[p.pos] != '&'; p.pos++ {
			}
			p.addRun(p.src[start:p.pos], top)
		case p.hasPrefix("<!--"):
			p.flushText(top)
			if err := p.parseComment(); err != nil {
				return err
			}
		case p.hasPrefix("<![CDATA["):
			p.pos += len("<![CDATA[")
			end := strings.Index(p.src[p.pos:], "]]>")
			if end < 0 {
				return p.errorf("unterminated CDATA section")
			}
			p.addRun(p.src[p.pos:p.pos+end], top)
			p.pos += end + 3
		case p.hasPrefix("<!"):
			// DOCTYPE or other declaration: skip to '>'.
			end := strings.IndexByte(p.src[p.pos:], '>')
			if end < 0 {
				return p.errorf("unterminated declaration")
			}
			p.pos += end + 1
		case p.hasPrefix("<?"):
			p.flushText(top)
			if err := p.parsePI(); err != nil {
				return err
			}
		case p.hasPrefix("</"):
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
				p.flushText(top)
				return nil
			}
			if p.mode != HTML {
				if closeName == "" {
					return p.errorf("unexpected end tag </%s>", name)
				}
				return p.errorf("mismatched end tag </%s>, expected </%s>", name, closeName)
			}
			// Mismatched end tag: if an open element matches, imply the
			// close of the current element by rewinding so the parent's
			// parseContent re-reads this end tag. Otherwise ignore the
			// stray end tag, and the character data around it stays one
			// run.
			if closeName != "" && slices.Contains(p.open, name) {
				p.flushText(top)
				p.pos = save
				return nil
			}
		default:
			p.flushText(top)
			if err := p.parseElement(); err != nil {
				return err
			}
		}
	}
}

func (p *parser) parseComment() error {
	p.pos += len("<!--")
	end := strings.Index(p.src[p.pos:], "-->")
	if end < 0 {
		return p.errorf("unterminated comment")
	}
	p.r.Leaf(dom.CommentNode, dom.Str{}, dom.Str{}, dom.Str{}, p.keep(p.src[p.pos:p.pos+end]))
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
	p.r.Leaf(dom.ProcessingInstructionNode, dom.Str{}, dom.Str{}, p.keep(target), p.keep(data))
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
		a := rawAttr{name: aname, pos: apos}
		if p.peek() == '=' {
			p.pos++
			p.skipSpace()
			if err := p.readAttrValue(&a); err != nil {
				return err
			}
		} else if p.mode == XML {
			return p.errorf("attribute %s missing value", aname)
		}
		p.attrs = append(p.attrs, a)
	}

	// The tag's own declarations are in scope for its own names.
	nsMark := len(p.ns)
	for i := range p.attrs {
		if a := &p.attrs[i]; a.name == "xmlns" {
			p.ns = append(p.ns, nsBinding{"", a.value(p.mode), a.val})
		} else if strings.HasPrefix(a.name, "xmlns:") {
			p.ns = append(p.ns, nsBinding{a.name[6:], a.value(p.mode), a.val})
		}
	}

	if p.document && len(p.open) == 0 {
		p.elems++
	}
	p.r.Open(dom.ElementNode)
	el, _, local := p.resolveName(rawName, true)
	kept := p.attrs[:0]
	for i := range p.attrs {
		a := &p.attrs[i]
		switch {
		case a.name == "xmlns":
			// Keep declarations as attributes for faithful reserialization.
			a.n, a.space, a.local = name{space: p.xmlnsNS, local: p.xmlnsName}, XMLNSNamespace, "xmlns"
		case strings.HasPrefix(a.name, "xmlns:"):
			a.n, a.space, a.local = name{p.xmlnsNS, p.xmlnsName, p.keep(a.name[6:])}, XMLNSNamespace, a.name[6:]
		default:
			a.n, a.space, a.local = p.resolveName(a.name, false)
		}
		if j := slices.IndexFunc(kept, func(k rawAttr) bool { return k.space == a.space && k.local == a.local }); j >= 0 {
			if p.mode == XML {
				p.pos = a.pos
				return p.errorf("duplicate attribute %s", a.name)
			}
			kept[j].val = a.val // HTML: the last value wins, in the first's place
			continue
		}
		if kept = kept[:len(kept)+1]; len(kept) <= i {
			kept[len(kept)-1] = *a
		}
	}
	for i := range kept {
		p.r.Leaf(dom.AttributeNode, kept[i].n.space, kept[i].n.prefix, kept[i].n.local, kept[i].val)
	}

	if !selfClose && !(p.mode == HTML && isVoidElement(local)) {
		if p.mode == HTML && isRawTextElement(local) {
			p.parseRawText(local)
		} else {
			p.open = append(p.open, local)
			// End tags match on the lexical (possibly prefixed) name.
			err = p.parseContent(rawName)
			p.open = p.open[:len(p.open)-1]
		}
	}
	p.r.Close(el.space, el.prefix, el.local)
	p.ns = p.ns[:nsMark]
	return err
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
		p.r.Leaf(dom.TextNode, dom.Str{}, dom.Str{}, dom.Str{}, p.keep(text))
	}
}

// lookupNS returns the binding of prefix ("" for the default
// namespace), or the empty one if it is not declared.
func (p *parser) lookupNS(prefix string) nsBinding {
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return p.ns[i]
		}
	}
	return nsBinding{}
}

// resolveName maps a lexical name to an expanded name using the current
// namespace scope, and adds its prefix and local part to the tree's
// text. It also returns the namespace URI and the local part as
// strings. Elements use the default namespace; attributes do not.
func (p *parser) resolveName(lexical string, element bool) (n name, space, local string) {
	if i := strings.IndexByte(lexical, ':'); i > 0 {
		prefix, local := lexical[:i], lexical[i+1:]
		b := p.lookupNS(prefix)
		return name{b.str, p.keep(prefix), p.keep(local)}, b.uri, local
	}
	if element {
		b := p.lookupNS("")
		return name{space: b.str, local: p.keep(lexical)}, b.uri, lexical
	}
	return name{local: p.keep(lexical)}, "", lexical
}

// readAttrValue reads a's value into the tree's text.
func (p *parser) readAttrValue(a *rawAttr) error {
	if p.eof() {
		return p.errorf("expected attribute value")
	}
	q := p.peek()
	if q == '"' || q == '\'' {
		p.pos++
		from := p.pos
		for {
			start := p.pos
			for !p.eof() && p.src[p.pos] != q && p.src[p.pos] != '&' {
				p.pos++
			}
			p.r.Append(p.src[start:p.pos])
			if p.eof() {
				return p.errorf("unterminated attribute value")
			}
			if p.src[p.pos] == q {
				a.raw, a.quoted, a.val = p.src[from:p.pos], true, p.r.Take()
				p.pos++
				return nil
			}
			r, err := p.readEntity()
			if err != nil {
				return err
			}
			p.r.Append(string(r))
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
		a.raw, a.val = p.src[start:p.pos], p.keep(p.src[start:p.pos])
		return nil
	}
	return p.errorf("attribute value must be quoted")
}

// value is a's value decoded again from the source (a declaration's
// URI).
func (a *rawAttr) value(mode Mode) string {
	if !a.quoted || strings.IndexByte(a.raw, '&') < 0 {
		return a.raw
	}
	var b []byte
	for s := a.raw; s != ""; {
		if s[0] != '&' {
			b, s = append(b, s[0]), s[1:]
			continue
		}
		r, n, _ := entity(s, mode)
		if n == 0 { // HTML: an ampersand that starts no reference
			r, n = '&', 1
		}
		b, s = utf8.AppendRune(b, r), s[n:]
	}
	return string(b)
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
