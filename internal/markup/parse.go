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
	"strconv"
	"strings"
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
// Names, text and attribute values of the result are substrings of src
// wherever no entity reference or CDATA section had to be spliced in, so
// the tree keeps src reachable for as long as any of its nodes lives.
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
type Content struct{ p parser }

// Parse parses src from offset from as the XML content of an element
// whose end tag is </name>, through that end tag. It returns the
// content's top-level nodes, which have no parent, in a slice the next
// Parse reuses, and the offset just past the end tag. The content sees
// no namespace declaration but the xml prefix's, as at the top of a
// document.
func (c *Content) Parse(src string, from int, name string) ([]*dom.Node, int, error) {
	p := &c.p
	p.src, p.pos, p.mode = src, from, XML
	p.ns = append(p.ns[:0], nsBinding{"xml", XMLNamespace})
	p.kids = p.kids[:0]
	if err := p.parseContent(name); err != nil {
		return nil, 0, err
	}
	return p.kids, p.pos, nil
}

// nsBinding is one in-scope namespace declaration.
type nsBinding struct{ prefix, uri string }

// rawAttr is an attribute as written in a start tag, before its name is
// resolved against the namespace declarations of the same tag.
type rawAttr struct {
	name, value string
	pos         int // offset of the name, for error positions
}

// parser is the one parser. It builds the tree bottom-up: the finished
// children of every open element wait on the kids stack and an element
// takes its own off the top when it closes (dom.AdoptChildren), so no
// node is attached through the checked, root-walking dom mutators.
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
	kids []*dom.Node

	// Scratch for the start tag being read.
	attrs []rawAttr
	specs []dom.AttrSpec

	// Pending character data of one text node or attribute value: a
	// single run of the source stays a substring of it (run); only when
	// an entity or a second run is spliced in is it copied (buf). At
	// most one of the two is non-empty.
	run string
	buf []byte
}

func parse(src string, mode Mode) (*dom.Node, error) {
	p := &parser{src: src, mode: mode, ns: []nsBinding{{"xml", XMLNamespace}}}
	if err := p.parseContent(""); err != nil {
		return nil, err
	}
	if mode == XML {
		// Strict XML: exactly one root element, no text outside it
		// (whitespace ok).
		elements := 0
		for _, c := range p.kids {
			if c.Type == dom.ElementNode {
				elements++
			}
		}
		if elements == 0 {
			return nil, p.errorf("no root element")
		}
		for _, c := range p.kids {
			if c.Type == dom.TextNode && strings.TrimSpace(c.Data) != "" {
				return nil, p.errorf("text outside root element")
			}
		}
		if elements > 1 {
			return nil, p.errorf("multiple root elements")
		}
	}
	// Drop pure-whitespace text at the document level.
	top := p.kids[:0]
	for _, c := range p.kids {
		if c.Type != dom.TextNode || strings.TrimSpace(c.Data) != "" {
			top = append(top, c)
		}
	}
	doc := dom.NewDocument()
	doc.AdoptChildren(top)
	return doc, nil
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
func (p *parser) addRun(s string) {
	switch {
	case s == "":
	case p.run == "" && len(p.buf) == 0:
		p.run = s
	default:
		p.buf = append(append(p.buf, p.run...), s...)
		p.run = ""
	}
}

// addRune appends a decoded entity to the pending character data.
func (p *parser) addRune(r rune) {
	p.buf = utf8.AppendRune(append(p.buf, p.run...), r)
	p.run = ""
}

// take returns the pending character data and clears it.
func (p *parser) take() string {
	s := p.run
	if len(p.buf) > 0 {
		s = string(p.buf)
	}
	p.run, p.buf = "", p.buf[:0]
	return s
}

// flushText turns pending character data into a text node.
func (p *parser) flushText() {
	if s := p.take(); s != "" {
		p.kids = append(p.kids, dom.NewText(s))
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
	p.kids = append(p.kids, dom.NewComment(p.src[p.pos:p.pos+end]))
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
	p.kids = append(p.kids, dom.NewPI(target, data))
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
		aval := ""
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
			p.ns = append(p.ns, nsBinding{"", a.value})
		} else if strings.HasPrefix(a.name, "xmlns:") {
			p.ns = append(p.ns, nsBinding{a.name[6:], a.value})
		}
	}

	el := dom.NewElement(p.resolveName(rawName, true))
	p.specs = p.specs[:0]
	for _, a := range p.attrs {
		var name dom.QName
		switch {
		case a.name == "xmlns":
			// Keep declarations as attributes for faithful reserialization.
			name = dom.QName{Space: XMLNSNamespace, Local: "xmlns"}
		case strings.HasPrefix(a.name, "xmlns:"):
			name = dom.QName{Space: XMLNSNamespace, Prefix: "xmlns", Local: a.name[6:]}
		default:
			name = p.resolveName(a.name, false)
		}
		if dup := p.specNamed(name); dup != nil {
			if p.mode == XML {
				p.pos = a.pos
				return p.errorf("duplicate attribute %s", a.name)
			}
			dup.Value = a.value // HTML: the last value wins, in the first's place
			continue
		}
		p.specs = append(p.specs, dom.AttrSpec{Name: name, Value: a.value})
	}
	el.AdoptAttrs(p.specs)
	p.kids = append(p.kids, el)

	if !selfClose && !(p.mode == HTML && isVoidElement(el.Name.Local)) {
		mark := len(p.kids)
		if p.mode == HTML && isRawTextElement(el.Name.Local) {
			p.parseRawText(el.Name.Local)
		} else {
			p.open = append(p.open, el.Name.Local)
			// End tags match on the lexical (possibly prefixed) name.
			err = p.parseContent(rawName)
			p.open = p.open[:len(p.open)-1]
		}
		el.AdoptChildren(p.kids[mark:])
		p.kids = p.kids[:mark]
	}
	p.ns = p.ns[:nsMark]
	return err
}

// specNamed returns the attribute already collected for the start tag
// under the same expanded name, if any.
func (p *parser) specNamed(name dom.QName) *dom.AttrSpec {
	for i := range p.specs {
		if p.specs[i].Name.Matches(name) {
			return &p.specs[i]
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
		p.kids = append(p.kids, dom.NewText(text))
	}
}

// lookupNS returns the URI bound to prefix ("" for the default
// namespace), or "" if it is not declared.
func (p *parser) lookupNS(prefix string) string {
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return p.ns[i].uri
		}
	}
	return ""
}

// resolveName maps a lexical name to an expanded QName using the current
// namespace scope. Elements use the default namespace; attributes do not.
func (p *parser) resolveName(lexical string, element bool) dom.QName {
	if i := strings.IndexByte(lexical, ':'); i > 0 {
		prefix, local := lexical[:i], lexical[i+1:]
		return dom.QName{Space: p.lookupNS(prefix), Prefix: prefix, Local: local}
	}
	if element {
		return dom.QName{Space: p.lookupNS(""), Local: lexical}
	}
	return dom.QName{Local: lexical}
}

func (p *parser) readAttrValue() (string, error) {
	if p.eof() {
		return "", p.errorf("expected attribute value")
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
				return "", p.errorf("unterminated attribute value")
			}
			if p.src[p.pos] == q {
				p.pos++
				return p.take(), nil
			}
			r, err := p.readEntity()
			if err != nil {
				return "", err
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
		return p.src[start:p.pos], nil
	}
	return "", p.errorf("attribute value must be quoted")
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
