package markup

// The seed's recursive strings.Builder serializer and its recursive
// AppendChild/SetAttr parser, kept as the reference the kernels in
// serialize.go and parse.go are compared against (differential_test.go).
// They differ from the seed in two places only: the replacers are built
// once instead of per call, and numeric character references go through
// charRef (see oracleParser.readEntity).

import (
	"fmt"
	"maps"
	"strings"
	"unicode/utf8"

	"repro/internal/dom"
)

var (
	oracleTextReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	oracleAttrReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
)

// oracleVoidElements are HTML elements that never have content.
var oracleVoidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// oracleRawTextElements have character-data content that must not be parsed
// as markup in HTML mode.
var oracleRawTextElements = map[string]bool{"script": true, "style": true}

type oracleParser struct {
	src  string
	pos  int
	mode Mode
	// namespace scopes: stack of prefix->URI maps
	nsStack []map[string]string
}

func oracleParse(src string, mode Mode) (*dom.Node, error) {
	p := &oracleParser{src: src, mode: mode,
		nsStack: []map[string]string{{"xml": XMLNamespace}}}
	doc := dom.NewDocument()
	if err := p.parseContent(doc, ""); err != nil {
		return nil, err
	}
	if mode == XML {
		if doc.DocumentElement() == nil {
			return nil, p.errorf("no root element")
		}
		// Strict XML: exactly one root element, no text outside it
		// (whitespace ok).
		elements := 0
		for _, c := range doc.Children() {
			switch c.Type {
			case dom.ElementNode:
				elements++
			case dom.TextNode:
				if strings.TrimSpace(c.Data) != "" {
					return nil, p.errorf("text outside root element")
				}
			}
		}
		if elements > 1 {
			return nil, p.errorf("multiple root elements")
		}
	}
	// Drop pure-whitespace text at the document level.
	var drop []*dom.Node
	for _, c := range doc.Children() {
		if c.Type == dom.TextNode && strings.TrimSpace(c.Data) == "" {
			drop = append(drop, c)
		}
	}
	for _, c := range drop {
		c.Detach()
	}
	return doc, nil
}

func (p *oracleParser) errorf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:min(p.pos, len(p.src))], "\n")
	return &ParseError{Offset: p.pos, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *oracleParser) eof() bool { return p.pos >= len(p.src) }

func (p *oracleParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *oracleParser) hasPrefix(s string) bool { return strings.HasPrefix(p.src[p.pos:], s) }

func (p *oracleParser) hasPrefixFold(s string) bool {
	if p.pos+len(s) > len(p.src) {
		return false
	}
	return strings.EqualFold(p.src[p.pos:p.pos+len(s)], s)
}

func (p *oracleParser) skipSpace() {
	for !p.eof() {
		switch p.src[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

func (p *oracleParser) readName() (string, error) {
	start := p.pos
	if p.eof() || !isNameStart(p.src[p.pos]) {
		return "", p.errorf("expected name")
	}
	for !p.eof() && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

// parseContent parses children into parent until the matching end tag of
// closeName (or EOF for the document level, closeName == "").
func (p *oracleParser) parseContent(parent *dom.Node, closeName string) error {
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			_ = parent.AppendChild(dom.NewText(text.String()))
			text.Reset()
		}
	}
	for {
		if p.eof() {
			flush()
			if closeName == "" {
				return nil
			}
			if p.mode == HTML {
				return nil // implied close at EOF
			}
			return p.errorf("unexpected EOF: unclosed <%s>", closeName)
		}
		c := p.src[p.pos]
		if c != '<' {
			if c == '&' {
				r, err := p.readEntity()
				if err != nil {
					return err
				}
				text.WriteString(r)
				continue
			}
			text.WriteByte(c)
			p.pos++
			continue
		}
		// Markup.
		switch {
		case p.hasPrefix("<!--"):
			flush()
			if err := p.parseComment(parent); err != nil {
				return err
			}
		case p.hasPrefix("<![CDATA["):
			p.pos += len("<![CDATA[")
			end := strings.Index(p.src[p.pos:], "]]>")
			if end < 0 {
				return p.errorf("unterminated CDATA section")
			}
			text.WriteString(p.src[p.pos : p.pos+end])
			p.pos += end + 3
		case p.hasPrefix("<!"):
			// DOCTYPE or other declaration: skip to '>'.
			end := strings.IndexByte(p.src[p.pos:], '>')
			if end < 0 {
				return p.errorf("unterminated declaration")
			}
			p.pos += end + 1
		case p.hasPrefix("<?"):
			flush()
			if err := p.parsePI(parent); err != nil {
				return err
			}
		case p.hasPrefix("</"):
			flush()
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
			if p.mode == HTML {
				// Mismatched end tag: if an ancestor matches, imply the
				// close of the current element by rewinding so the
				// ancestor's parseContent re-reads this end tag.
				if closeName != "" && p.openAncestorMatches(parent, name) {
					p.pos = save
					return nil
				}
				// Otherwise ignore the stray end tag.
				continue
			}
			if closeName == "" {
				return p.errorf("unexpected end tag </%s>", name)
			}
			return p.errorf("mismatched end tag </%s>, expected </%s>", name, closeName)
		default:
			flush()
			if err := p.parseElement(parent); err != nil {
				return err
			}
		}
	}
}

// openAncestorMatches reports whether parent or one of its ancestors is
// an element with the given (lower-cased) local name.
func (p *oracleParser) openAncestorMatches(parent *dom.Node, name string) bool {
	for a := parent; a != nil; a = a.Parent() {
		if a.Type == dom.ElementNode && a.Name.Local == name {
			return true
		}
	}
	return false
}

func (p *oracleParser) parseComment(parent *dom.Node) error {
	p.pos += len("<!--")
	end := strings.Index(p.src[p.pos:], "-->")
	if end < 0 {
		return p.errorf("unterminated comment")
	}
	_ = parent.AppendChild(dom.NewComment(p.src[p.pos : p.pos+end]))
	p.pos += end + 3
	return nil
}

func (p *oracleParser) parsePI(parent *dom.Node) error {
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
	_ = parent.AppendChild(dom.NewPI(target, data))
	return nil
}

func (p *oracleParser) parseElement(parent *dom.Node) error {
	p.pos++ // '<'
	rawName, err := p.readName()
	if err != nil {
		return err
	}
	if p.mode == HTML {
		rawName = strings.ToLower(rawName)
	}

	type attr struct {
		name  string
		value string
	}
	var attrs []attr
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
		attrs = append(attrs, attr{aname, aval})
	}

	// Push a namespace scope and collect declarations.
	scope := map[string]string{}
	for k, v := range p.nsStack[len(p.nsStack)-1] {
		scope[k] = v
	}
	for _, a := range attrs {
		if a.name == "xmlns" {
			scope[""] = a.value
		} else if strings.HasPrefix(a.name, "xmlns:") {
			scope[a.name[6:]] = a.value
		}
	}
	p.nsStack = append(p.nsStack, scope)
	defer func() { p.nsStack = p.nsStack[:len(p.nsStack)-1] }()

	el := dom.NewElement(p.resolveName(rawName, true))
	for _, a := range attrs {
		if a.name == "xmlns" {
			// Keep declarations as attributes for faithful reserialization.
			el.SetAttr(dom.QName{Space: XMLNSNamespace, Local: "xmlns"}, a.value)
			continue
		}
		if strings.HasPrefix(a.name, "xmlns:") {
			el.SetAttr(dom.QName{Space: XMLNSNamespace, Prefix: "xmlns",
				Local: a.name[6:]}, a.value)
			continue
		}
		el.SetAttr(p.resolveName(a.name, false), a.value)
	}
	if err := parent.AppendChild(el); err != nil {
		return err
	}
	if selfClose {
		return nil
	}
	if p.mode == HTML {
		if oracleVoidElements[el.Name.Local] {
			return nil
		}
		if oracleRawTextElements[el.Name.Local] {
			return p.parseRawText(el)
		}
	}
	// End tags match on the lexical (possibly prefixed) name.
	return p.parseContent(el, rawName)
}

// parseRawText consumes character data until the matching end tag,
// without interpreting markup (HTML <script>/<style> content model).
func (p *oracleParser) parseRawText(el *dom.Node) error {
	closing := "</" + el.Name.Local
	var data strings.Builder
	for {
		if p.eof() {
			break // implied close
		}
		if p.hasPrefixFold(closing) {
			after := p.pos + len(closing)
			// Must be followed by whitespace or '>'.
			if after < len(p.src) && (p.src[after] == '>' || p.src[after] == ' ' ||
				p.src[after] == '\t' || p.src[after] == '\n' || p.src[after] == '\r') {
				p.pos = after
				for !p.eof() && p.peek() != '>' {
					p.pos++
				}
				if !p.eof() {
					p.pos++
				}
				break
			}
		}
		data.WriteByte(p.src[p.pos])
		p.pos++
	}
	text := data.String()
	// Strip a CDATA wrapper if the page author used one (XHTML habit).
	trimmed := strings.TrimSpace(text)
	if strings.HasPrefix(trimmed, "<![CDATA[") && strings.HasSuffix(trimmed, "]]>") {
		text = strings.TrimSuffix(strings.TrimPrefix(trimmed, "<![CDATA["), "]]>")
	}
	if text != "" {
		_ = el.AppendChild(dom.NewText(text))
	}
	return nil
}

// resolveName maps a lexical name to an expanded QName using the current
// namespace scope. Elements use the default namespace; attributes do not.
func (p *oracleParser) resolveName(lexical string, element bool) dom.QName {
	scope := p.nsStack[len(p.nsStack)-1]
	if i := strings.IndexByte(lexical, ':'); i > 0 {
		prefix, local := lexical[:i], lexical[i+1:]
		uri := scope[prefix]
		return dom.QName{Space: uri, Prefix: prefix, Local: local}
	}
	if element {
		return dom.QName{Space: scope[""], Local: lexical}
	}
	return dom.QName{Local: lexical}
}

func (p *oracleParser) readAttrValue() (string, error) {
	if p.eof() {
		return "", p.errorf("expected attribute value")
	}
	q := p.peek()
	if q == '"' || q == '\'' {
		p.pos++
		var b strings.Builder
		for {
			if p.eof() {
				return "", p.errorf("unterminated attribute value")
			}
			c := p.src[p.pos]
			if c == q {
				p.pos++
				return b.String(), nil
			}
			if c == '&' {
				r, err := p.readEntity()
				if err != nil {
					return "", err
				}
				b.WriteString(r)
				continue
			}
			b.WriteByte(c)
			p.pos++
		}
	}
	if p.mode == HTML {
		// Unquoted value: up to whitespace or '>'.
		start := p.pos
		for !p.eof() {
			c := p.peek()
			if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '>' {
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

func (p *oracleParser) readEntity() (string, error) {
	// p.src[p.pos] == '&'
	rest := p.src[p.pos:]
	semi := strings.IndexByte(rest, ';')
	if semi < 0 || semi > 32 {
		if p.mode == HTML {
			p.pos++
			return "&", nil // bare ampersand tolerated
		}
		return "", p.errorf("unterminated entity reference")
	}
	ent := rest[1:semi]
	adv := semi + 1
	var out string
	switch {
	case ent == "lt":
		out = "<"
	case ent == "gt":
		out = ">"
	case ent == "amp":
		out = "&"
	case ent == "quot":
		out = `"`
	case ent == "apos":
		out = "'"
	case ent == "nbsp" && p.mode == HTML:
		out = " "
	case strings.HasPrefix(ent, "#"):
		// Not the seed's fmt.Sscanf: the strict decoder is a deliberate
		// behaviour change, pinned by TestCharacterReferences, and the
		// oracle follows it so that everything else can be compared.
		r, ok := charRef(ent[1:])
		if !ok {
			if p.mode == XML {
				return "", p.errorf("bad character reference &%s;", ent)
			}
			r = utf8.RuneError
		}
		out = string(r)
	default:
		if p.mode == HTML {
			p.pos++
			return "&", nil
		}
		return "", p.errorf("unknown entity &%s;", ent)
	}
	p.pos += adv
	return out, nil
}

// oracleSerialize renders a node (and its subtree) as XML.
func oracleSerialize(n *dom.Node) string {
	var b strings.Builder
	oracleWriteNode(&b, n, XML, nil)
	return b.String()
}

// oracleSerializeHTML renders a node as HTML: void elements are written
// without end tags, other empty elements with both tags, and raw-text
// elements without escaping.
func oracleSerializeHTML(n *dom.Node) string {
	var b strings.Builder
	oracleWriteNode(&b, n, HTML, nil)
	return b.String()
}

// oracleSerializeIndent renders a node as XML with two-space indentation,
// for human-facing dumps (cmd/xqib, examples). Text nodes containing
// non-whitespace suppress indentation inside their parent.
func oracleSerializeIndent(n *dom.Node) string {
	var b strings.Builder
	oracleWriteIndent(&b, n, 0, nil)
	return b.String()
}

// oracleWriteNode writes n; scope is the namespace bindings n's written
// ancestors declared, by prefix.
func oracleWriteNode(b *strings.Builder, n *dom.Node, mode Mode, scope map[string]string) {
	switch n.Type {
	case dom.DocumentNode:
		for _, c := range n.Children() {
			oracleWriteNode(b, c, mode, scope)
		}
	case dom.ElementNode:
		oracleWriteElement(b, n, mode, scope)
	case dom.TextNode:
		b.WriteString(oracleEscapeText(n.Data))
	case dom.CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case dom.ProcessingInstructionNode:
		b.WriteString("<?")
		b.WriteString(n.Name.Local)
		if n.Data != "" {
			b.WriteString(" ")
			b.WriteString(n.Data)
		}
		b.WriteString("?>")
	case dom.AttributeNode:
		oracleWriteAttr(b, n)
	}
}

func oracleAttrLexical(a *dom.Node) string {
	if a.Name.Space == XMLNSNamespace {
		if a.Name.Local == "xmlns" {
			return "xmlns"
		}
		return "xmlns:" + a.Name.Local
	}
	return a.Name.String()
}

func oracleWriteAttr(b *strings.Builder, a *dom.Node) {
	b.WriteString(oracleAttrLexical(a))
	b.WriteString(`="`)
	b.WriteString(oracleEscapeAttr(a.Data))
	b.WriteString(`"`)
}

// oracleDecls returns the namespace declarations n's start tag writes
// besides its own declaration attributes, and the bindings its content
// sees, given those of its written ancestors (scope): a binding its
// name or a prefixed attribute needs that is not in scope, unless the
// tag already binds the prefix, and never for xml or a prefix in no
// namespace.
func oracleDecls(scope map[string]string, n *dom.Node) (string, map[string]string) {
	inner := map[string]string{}
	maps.Copy(inner, scope)
	tag := map[string]bool{}
	for _, a := range n.Attrs() {
		if a.Name.Space == XMLNSNamespace {
			prefix := ""
			if a.Name.Prefix != "" {
				prefix = a.Name.Local
			}
			inner[prefix], tag[prefix] = a.Data, true
		}
	}
	var out strings.Builder
	want := func(prefix, space string) {
		uri, bound := inner[prefix]
		switch {
		case prefix == "xml", prefix != "" && space == "", uri == space && (bound || space == ""), tag[prefix]:
			return
		}
		inner[prefix], tag[prefix] = space, true
		if prefix == "" {
			out.WriteString(` xmlns="`)
		} else {
			out.WriteString(" xmlns:" + prefix + `="`)
		}
		out.WriteString(oracleEscapeAttr(space) + `"`)
	}
	want(n.Name.Prefix, n.Name.Space)
	for _, a := range n.Attrs() {
		if a.Name.Prefix != "" && a.Name.Space != XMLNSNamespace {
			want(a.Name.Prefix, a.Name.Space)
		}
	}
	return out.String(), inner
}

func oracleWriteElement(b *strings.Builder, n *dom.Node, mode Mode, scope map[string]string) {
	b.WriteByte('<')
	b.WriteString(n.Name.String())
	if mode == XML {
		var decls string
		decls, scope = oracleDecls(scope, n)
		b.WriteString(decls)
	}
	for _, a := range n.Attrs() {
		b.WriteByte(' ')
		oracleWriteAttr(b, a)
	}
	kids := n.Children()
	if mode == HTML {
		if oracleVoidElements[n.Name.Local] {
			b.WriteString("/>")
			return
		}
		if oracleRawTextElements[n.Name.Local] {
			b.WriteByte('>')
			for _, c := range kids {
				if c.Type == dom.TextNode {
					b.WriteString(c.Data) // raw, unescaped
				}
			}
			b.WriteString("</" + n.Name.String() + ">")
			return
		}
		if len(kids) == 0 {
			b.WriteString("></" + n.Name.String() + ">")
			return
		}
	}
	if len(kids) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range kids {
		oracleWriteNode(b, c, mode, scope)
	}
	b.WriteString("</" + n.Name.String() + ">")
}

func oracleWriteIndent(b *strings.Builder, n *dom.Node, depth int, scope map[string]string) {
	ind := strings.Repeat("  ", depth)
	switch n.Type {
	case dom.DocumentNode:
		for _, c := range n.Children() {
			oracleWriteIndent(b, c, depth, scope)
		}
	case dom.ElementNode:
		b.WriteString(ind)
		b.WriteByte('<')
		b.WriteString(n.Name.String())
		decls, inner := oracleDecls(scope, n)
		b.WriteString(decls)
		for _, a := range n.Attrs() {
			b.WriteByte(' ')
			oracleWriteAttr(b, a)
		}
		kids := n.Children()
		if len(kids) == 0 {
			b.WriteString("/>\n")
			return
		}
		if oracleMixed(n) {
			b.WriteByte('>')
			for _, c := range kids {
				oracleWriteNode(b, c, XML, inner)
			}
			b.WriteString("</" + n.Name.String() + ">\n")
			return
		}
		b.WriteString(">\n")
		for _, c := range kids {
			oracleWriteIndent(b, c, depth+1, inner)
		}
		b.WriteString(ind + "</" + n.Name.String() + ">\n")
	case dom.TextNode:
		if strings.TrimSpace(n.Data) != "" {
			b.WriteString(ind + oracleEscapeText(strings.TrimSpace(n.Data)) + "\n")
		}
	default:
		b.WriteString(ind)
		oracleWriteNode(b, n, XML, scope)
		b.WriteByte('\n')
	}
}

// mixed reports whether an element has meaningful text content mixed
// with its children (in which case indentation would corrupt it).
func oracleMixed(n *dom.Node) bool {
	for _, c := range n.Children() {
		if c.Type == dom.TextNode && strings.TrimSpace(c.Data) != "" {
			return true
		}
	}
	return false
}

// oracleEscapeText escapes character data for XML output.
func oracleEscapeText(s string) string {
	return oracleTextReplacer.Replace(s)
}

// oracleEscapeAttr escapes an attribute value for double-quoted XML output.
func oracleEscapeAttr(s string) string {
	return oracleAttrReplacer.Replace(s)
}
