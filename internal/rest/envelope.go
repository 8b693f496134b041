package rest

import (
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
)

// The reading side of the sequence wire format. appendItems is the one
// writer, so the reader walks exactly what it writes, tag by tag, and
// builds no envelope: an atomic item's text is unescaped and cast where
// it stands, and a node item's payload is parsed in place
// (markup.Content), its nodes born without a parent. Whitespace
// between items is skipped and an item's attributes are read in any
// order, under either quote. Anything else — another tag, a comment, an
// attribute the writer never writes, a payload cut short anywhere — is
// ErrMalformedPayload, which the federation treats as a torn reply.

// DecodeSequence parses the wire format back into a sequence.
func DecodeSequence(src string) (xdm.Sequence, error) {
	seq, _, err := DecodeSequenceKeyed(src)
	return seq, err
}

// DecodeSequenceKeyed parses the wire format returning, alongside each
// item, the document URI it was encoded with ("" for non-document
// items) — the sort key the federation merge orders scattered partial
// results by.
func DecodeSequenceKeyed(src string) (xdm.Sequence, []string, error) {
	r := envelope{src: src}
	// Room for every item at once, instead of two slices doubled into
	// place per payload: an end tag per item, and a node payload that
	// holds an element named item only makes the room larger.
	n := strings.Count(src, "</item>")
	seq, keys := make(xdm.Sequence, 0, n), make([]string, 0, n)
	r.space()
	if !r.open("result") {
		return nil, nil, r.fail("no <result>")
	}
	if err := r.items(&seq, &keys); err != nil {
		return nil, nil, err
	}
	if err := r.finish("result"); err != nil {
		return nil, nil, err
	}
	return seq, keys, nil
}

// DecodeArgs parses an <args> payload.
func DecodeArgs(src string) ([]xdm.Sequence, error) {
	r := envelope{src: src}
	r.space()
	if !r.open("args") {
		return nil, r.fail("no <args>")
	}
	var out []xdm.Sequence
	for r.space(); r.open("arg"); r.space() {
		var seq xdm.Sequence
		if err := r.items(&seq, nil); err != nil {
			return nil, err
		}
		if !r.close("arg") {
			return nil, r.fail("no </arg>")
		}
		out = append(out, seq)
	}
	if err := r.finish("args"); err != nil {
		return nil, err
	}
	return out, nil
}

// envelope is a reader over one payload.
type envelope struct {
	src     string
	pos     int
	payload markup.Content // reads node payloads
}

func (r *envelope) fail(what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrMalformedPayload, what, r.pos)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// space skips whitespace.
func (r *envelope) space() {
	for r.pos < len(r.src) && isSpace(r.src[r.pos]) {
		r.pos++
	}
}

// tag reads "<" or "</" as lead, then name, reporting whether they are
// there; the name must end where the tag's name does.
func (r *envelope) tag(lead, name string) bool {
	rest := r.src[r.pos:]
	if !strings.HasPrefix(rest, lead) || !strings.HasPrefix(rest[len(lead):], name) {
		return false
	}
	end := len(lead) + len(name)
	if end == len(rest) || rest[end] != '>' && !isSpace(rest[end]) {
		return false
	}
	r.pos += end
	return true
}

// open reads the start tag <name>, which carries no attribute.
func (r *envelope) open(name string) bool { return r.tag("<", name) && r.gt() }

// close reads the end tag </name>.
func (r *envelope) close(name string) bool { return r.tag("</", name) && r.gt() }

// gt reads the '>' that ends a tag, after any whitespace.
func (r *envelope) gt() bool {
	r.space()
	if r.pos == len(r.src) || r.src[r.pos] != '>' {
		return false
	}
	r.pos++
	return true
}

// finish reads the end tag of the payload's element and the end of the
// payload.
func (r *envelope) finish(name string) error {
	r.space()
	if !r.close(name) {
		return r.fail("no </" + name + ">")
	}
	r.space()
	if r.pos != len(r.src) {
		return r.fail("content after </" + name + ">")
	}
	return nil
}

// items reads <item>s up to the end tag that follows them, appending
// each to seq and, unless keys is nil, its uri attribute to keys.
func (r *envelope) items(seq *xdm.Sequence, keys *[]string) error {
	for r.space(); r.tag("<", "item"); r.space() {
		it, uri, err := r.item()
		if err != nil {
			return err
		}
		*seq = append(*seq, it)
		if keys != nil {
			*keys = append(*keys, uri)
		}
	}
	return nil
}

// itemAttrs are the attributes appendItems writes on an <item>.
var itemAttrs = []string{"kind", "type", "uri"}

// item reads one item after its "<item": the attributes, the content
// and the end tag.
func (r *envelope) item() (_ xdm.Item, uri string, err error) {
	var vals [3]string // as itemAttrs
	var seen [3]bool
	for {
		r.space()
		if r.pos == len(r.src) {
			return nil, "", r.fail("unterminated <item>")
		}
		if r.src[r.pos] == '>' {
			r.pos++
			break
		}
		name := r.src[r.pos:]
		if i := strings.IndexAny(name, "= \t\r\n>/"); i >= 0 {
			name = name[:i]
		}
		i := slices.Index(itemAttrs, name)
		switch {
		case i < 0:
			return nil, "", r.fail(fmt.Sprintf("attribute %q on <item>", name))
		case seen[i]:
			return nil, "", r.fail("duplicate attribute " + name)
		}
		seen[i] = true
		r.pos += len(name)
		r.space()
		if r.pos == len(r.src) || r.src[r.pos] != '=' {
			return nil, "", r.fail("attribute " + name + " missing value")
		}
		r.pos++
		r.space()
		if vals[i], err = r.attrValue(); err != nil {
			return nil, "", err
		}
	}
	kind, typ, uri := vals[0], vals[1], vals[2]
	var it xdm.Item
	switch kind {
	case "node":
		kids, end, err := r.payload.Parse(r.src, r.pos, "item")
		if err != nil {
			return nil, "", fmt.Errorf("%w: node item: %w", ErrMalformedPayload, err)
		}
		r.pos = end
		it = nodeItem(kids, uri)
	case "":
		text, err := r.text()
		if err != nil {
			return nil, "", err
		}
		if !r.close("item") {
			return nil, "", r.fail("no </item>")
		}
		if it, err = atomicItem(typ, text); err != nil {
			return nil, "", err
		}
	default:
		return nil, "", r.fail(fmt.Sprintf("item kind %q", kind))
	}
	return it, uri, nil
}

// attrValue reads a quoted attribute value and unescapes it.
func (r *envelope) attrValue() (string, error) {
	if r.pos == len(r.src) || r.src[r.pos] != '"' && r.src[r.pos] != '\'' {
		return "", r.fail("unquoted attribute value")
	}
	q := r.src[r.pos]
	r.pos++
	end := strings.IndexByte(r.src[r.pos:], q)
	if end < 0 {
		return "", r.fail("unterminated attribute value")
	}
	v, err := r.unescape(r.src[r.pos : r.pos+end])
	r.pos += end + 1
	return v, err
}

// text reads an atomic item's character data up to the next tag and
// unescapes it.
func (r *envelope) text() (string, error) {
	end := strings.IndexByte(r.src[r.pos:], '<')
	if end < 0 {
		return "", r.fail("unterminated <item>")
	}
	v, err := r.unescape(r.src[r.pos : r.pos+end])
	r.pos += end
	return v, err
}

// unescape replaces the entity references of s, the text at r.pos, by
// the characters they stand for: s itself when it holds none.
func (r *envelope) unescape(s string) (string, error) {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s, nil
	}
	b := make([]byte, 0, len(s))
	for amp >= 0 {
		b = append(b, s[:amp]...)
		c, n := markup.Entity(s[amp:])
		if n == 0 {
			return "", r.fail("bad entity reference")
		}
		b = utf8.AppendRune(b, c)
		s = s[amp+n:]
		amp = strings.IndexByte(s, '&')
	}
	return string(append(b, s...)), nil
}

// nodeItem is the item a node payload stands for: its first element,
// under a document node carrying uri when there is one; a payload
// without an element (a text, comment or attribute node's) is a text
// node of the payload's text.
func nodeItem(kids []*dom.Node, uri string) xdm.Item {
	text := ""
	for _, c := range kids {
		switch c.Type {
		case dom.ElementNode:
			if uri != "" {
				return xdm.NewNode(dom.NewDocumentOf(uri, c))
			}
			return xdm.NewNode(c)
		case dom.TextNode:
			text += c.Data
		}
	}
	return xdm.NewNode(dom.NewText(text))
}

// atomicItem casts an atomic item's text to the type it was written
// with; an unknown type reads as xs:untypedAtomic.
func atomicItem(typeName, text string) (xdm.Item, error) {
	t, ok := xdm.AtomicTypeByName(strings.TrimPrefix(typeName, "xs:"))
	if !ok {
		return xdm.UntypedAtomic(text), nil
	}
	v, err := xdm.CastString(text, t)
	if err != nil {
		return nil, fmt.Errorf("%w: cannot decode %s %q: %w", ErrMalformedPayload, typeName, text, err)
	}
	return v, nil
}
