package markup

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dom"
)

func mustParse(t *testing.T, src string) *dom.Node {
	t.Helper()
	doc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return doc
}

func mustParseHTML(t *testing.T, src string) *dom.Node {
	t.Helper()
	doc, err := ParseHTML(src)
	if err != nil {
		t.Fatalf("ParseHTML(%q): %v", src, err)
	}
	return doc
}

func TestParseSimple(t *testing.T) {
	doc := mustParse(t, `<a x="1"><b>hi</b><c/></a>`)
	root := doc.DocumentElement()
	if root.Name.Local != "a" || root.AttrValue("x") != "1" {
		t.Fatalf("root = %s", Serialize(root))
	}
	if len(root.Children()) != 2 {
		t.Fatalf("children = %d", len(root.Children()))
	}
	if root.Children()[0].StringValue() != "hi" {
		t.Error("text content lost")
	}
}

func TestParseEntities(t *testing.T) {
	doc := mustParse(t, `<a>&lt;x&gt; &amp; &quot;&apos; &#65;&#x42;</a>`)
	got := doc.StringValue()
	want := `<x> & "' AB`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestParseCDATA(t *testing.T) {
	doc := mustParse(t, `<a><![CDATA[<not><markup> & stuff]]></a>`)
	if got := doc.StringValue(); got != "<not><markup> & stuff" {
		t.Errorf("CDATA content = %q", got)
	}
}

func TestParseCommentAndPI(t *testing.T) {
	doc := mustParse(t, `<?xml version="1.0"?><a><!--note--><?target data?></a>`)
	kids := doc.DocumentElement().Children()
	if len(kids) != 2 {
		t.Fatalf("kids = %d", len(kids))
	}
	if kids[0].Type != dom.CommentNode || kids[0].Data != "note" {
		t.Error("comment wrong")
	}
	if kids[1].Type != dom.ProcessingInstructionNode || kids[1].Name.Local != "target" || kids[1].Data != "data" {
		t.Errorf("pi wrong: %v %q", kids[1].Name, kids[1].Data)
	}
}

func TestParseNamespaces(t *testing.T) {
	doc := mustParse(t, `<a xmlns="urn:d" xmlns:p="urn:p"><p:b q="1" p:r="2"/></a>`)
	root := doc.DocumentElement()
	if root.Name.Space != "urn:d" {
		t.Errorf("default ns = %q", root.Name.Space)
	}
	b := root.Children()[0]
	if b.Name.Space != "urn:p" || b.Name.Local != "b" {
		t.Errorf("b name = %+v", b.Name)
	}
	// Unprefixed attributes are in no namespace.
	if v, ok := b.Attr(dom.Name("q")); !ok || v != "1" {
		t.Error("unprefixed attribute lookup failed")
	}
	if v, ok := b.Attr(dom.NameNS("urn:p", "r")); !ok || v != "2" {
		t.Error("prefixed attribute lookup failed")
	}
}

func TestParsePrefixedEndTags(t *testing.T) {
	doc := mustParse(t, `<a xmlns:p="urn:p"><p:b>x</p:b></a>`)
	b := doc.Elements("b")[0]
	if b.Name.Space != "urn:p" || b.StringValue() != "x" {
		t.Errorf("prefixed element: %+v", b.Name)
	}
	// Prefix mismatch between open and close is an error.
	if _, err := Parse(`<a xmlns:p="urn:p" xmlns:q="urn:p"><p:b></q:b></a>`); err == nil {
		t.Error("lexically mismatched end tag should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,                    // no root
		`<a>`,                 // unclosed
		`<a></b>`,             // mismatch
		`<a><b attr></b></a>`, // valueless attribute
		`<a>&unknown;</a>`,    // unknown entity
		`<a><![CDATA[x</a>`,   // unterminated CDATA
		`<a/><b/>`,            // two roots... actually allowed? no: text/elements after root
		`text<a/>`,            // text before root
		`<a x="1 <b></b></a>`, // unterminated attribute
		`<a><!--never closed </a>`,
		`<a x="1" x="2"/>`, // duplicate attribute
		`<a xmlns:p="u" xmlns:q="u" p:x="1" q:x="2"/>`, // ... by expanded name
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// A duplicate attribute is an error in XML mode, positioned at and
// naming the second occurrence; HTML mode keeps the first's place and
// the last's value.
func TestParseDuplicateAttribute(t *testing.T) {
	_, err := Parse("<a>\n<b x=\"1\" y=\"2\" x=\"3\"/></a>")
	pe, ok := err.(*ParseError)
	if !ok || pe.Msg != "duplicate attribute x" || pe.Line != 2 || pe.Offset != 19 {
		t.Errorf("Parse: %#v, want duplicate attribute x at line 2, offset 19", err)
	}
	doc := mustParseHTML(t, `<b x="1" y="2" X="3">`)
	if got := Serialize(doc); got != `<b x="3" y="2"/>` {
		t.Errorf("ParseHTML kept %s", got)
	}
}

// Numeric character references are decoded strictly: digits only, and a
// value XML allows. XML mode rejects the rest at the '&'; HTML mode
// substitutes U+FFFD.
func TestCharacterReferences(t *testing.T) {
	for _, c := range []struct {
		ref, want string // want "" = rejected in XML mode, U+FFFD in HTML mode
	}{
		{"&#65;", "A"}, {"&#x41;", "A"}, {"&#X41;", "A"}, {"&#x10FFFF;", "\U0010FFFF"}, {"&#xe9;", "é"},
		{"&#x41zz;", ""}, {"&#65 ;", ""}, {"&#+65;", ""}, {"&#-5;", ""},
		{"&#1114112;", ""}, {"&#xD800;", ""}, {"&#0;", ""},
		{"&#;", ""}, {"&#x;", ""}, {"&#99999999999999999999;", ""},
	} {
		src := "<a>\n" + c.ref + "</a>"
		doc, err := Parse(src)
		switch pe, _ := err.(*ParseError); {
		case c.want != "" && (err != nil || doc.StringValue() != "\n"+c.want):
			t.Errorf("Parse(%q) = %v, %v; want %q", src, doc, err, c.want)
		case c.want == "" && (pe == nil || pe.Offset != 4 || pe.Line != 2 || !strings.Contains(pe.Msg, "character reference")):
			t.Errorf("Parse(%q): error %#v, want a character-reference error at offset 4, line 2", src, err)
		}
		want := c.want
		if want == "" {
			want = "\ufffd"
		}
		if doc, err := ParseHTML(src); err != nil || doc.StringValue() != "\n"+want {
			t.Errorf("ParseHTML(%q) = %v, %v; want %q", src, doc, err, want)
		}
		if doc, err := Parse(`<a x="` + c.ref + `"/>`); c.want != "" && (err != nil || doc.DocumentElement().AttrValue("x") != c.want) {
			t.Errorf("attribute value %q: %v, %v", c.ref, doc, err)
		} else if c.want == "" && err == nil {
			t.Errorf("attribute value %q accepted in XML mode", c.ref)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("<a>\n<b>\n</a>")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line < 2 {
		t.Errorf("line = %d, want >= 2", pe.Line)
	}
}

func TestParseHTMLLowercasesTags(t *testing.T) {
	doc := mustParseHTML(t, `<HTML><BODY CLASS="x"><DIV>hi</DIV></BODY></HTML>`)
	html := doc.DocumentElement()
	if html.Name.Local != "html" {
		t.Errorf("root = %q", html.Name.Local)
	}
	body := html.Children()[0]
	if body.Name.Local != "body" || body.AttrValue("class") != "x" {
		t.Errorf("body = %s", Serialize(body))
	}
}

func TestParseHTMLVoidElements(t *testing.T) {
	doc := mustParseHTML(t, `<body><br><img src="a.gif"><p>x</p></body>`)
	body := doc.DocumentElement()
	if len(body.Children()) != 3 {
		t.Fatalf("children = %d: %s", len(body.Children()), Serialize(body))
	}
	if body.Children()[1].AttrValue("src") != "a.gif" {
		t.Error("void element attributes lost")
	}
}

func TestParseHTMLScriptRawText(t *testing.T) {
	src := `<html><head><script type="text/xquery">for $x in //a where 1 < 2 return <b/></script></head></html>`
	doc := mustParseHTML(t, src)
	script := doc.Elements("script")[0]
	if got := script.StringValue(); !strings.Contains(got, "1 < 2") || !strings.Contains(got, "<b/>") {
		t.Errorf("script content mangled: %q", got)
	}
}

func TestParseHTMLScriptCDATAUnwrap(t *testing.T) {
	src := `<html><script type="text/xquery"><![CDATA[1 < 2]]></script></html>`
	doc := mustParseHTML(t, src)
	script := doc.Elements("script")[0]
	if got := strings.TrimSpace(script.StringValue()); got != "1 < 2" {
		t.Errorf("CDATA unwrap: %q", got)
	}
}

func TestParseHTMLUnquotedAttr(t *testing.T) {
	doc := mustParseHTML(t, `<input type=button value=Buy>`)
	in := doc.DocumentElement()
	if in.AttrValue("type") != "button" || in.AttrValue("value") != "Buy" {
		t.Errorf("unquoted attrs: %s", Serialize(in))
	}
}

func TestParseHTMLImpliedClose(t *testing.T) {
	// <p> left open; </div> implies closing it.
	doc := mustParseHTML(t, `<div><p>one</div>`)
	div := doc.DocumentElement()
	if div.Name.Local != "div" {
		t.Fatalf("root = %q", div.Name.Local)
	}
	if div.StringValue() != "one" {
		t.Errorf("content = %q", div.StringValue())
	}
}

func TestParseHTMLStrayEndTagIgnored(t *testing.T) {
	doc := mustParseHTML(t, `<div>a</span>b</div>`)
	if got := doc.StringValue(); got != "ab" {
		t.Errorf("content = %q", got)
	}
}

func TestParseFragment(t *testing.T) {
	nodes, err := ParseFragment(`<a/>text<b x="1"/>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	if nodes[0].Name.Local != "a" || nodes[1].Data != "text" || nodes[2].AttrValue("x") != "1" {
		t.Error("fragment content wrong")
	}
	for _, n := range nodes {
		if n.Parent() != nil {
			t.Error("fragment nodes must be detached")
		}
	}
}

// A fragment is read as top-level content, with nothing around it that
// an end tag in it could close or a start tag left open could run into.
func TestParseFragmentTopLevel(t *testing.T) {
	for _, tc := range []struct {
		src       string
		mode      Mode
		want, err string
	}{
		{src: `<b>x</frag><i>y</i>`, mode: HTML, want: `<b>x<i>y</i></b>`},
		{src: `a</frag>b`, mode: HTML, want: `ab`},
		{src: `</x>a<b/>`, mode: HTML, want: `a|<b/>`},
		{src: ` <p>1</p> `, mode: HTML, want: ` |<p>1</p>| `},
		{src: `x<a`, mode: XML, err: "markup: line 1: unterminated start tag <a"},
		{src: `a</frag>b`, mode: XML, err: "markup: line 1: unexpected end tag </frag>"},
		{src: `<a/>b</a>`, mode: XML, err: "markup: line 1: unexpected end tag </a>"},
		{src: `<a>`, mode: XML, err: "markup: line 1: unexpected EOF: unclosed <a>"},
		{src: ``, mode: XML, want: ``},
	} {
		parse := ParseFragment
		if tc.mode == HTML {
			parse = ParseFragmentHTML
		}
		nodes, err := parse(tc.src)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("%q: error %v, want %q", tc.src, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		var got []string
		for _, n := range nodes {
			if n.Parent() != nil {
				t.Errorf("%q: %v has a parent", tc.src, n)
			}
			if err := exactLists(n); err != nil {
				t.Errorf("%q: %v", tc.src, err)
			}
			got = append(got, Serialize(n))
		}
		if g := strings.Join(got, "|"); g != tc.want {
			t.Errorf("%q: %s, want %s", tc.src, g, tc.want)
		}
	}
}

// The XML writer declares the namespaces an element's name and prefixed
// attributes need that no written ancestor's declaration gives; HTML
// output declares nothing it does not have.
func TestWriterDeclaresNamespaces(t *testing.T) {
	doc := mustParse(t, `<p:e xmlns:p="urn:p" k="1"><p:f/></p:e>`)
	if got, want := Serialize(doc), `<p:e xmlns:p="urn:p" k="1"><p:f/></p:e>`; got != want {
		t.Errorf("document: %s, want %s", got, want)
	}
	if got, want := Serialize(doc.DocumentElement().Children()[0]), `<p:f xmlns:p="urn:p"/>`; got != want {
		t.Errorf("copied out of its parent: %s, want %s", got, want)
	}
	z := dom.NewElement(dom.QName{Space: "urn:z", Prefix: "z", Local: "a"})
	z.SetAttr(dom.QName{Space: "urn:z", Prefix: "z", Local: "b"}, "1")
	z.SetAttr(dom.QName{Space: "urn:y", Prefix: "z", Local: "c"}, "2") // z is taken in this tag
	z.SetAttr(dom.QName{Space: XMLNamespace, Prefix: "xml", Local: "lang"}, "en")
	z.SetAttr(dom.QName{Prefix: "q", Local: "d"}, "3") // a lexical prefix in no namespace
	if got, want := Serialize(z), `<z:a xmlns:z="urn:z" z:b="1" z:c="2" xml:lang="en" q:d="3"/>`; got != want {
		t.Errorf("constructed: %s, want %s", got, want)
	}
	if got, want := SerializeHTML(z), `<z:a z:b="1" z:c="2" xml:lang="en" q:d="3"></z:a>`; got != want {
		t.Errorf("HTML: %s, want %s", got, want)
	}
	a := dom.NewElement(dom.NameNS("urn:d", "a"))
	b := dom.NewElement(dom.Name("b"))
	c := dom.NewElement(dom.Name("c"))
	if a.AppendChild(b) != nil || b.AppendChild(c) != nil {
		t.Fatal("append")
	}
	if got, want := Serialize(a), `<a xmlns="urn:d"><b xmlns=""><c/></b></a>`; got != want {
		t.Errorf("default namespace: %s, want %s", got, want)
	}
	if got, want := SerializeIndent(a), "<a xmlns=\"urn:d\">\n  <b xmlns=\"\">\n    <c/>\n  </b>\n</a>\n"; got != want {
		t.Errorf("indented: %q, want %q", got, want)
	}
	for _, n := range []*dom.Node{doc.DocumentElement().Children()[0], z, a} {
		if got, want := Serialize(n), oracleSerialize(n); got != want {
			t.Errorf("%s, oracle %s", got, want)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	cases := []string{
		`<a x="1"><b>hi</b><c/></a>`,
		`<a>&lt;tag&gt; &amp; text</a>`,
		`<a><!--c--><?pi data?></a>`,
		`<a xmlns:p="urn:p"><p:b/></a>`,
	}
	for _, src := range cases {
		doc := mustParse(t, src)
		out := Serialize(doc)
		doc2 := mustParse(t, out)
		if Serialize(doc2) != out {
			t.Errorf("round trip unstable:\n1: %s\n2: %s", out, Serialize(doc2))
		}
	}
}

func TestSerializeHTMLVoidAndScript(t *testing.T) {
	doc := mustParseHTML(t, `<body><br><script>if (a < b) x();</script><div id="out"/></body>`)
	out := SerializeHTML(doc)
	if !strings.Contains(out, "<br/>") {
		t.Errorf("void serialization: %s", out)
	}
	// An empty non-void element keeps its end tag in HTML, not in XML.
	if !strings.Contains(out, `<div id="out"></div>`) {
		t.Errorf("empty element: %s", out)
	}
	if xml := Serialize(doc); !strings.Contains(xml, `<div id="out"/>`) {
		t.Errorf("empty element in XML: %s", xml)
	}
	if !strings.Contains(out, "if (a < b) x();") {
		t.Errorf("script must be raw: %s", out)
	}
}

func TestSerializeEscaping(t *testing.T) {
	e := dom.NewElement(dom.Name("a"))
	e.SetAttr(dom.Name("t"), `x"<&`)
	_ = e.AppendChild(dom.NewText(`<&>`))
	out := Serialize(e)
	want := `<a t="x&quot;&lt;&amp;">&lt;&amp;&gt;</a>`
	if out != want {
		t.Errorf("got %s, want %s", out, want)
	}
}

func TestSerializeIndent(t *testing.T) {
	doc := mustParse(t, `<a><b><c/></b><d>text</d></a>`)
	out := SerializeIndent(doc)
	if !strings.Contains(out, "\n  <b>\n    <c/>\n") {
		t.Errorf("indentation wrong:\n%s", out)
	}
	if !strings.Contains(out, "<d>text</d>") {
		t.Errorf("mixed content must stay inline:\n%s", out)
	}
}

// randomXMLTree builds a random tree for the round-trip and differential
// properties: plain, prefixed and default-namespaced elements, HTML void
// and raw-text element names, attributes that need escaping, namespace
// declarations (left out half of the time), text, comments and
// processing instructions.
func randomXMLTree(r *rand.Rand, depth int) *dom.Node {
	names := []dom.QName{
		dom.Name("a"), dom.Name("b"), dom.Name("item"), dom.Name("p"), dom.Name("div"),
		dom.Name("br"), dom.Name("img"), dom.Name("input"), // void in HTML
		dom.Name("script"), dom.Name("style"), // raw text in HTML
		{Space: "urn:p", Prefix: "p", Local: "item"},
		{Space: "urn:d", Local: "d"},
	}
	e := dom.NewElement(names[r.Intn(len(names))])
	switch {
	case r.Intn(2) == 0:
		// No declaration: the writer declares what the name needs.
	case e.Name.Prefix != "":
		e.SetAttr(dom.QName{Space: XMLNSNamespace, Prefix: "xmlns", Local: e.Name.Prefix}, e.Name.Space)
	case e.Name.Space != "":
		e.SetAttr(dom.QName{Space: XMLNSNamespace, Local: "xmlns"}, e.Name.Space)
	}
	if r.Intn(2) == 0 {
		e.SetAttr(dom.Name("k"), `v"<&>'`)
	}
	if r.Intn(4) == 0 {
		e.SetAttr(dom.QName{Space: XMLNamespace, Prefix: "xml", Local: "lang"}, "en")
	}
	if r.Intn(4) == 0 {
		e.SetAttr(dom.Name("id"), "plain")
	}
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		switch k := r.Intn(8); {
		case depth > 0 && k < 4:
			_ = e.AppendChild(randomXMLTree(r, depth-1))
		case k < 5:
			_ = e.AppendChild(dom.NewText("t<&x> "))
		case k < 6:
			_ = e.AppendChild(dom.NewText(" \n "))
		case k < 7:
			_ = e.AppendChild(dom.NewComment("note"))
		default:
			_ = e.AppendChild(dom.NewPI("target", "some data"))
		}
	}
	return e
}

// Property: Serialize then Parse yields a tree that serializes
// identically (parse ∘ serialize is a fixpoint after one iteration).
func TestSerializeParseFixpointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := randomXMLTree(r, 3)
		s1 := Serialize(root)
		doc, err := Parse(s1)
		if err != nil {
			return false
		}
		return Serialize(doc) == s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: escaping never leaves raw markup characters unescaped in
// text output.
func TestEscapeTextProperty(t *testing.T) {
	f := func(s string) bool {
		out := EscapeText(s)
		return !strings.ContainsAny(strings.NewReplacer(
			"&amp;", "", "&lt;", "", "&gt;", "").Replace(out), "<>")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
