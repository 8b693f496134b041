package rest

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
)

// atomicPool lists, per atomic type, lexical values that survive the
// wire (the decoder casts the transported lexical form back, so any
// value whose String() re-casts to itself round-trips).
var atomicPool = map[string][]string{
	"xs:untypedAtomic":     {"", "plain", "white  space", "<&>\"'", "ünïcode ☃"},
	"xs:string":            {"", "hello", "a<b&c>d", "tab\tand\nnewline", "]]>"},
	"xs:anyURI":            {"http://example.com/a?b=c&d=e", "urn:x"},
	"xs:boolean":           {"true", "false"},
	"xs:integer":           {"0", "42", "-7", "9223372036854775807"},
	"xs:decimal":           {"3.14", "-0.5", "100"},
	"xs:double":            {"1.5E3", "-2.25", "0.5"},
	"xs:date":              {"2024-01-15", "1999-12-31"},
	"xs:time":              {"12:30:45", "00:00:00"},
	"xs:dateTime":          {"2024-01-15T12:30:45", "2000-02-29T23:59:59"},
	"xs:duration":          {"P1Y2M3DT4H5M6S", "PT0S"},
	"xs:yearMonthDuration": {"P2Y3M", "P1M"},
	"xs:dayTimeDuration":   {"P1DT2H", "PT3.5S"},
	"xs:QName":             {"local", "pre:fixed"},
}

// randomAtomic builds one typed atomic item from the pool.
func randomAtomic(t *testing.T, rng *rand.Rand) xdm.Item {
	t.Helper()
	names := make([]string, 0, len(atomicPool))
	for n := range atomicPool {
		names = append(names, n)
	}
	// Map iteration order is random; sort for reproducible rng use.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	name := names[rng.Intn(len(names))]
	lex := atomicPool[name][rng.Intn(len(atomicPool[name]))]
	typ, ok := xdm.AtomicTypeByName(strings.TrimPrefix(name, "xs:"))
	if !ok {
		t.Fatalf("unknown type %s", name)
	}
	v, err := xdm.Cast(xdm.String(lex), typ)
	if err != nil {
		t.Fatalf("pool value %q is not a valid %s: %v", lex, name, err)
	}
	return v
}

// randomNode builds a node item: an element with attributes and
// namespaces, or a document node carrying a base URI.
func randomNode(t *testing.T, rng *rand.Rand) xdm.Item {
	t.Helper()
	srcs := []string{
		`<r/>`,
		`<r id="1" class="x y"><c a="&lt;&amp;&gt;"/>text</r>`,
		`<a:root xmlns:a="urn:a" xmlns:b="urn:b"><b:kid b:attr="v"/></a:root>`,
		`<r>mixed <em>content</em> tail</r>`,
	}
	doc, err := markup.Parse(srcs[rng.Intn(len(srcs))])
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		doc.SetBaseURI("urn:doc-" + string(rune('a'+rng.Intn(26))))
		return xdm.NewNode(doc)
	}
	return xdm.NewNode(doc.DocumentElement())
}

// randomSequence builds up to seven items, a third of them nodes; the
// empty sequence included.
func randomSequence(t *testing.T, rng *rand.Rand) xdm.Sequence {
	n := rng.Intn(8)
	seq := make(xdm.Sequence, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			seq = append(seq, randomNode(t, rng))
		} else {
			seq = append(seq, randomAtomic(t, rng))
		}
	}
	return seq
}

// itemEq compares a decoded item against its original: nodes by
// serialization (plus document identity), atomics by type and lexical
// value.
func itemEq(t *testing.T, orig, got xdm.Item) bool {
	t.Helper()
	on, oIsNode := xdm.IsNode(orig)
	gn, gIsNode := xdm.IsNode(got)
	if oIsNode != gIsNode {
		return false
	}
	if oIsNode {
		if markup.Serialize(on) != markup.Serialize(gn) {
			return false
		}
		if on.Type == dom.DocumentNode && on.BaseURI() != "" {
			return gn.Type == dom.DocumentNode && gn.BaseURI() == on.BaseURI()
		}
		return true
	}
	return orig.Type() == got.Type() && orig.String() == got.String()
}

// TestWireRoundTripProperty: DecodeSequence(EncodeSequence(s)) == s
// over generated sequences of every atomic type, nodes with
// attributes and namespaces, documents with URIs, and the empty
// sequence.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		seq := randomSequence(t, rng)
		wire := EncodeSequence(seq)
		back, err := DecodeSequence(wire)
		if err != nil {
			t.Fatalf("trial %d: decode failed: %v\nwire: %s", trial, err, wire)
		}
		if len(back) != len(seq) {
			t.Fatalf("trial %d: %d items in, %d out\nwire: %s", trial, len(seq), len(back), wire)
		}
		for i := range seq {
			if !itemEq(t, seq[i], back[i]) {
				t.Fatalf("trial %d item %d: %v (%v) != %v (%v)\nwire: %s",
					trial, i, seq[i], seq[i].Type(), back[i], back[i].Type(), wire)
			}
		}
		// Keys line up with document items.
		_, keys, err := DecodeSequenceKeyed(wire)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			wantKey := ""
			if n, ok := xdm.IsNode(seq[i]); ok && n.Type == dom.DocumentNode {
				wantKey = n.BaseURI()
			}
			if keys[i] != wantKey {
				t.Fatalf("trial %d item %d: key %q, want %q", trial, i, keys[i], wantKey)
			}
		}
	}
}

// TestDecodedNodeIsDetached: a decoded node item is cut out of the
// <result> envelope it travelled in — an element has no parent and no
// document, a document item is a fresh document node carrying the
// encoded URI — and cutting one item out leaves its neighbours intact.
func TestDecodedNodeIsDetached(t *testing.T) {
	doc, err := markup.Parse(`<d id="1"><k>text &amp; more</k></d>`)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetBaseURI("urn:doc-1")
	seq := xdm.Sequence{xdm.NewNode(doc.DocumentElement()), xdm.NewNode(doc), xdm.NewNode(doc.DocumentElement())}
	back, keys, err := DecodeSequenceKeyed(EncodeSequence(seq))
	if err != nil || len(back) != 3 {
		t.Fatalf("decode: %v, %d items", err, len(back))
	}
	for i, it := range back {
		n, ok := xdm.IsNode(it)
		if !ok {
			t.Fatalf("item %d is not a node", i)
		}
		if n.Parent() != nil {
			t.Errorf("item %d still hangs off <%s>", i, n.Parent().Name)
		}
		if got, want := markup.Serialize(n), markup.Serialize(doc); got != want {
			t.Errorf("item %d = %s, want %s", i, got, want)
		}
		if i == 1 {
			if n.Type != dom.DocumentNode || n.BaseURI() != "urn:doc-1" || n.DocumentElement().Parent() != n ||
				n.DocumentElement().Base() != "urn:doc-1" || keys[i] != "urn:doc-1" {
				t.Errorf("document item: type %s, base %q, key %q", n.Type, n.BaseURI(), keys[i])
			}
		} else if n.Type != dom.ElementNode || n.Document() != nil || n.Base() != "" || keys[i] != "" {
			t.Errorf("element item %d: type %s, document %v, base %q, key %q", i, n.Type, n.Document(), n.Base(), keys[i])
		}
	}
}

// TestArgsRoundTrip covers the <args> framing around the item format.
func TestArgsRoundTrip(t *testing.T) {
	args := argsShapes(t)
	back, err := DecodeArgs(EncodeArgs(args))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(args) {
		t.Fatalf("%d args in, %d out", len(args), len(back))
	}
	for i := range args {
		if len(back[i]) != len(args[i]) {
			t.Fatalf("arg %d: %d items in, %d out", i, len(args[i]), len(back[i]))
		}
		for j := range args[i] {
			if !itemEq(t, args[i][j], back[i][j]) {
				t.Fatalf("arg %d item %d differs", i, j)
			}
		}
	}
}

// argsShapes are TestArgsRoundTrip's argument lists.
func argsShapes(t *testing.T) []xdm.Sequence {
	rng := rand.New(rand.NewSource(11))
	return []xdm.Sequence{
		{},
		{randomAtomic(t, rng)},
		{randomAtomic(t, rng), randomNode(t, rng), randomAtomic(t, rng)},
	}
}

// otherNodes are the node items randomNode never makes: a text node
// (empty too), a comment, an attribute, a processing instruction, a
// document without a URI and documents whose element has a comment
// before it, or that have no element.
func otherNodes(t *testing.T) xdm.Sequence {
	doc, err := markup.Parse(`<!--c--><?pi x?><r a="1">t</r>`)
	if err != nil {
		t.Fatal(err)
	}
	withURI, err := markup.Parse(`<!--c--><r/>`)
	if err != nil {
		t.Fatal(err)
	}
	withURI.SetBaseURI("urn:d")
	bare := dom.NewDocumentOf("urn:e", dom.NewComment("only"))
	el := doc.DocumentElement()
	return xdm.Sequence{
		xdm.NewNode(dom.NewText("a < b & c")), xdm.NewNode(dom.NewText("")),
		xdm.NewNode(dom.NewComment("note")), xdm.NewNode(el.Attrs()[0]),
		xdm.NewNode(dom.NewPI("pi", "x")), xdm.NewNode(doc), xdm.NewNode(withURI), xdm.NewNode(bare),
	}
}

// TestEnvelopeReaderMatchesDOMDecoder: the envelope reader and the DOM
// decoder it replaced (oracle_test.go) agree on every payload
// EncodeSequence and EncodeArgs write — TestWireRoundTripProperty's
// sequences, TestArgsRoundTrip's arguments, the node kinds neither
// makes — and on every strict prefix of each, which both refuse: a torn
// reply fails its attempt. Payloads the writer never writes but the
// reader reads (whitespace between items, attributes in another order
// or quote) decode as the oracle decodes them.
func TestEnvelopeReaderMatchesDOMDecoder(t *testing.T) {
	check := func(wire string, args bool) {
		t.Helper()
		same := sameDecoding
		if args {
			same = sameArgsDecoding
		}
		if err := same(wire, false); err != nil {
			t.Fatalf("%v\nwire: %s", err, wire)
		}
		if args {
			if _, err := DecodeArgs(wire); err != nil {
				t.Fatalf("refused: %v\nwire: %s", err, wire)
			}
		} else if _, err := DecodeSequence(wire); err != nil {
			t.Fatalf("refused: %v\nwire: %s", err, wire)
		}
		for i := 0; i < len(wire); i++ {
			if err := same(wire[:i], false); err != nil {
				t.Fatalf("prefix of %d bytes: %v\nwire: %s", i, err, wire)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		check(EncodeSequence(randomSequence(t, rng)), false)
	}
	check(EncodeSequence(otherNodes(t)), false)
	check(EncodeArgs(argsShapes(t)), true)
	check(EncodeArgs([]xdm.Sequence{otherNodes(t), {}}), true)
	check(EncodeArgs(nil), true)
	for _, wire := range []string{
		"\n<result>\n  <item type=\"xs:integer\">1</item>\n  <item kind=\"node\"><a/></item>\n</result>\n",
		`<result><item uri='urn:u' kind='node'><d/></item><item  type = "xs:string" >a &amp; b</item ></result >`,
		`<result><item type="xs:integer" uri="k">7</item><item kind="node" type="xs:string"><a/></item></result>`,
		`<result><item type="xs:zork">?</item><item>&#x41;&#66;</item></result>`,
		`<result><item kind="node" uri="a&lt;b">text<!--c--> more<b/></item></result>`,
		` <args> <arg> <item type="xs:string">s</item> </arg> <arg></arg> </args> `,
	} {
		args := strings.Contains(wire, "<args>")
		same := sameDecoding
		if args {
			same = sameArgsDecoding
		}
		if err := same(wire, false); err != nil {
			t.Errorf("%v\nwire: %s", err, wire)
		}
	}
}

// FuzzDecodeSequence: arbitrary bytes must decode or error, never
// panic; whatever the envelope reader accepts, the DOM decoder it
// replaced accepts with equal items (and the same holds for DecodeArgs);
// and anything that decodes must re-encode and decode again stably.
func FuzzDecodeSequence(f *testing.F) {
	f.Add("<result></result>")
	f.Add(`<result><item type="xs:integer">42</item></result>`)
	f.Add(`<result><item kind="node" uri="u"><d/></item></result>`)
	f.Add(`<result><item kind="node"><a b="c">t</a></item></result>`)
	f.Add(`<result><item type="xs:zork">?</item></result>`)
	f.Add(`<result><item `)
	f.Add(`<nonsense/>`)
	f.Add("")
	f.Add(string([]byte{0xff, 0xfe, '<', 'r', '>'}))
	f.Add(` <result> <item uri='u' kind="node"><a>x</a></item> <item type="xs:double">NaN</item> </result>`)
	f.Add(`<result><item kind="node">a &lt; b<!--c--></item><item kind="node"><?p d?></item></result>`)
	f.Add(`<args><arg><item type="xs:string">a&#10;b</item></arg><arg></arg></args>`)
	f.Fuzz(func(t *testing.T, src string) {
		if err := sameDecoding(src, true); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if err := sameArgsDecoding(src, true); err != nil {
			t.Fatalf("args %q: %v", src, err)
		}
		seq, err := DecodeSequence(src)
		if err != nil {
			return
		}
		wire := EncodeSequence(seq)
		again, err := DecodeSequence(wire)
		if err != nil {
			t.Fatalf("re-decode of re-encoded %q failed: %v (wire %q)", src, err, wire)
		}
		if len(again) != len(seq) {
			t.Fatalf("re-decode changed length: %d -> %d (src %q)", len(seq), len(again), src)
		}
	})
}
