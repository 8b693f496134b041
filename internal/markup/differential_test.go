package markup

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dom"
)

// sameTree reports the first structural difference between two trees:
// kinds, expanded names and prefixes, data, attribute order, child
// boundaries and parent links.
func sameTree(got, want *dom.Node) error {
	if got.Type != want.Type || got.Name != want.Name || got.Data != want.Data || got.BaseURI() != want.BaseURI() {
		return fmt.Errorf("node %s %+v %q, want %s %+v %q", got.Type, got.Name, got.Data, want.Type, want.Name, want.Data)
	}
	if len(got.Attrs()) != len(want.Attrs()) {
		return fmt.Errorf("<%s>: %d attributes, want %d", got.Name, len(got.Attrs()), len(want.Attrs()))
	}
	for i, a := range got.Attrs() {
		if a.Parent() != got {
			return fmt.Errorf("<%s>: attribute %s has the wrong parent", got.Name, a.Name)
		}
		if err := sameTree(a, want.Attrs()[i]); err != nil {
			return err
		}
	}
	if len(got.Children()) != len(want.Children()) {
		return fmt.Errorf("<%s>: %d children, want %d", got.Name, len(got.Children()), len(want.Children()))
	}
	for i, c := range got.Children() {
		if c.Parent() != got {
			return fmt.Errorf("<%s>: child %d has the wrong parent", got.Name, i)
		}
		if err := sameTree(c, want.Children()[i]); err != nil {
			return err
		}
	}
	return nil
}

// diffSerialize checks every entry point of the writer kernel against
// the recursive oracle on one tree.
func diffSerialize(t testing.TB, n *dom.Node) {
	t.Helper()
	if got, want := Serialize(n), oracleSerialize(n); got != want {
		t.Fatalf("Serialize:\n got %q\nwant %q", got, want)
	}
	if got, want := SerializeHTML(n), oracleSerializeHTML(n); got != want {
		t.Fatalf("SerializeHTML:\n got %q\nwant %q", got, want)
	}
	if got, want := SerializeIndent(n), oracleSerializeIndent(n); got != want {
		t.Fatalf("SerializeIndent:\n got %q\nwant %q", got, want)
	}
	if got, want := string(AppendXML([]byte("pre"), n)), "pre"+oracleSerialize(n); got != want {
		t.Fatalf("AppendXML:\n got %q\nwant %q", got, want)
	}
	var w bytes.Buffer
	k, err := Write(&w, n, HTML)
	if want := oracleSerializeHTML(n); err != nil || w.String() != want || k != int64(len(want)) {
		t.Fatalf("Write: %d bytes, err %v:\n got %q\nwant %q", k, err, w.String(), want)
	}
}

// diffParse checks the parser against the oracle on one input: the same
// error (offset, line, message) or the same tree. The one accepted
// difference is the deliberate one: XML mode rejects a duplicate
// attribute the oracle's SetAttr silently merges.
func diffParse(t testing.TB, src string, mode Mode) {
	t.Helper()
	got, gerr := parse(src, mode)
	want, werr := oracleParse(src, mode)
	if gerr != nil && mode == XML && strings.HasPrefix(gerr.(*ParseError).Msg, "duplicate attribute ") {
		return // whatever the oracle made of the rest of the input
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("parse(%q, %d): error %v, oracle %v", src, mode, gerr, werr)
	}
	if gerr != nil {
		if g, w := gerr.(*ParseError), werr.(*ParseError); *g != *w {
			t.Fatalf("parse(%q, %d): error %+v, oracle %+v", src, mode, *g, *w)
		}
		return
	}
	if err := sameTree(got, want); err != nil {
		t.Fatalf("parse(%q, %d): %v", src, mode, err)
	}
	diffSerialize(t, got)
}

// mutate damages a document at a few places with bytes that matter to a
// parser, to reach the error paths and the HTML recovery rules.
func mutate(r *rand.Rand, src string) string {
	const alphabet = `<>/&;"'= !-?[]:#xaA1` + "\n"
	b := []byte(src)
	for k := 1 + r.Intn(3); k > 0 && len(b) > 0; k-- {
		i := r.Intn(len(b))
		switch r.Intn(3) {
		case 0:
			b[i] = alphabet[r.Intn(len(alphabet))]
		case 1:
			b = append(b[:i], b[i+1:]...)
		default:
			b = append(b[:i], append([]byte{alphabet[r.Intn(len(alphabet))]}, b[i:]...)...)
		}
	}
	return string(b)
}

// TestDifferentialRandomTrees: on random trees, their serializations and
// damaged copies of those, the kernels and the oracles agree.
func TestDifferentialRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		root := randomXMLTree(r, 4)
		diffSerialize(t, root)
		diffSerialize(t, dom.NewDocumentOf("urn:doc", root))
		for _, src := range []string{Serialize(root), SerializeHTML(root), SerializeIndent(root)} {
			for _, mode := range []Mode{XML, HTML} {
				diffParse(t, src, mode)
				for i := 0; i < 8; i++ {
					diffParse(t, mutate(r, src), mode)
				}
			}
		}
	}
}

// TestDifferentialHandWritten covers constructs the generator does not
// produce.
func TestDifferentialHandWritten(t *testing.T) {
	for _, src := range []string{
		``, `text only`, `<a`, `<a>`, `<a></b>`, `<a/><b/>`, `text<a/>`, ` <a/> `, `<a/>x`,
		`<?xml version="1.0"?><!DOCTYPE a [x]><a>pre<![CDATA[<c> & ]]>post<!-- c -->&amp;&#65;&#x42;</a>`,
		`<a>one<!DOCTYPE x>two</a>`, `<a><![CDATA[only]]></a>`, `<a><![CDATA[]]></a>`, `<a>]]></a>`,
		`<a xmlns="u" xmlns:p="v"><p:b p:c="d" c="e"><b xmlns=""/></p:b><q:r/></a>`,
		`<a xmlns:p="u" xmlns:q="u"><p:b></q:b></a>`, `<p:a xmlns:p="u"><p:a><p:a/></p:a></p:a>`,
		`<:a :b="c"/>`, `<a xmlns:="u"><b/></a>`, `<a xml:lang="en"/>`,
		`<a x="&quot;&amp;&apos;&lt;&gt;" y='"' z=""/>`, `<a x="1" y="&#10;2"/>`,
		`<a x="1" x="2"/>`, `<a xmlns:p="u" xmlns:q="u" p:x="1" q:x="2"/>`, `<a X="1" x="2">`, `<A x=""x="">0`,
		`<a x=1/>`, `<a x>`, `<a x=>`, `<a x="1`, `<a x="&bogus;"/>`, `<a>&bogus;</a>`, `<a>&`, `<a>& b</a>`,
		`<a>&nbsp;</a>`, `<a>&#xD800;&#0;&#1114112;&#x41zz;&#-5;&#+65;&#65 ;&#;&#x;</a>`,
		`<a>&thisnameisfartoolongtobeanentityreference;</a>`,
		`<a><?pi?><?pi   spaced  ?><?XML x?><?</a>`, `<a><!--x--><!-- -- --><!--</a>`,
		`<html><body><div id=x class='c d'>love</div><br><BR/><script>1<2 && "</b>"</script></body></html>`,
		`<script><![CDATA[ 1 < 2 ]]></script>`, `<script>  <![CDATA[x]]>  </script   >`, `<SCRIPT>a</ScRiPt >b`,
		`<script>never closed </scrip`, `<style></style>`, `<p:script xmlns:p="u">x</script>y</p:script>`,
		`<a><b></a>stray</b>`, `<div><p>one</div>two`, `<div>a</span>b</div>`, `</x>`, `<a></a></a>`, `<a></ a>`, `<a></a b>`,
		`<table><tr><td>1<td>2<tr><td>3</table>`, `<ul><li>a<li>b</ul><select><option>x<option selected>y</select>`,
		`<!DOCTYPE html><html><head><title>t</head><body onload=go()>`, `<input type=button value=Buy>`,
		"<a>\n<b>\n</a>", "<a\n x='1'\n y=2/>", "\ufeff<a/>", "<a>\x00\xff</a>", "<\xc3\xa9l\xc3\xa9ment/>",
		`<b>x</frag><i>y</i>`, `a</frag>b`, `x<a`, `<a/></frag>`,
	} {
		diffParse(t, src, XML)
		diffParse(t, src, HTML)
	}
}

// FuzzSerializeDifferential: whatever either parser accepts, both build
// the same tree from and every serializer entry point renders the same
// bytes for. The corpus is that of FuzzParse and FuzzParseHTML.
func FuzzSerializeDifferential(f *testing.F) {
	for _, s := range append(fuzzXMLSeeds, fuzzHTMLSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		diffParse(t, src, XML)
		diffParse(t, src, HTML)
	})
}
