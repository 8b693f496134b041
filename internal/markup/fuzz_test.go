package markup

import "testing"

var fuzzXMLSeeds = []string{
	`<a/>`,
	`<a x="1">&lt;<b/>t</a>`,
	`<?xml version="1.0"?><!DOCTYPE a><a><![CDATA[x]]></a>`,
	`<a xmlns="u" xmlns:p="v"><p:b p:c="d"/></a>`,
	`<a>&#x41;&#66;</a>`,
	`<a`,
	`&bogus;`,
	``,
	`<r><d id="d0">x</d><d id="d1">y</d><d id="d2">z</d></r>`,
	`<a><b><c><d><e><f>deep</f></e></d></c></b></a>`,
	`<a x="&quot;&amp;&apos;" y=''/>`,
	`<p:a xmlns:p="u"><p:a><p:a/></p:a></p:a>`,
	`<a><?target data?><!--c--><![CDATA[]]></a>`,
	`<a>]]></a>`,
	`<a x="1" x="2"/>`,
	`<a xmlns:p="u"/><b/>`,
}

// FuzzParse: the XML parser must error or produce a tree — never panic.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzXMLSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		if doc, err := Parse(src); err == nil {
			// A successful parse must serialize and re-parse.
			out := Serialize(doc)
			if _, err := Parse(out); err != nil {
				t.Fatalf("serialize output does not re-parse: %q -> %q: %v", src, out, err)
			}
		}
	})
}

var fuzzHTMLSeeds = []string{
	`<html><body><div id=x>love</div><br><script>1<2</script></body></html>`,
	`<P>upper</p>`,
	`<a><b></a>stray</b>`,
	`text only`,
	`<input type=button value=Buy>`,
	`<table><tr><td>1<td>2<tr><td>3</table>`,
	`<div id="log"/><div id=log2 class='c d'>&nbsp;</div>`,
	`<!DOCTYPE html><html><head><title>t</head><body onload=go()>`,
	`<ul><li>a<li>b</ul><select><option>x<option selected>y</select>`,
}

// FuzzParseHTML: the lenient parser accepts nearly anything; it must
// never panic and its output must always serialize.
func FuzzParseHTML(f *testing.F) {
	for _, s := range fuzzHTMLSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		if doc, err := ParseHTML(src); err == nil {
			_ = SerializeHTML(doc)
		}
	})
}
