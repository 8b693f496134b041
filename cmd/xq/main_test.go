package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuerySource(t *testing.T) {
	if src, err := querySource("1+1", "", nil); err != nil || src != "1+1" {
		t.Errorf("inline source: %q %v", src, err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "q.xq")
	if err := os.WriteFile(path, []byte("2+2"), 0o644); err != nil {
		t.Fatal(err)
	}
	if src, err := querySource("", path, nil); err != nil || src != "2+2" {
		t.Errorf("file source: %q %v", src, err)
	}
	if _, err := querySource("", filepath.Join(dir, "missing.xq"), nil); err == nil {
		t.Error("missing file must fail")
	}
}

func TestFileResolver(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.xml")
	if err := os.WriteFile(path, []byte(`<doc><x>1</x></doc>`), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := fileResolver(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.DocumentElement().Name.Local != "doc" || doc.Base() != path {
		t.Errorf("resolved doc wrong")
	}
	if _, err := fileResolver(filepath.Join(dir, "missing.xml")); err == nil {
		t.Error("missing doc must fail")
	}
	bad := filepath.Join(dir, "bad.xml")
	_ = os.WriteFile(bad, []byte("<unclosed"), 0o644)
	if _, err := fileResolver(bad); err == nil {
		t.Error("malformed doc must fail")
	}
}

func TestVarFlags(t *testing.T) {
	var v varFlags
	if err := v.Set("a=1"); err != nil {
		t.Fatal(err)
	}
	if err := v.Set("b=two=parts"); err != nil {
		t.Fatal(err)
	}
	if err := v.Set("novalue"); err == nil {
		t.Error("missing '=' must fail")
	}
	b := v.bindings()
	if len(b) != 2 {
		t.Fatalf("bindings = %v", b)
	}
	var empty varFlags
	if empty.bindings() != nil {
		t.Error("no flags should bind nothing")
	}
}

// TestAttributeAxisSkipsNamespaceDeclarations runs the command over a
// document whose root declares a prefix beside one attribute: the
// attribute axis holds the attribute only, and the written document
// keeps the declaration.
func TestAttributeAxisSkipsNamespaceDeclarations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ns.xml")
	if err := os.WriteFile(path, []byte(`<p:e xmlns:p="urn:p" k="1"><p:f/></p:e>`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ q, want string }{
		{`count(/*/@*)`, "1"},
		{`for $a in /*/@* return name($a)`, "k"},
		{`count(/*/@node()), count(/*/attribute()), count(//@*)`, "1 1 1"},
		{`/*`, `<p:e xmlns:p="urn:p" k="1"><p:f/></p:e>`},
	} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-ctx", path, "-q", tc.q}, nil, &out, &errOut); err != nil {
			t.Fatalf("%s: %v (%s)", tc.q, err, errOut.String())
		}
		if got := strings.TrimSpace(out.String()); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.q, got, tc.want)
		}
	}
}
