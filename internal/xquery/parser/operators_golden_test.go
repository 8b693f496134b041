package parser_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

var update = flag.Bool("update", false, "rewrite testdata/operators.golden")

// operatorSpellings is every binary operator spelling the expression
// grammar has, loosest level first.
var operatorSpellings = []string{
	"or", "and",
	"=", "!=", "<", "<=", ">", ">=", "eq", "ne", "lt", "le", "gt", "ge", "is", "<<", ">>",
	"to", "+", "-", "*", "div", "idiv", "mod", "|", "union", "intersect", "except",
}

// postfixForms are the operators whose right side is not an operand:
// a sequence type, a single type or a full-text selection.
var postfixForms = []string{
	"instance of xs:integer", "treat as xs:integer", "castable as xs:integer",
	"cast as xs:integer", `ftcontains "w"`,
}

// operatorCorpus is the query set TestOperatorTableGolden records:
// every ordered pair of operators, plain and with signed operands; each
// postfix form before and after each operator and after each other;
// and chains that must fail.
func operatorCorpus() []string {
	var out []string
	for _, a := range operatorSpellings {
		for _, b := range operatorSpellings {
			out = append(out,
				fmt.Sprintf("$a %s $b %s $c", a, b),
				fmt.Sprintf("-$a %s - -$b %s +$c", a, b))
		}
	}
	for _, f := range postfixForms {
		out = append(out, "$a "+f)
		for _, op := range operatorSpellings {
			out = append(out,
				fmt.Sprintf("$a %s %s $b", f, op),
				fmt.Sprintf("$a %s $b %s", op, f))
		}
		for _, g := range postfixForms {
			out = append(out, fmt.Sprintf("$a %s %s", f, g))
		}
	}
	return append(out,
		`1 = 2 = 3`, `1 eq 2 ne 3`, `1 to 2 to 3`, `$x cast as`, `1 +`,
		`$a instance of`, `$a treat`, `$a ftcontains`, "1 <\n  2 >\n  3")
}

// lexicalRE matches what a parse records but unparsed text does not
// carry: source positions and lexical name prefixes.
var lexicalRE = regexp.MustCompile(`At:ast\.Pos\{Line:\d+, Col:\d+\}|Prefix:"[^"]*"`)

// bindingRE matches the parser's binding numbers (ast.VarID), which the
// golden leaves out: the operator grammar does not decide them, and
// they count the declarations of the whole module.
var bindingRE = regexp.MustCompile(`, (?:Pos|Default)?ID:\d+`)

// TestOperatorTableGolden pins the operator grammar: the AST (%#v) or
// the syntax error, with its line:col, of every corpus query. Accepted
// queries also round-trip through ast.Unparse. Run with -update to
// regenerate testdata/operators.golden.
func TestOperatorTableGolden(t *testing.T) {
	var b strings.Builder
	for _, src := range operatorCorpus() {
		fmt.Fprintf(&b, "%q\n", src)
		e, err := parser.ParseExpr(src)
		if err != nil {
			fmt.Fprintf(&b, "\terror: %v\n", err)
			continue
		}
		fmt.Fprintf(&b, "\t%s\n", bindingRE.ReplaceAllString(fmt.Sprintf("%#v", e), ""))
		text, ok := ast.Unparse(e)
		if !ok {
			continue
		}
		back, err := parser.ParseModule(text)
		if err != nil {
			t.Errorf("%q unparsed to %q, which does not parse: %v", src, text, err)
			continue
		}
		want := lexicalRE.ReplaceAllString(bindingRE.ReplaceAllString(fmt.Sprintf("%#v", e), ""), "")
		if got := lexicalRE.ReplaceAllString(bindingRE.ReplaceAllString(fmt.Sprintf("%#v", back.Body), ""), ""); got != want {
			t.Errorf("%q unparsed to %q, which parses to a different tree:\n  want %s\n   got %s", src, text, want, got)
		}
	}
	golden := filepath.Join("testdata", "operators.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("operators.golden differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("operators.golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
