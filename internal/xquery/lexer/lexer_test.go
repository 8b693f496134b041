package lexer

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(t *testing.T, src string) []Token {
	t.Helper()
	l := New(src)
	var out []Token
	for {
		tok := l.Next()
		if err := l.Err(); err != nil {
			t.Fatalf("lex %q: %v", src, err)
		}
		if tok.Kind == EOF {
			return out
		}
		out = append(out, tok)
	}
}

func TestNames(t *testing.T) {
	toks := kinds(t, `foo bar:baz _x a-b a.b x123`)
	want := []struct{ prefix, local string }{
		{"", "foo"}, {"bar", "baz"}, {"", "_x"}, {"", "a-b"}, {"", "a.b"}, {"", "x123"},
	}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %d, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != Name || toks[i].Prefix != w.prefix || toks[i].Local != w.local {
			t.Errorf("token %d = %+v, want %v", i, toks[i], w)
		}
	}
}

func TestWildcardNames(t *testing.T) {
	toks := kinds(t, `p:* *:local *`)
	if toks[0].Kind != Name || toks[0].Prefix != "p" || toks[0].Local != "*" {
		t.Errorf("p:* = %+v", toks[0])
	}
	if toks[1].Kind != Name || toks[1].Prefix != "*" || toks[1].Local != "local" {
		t.Errorf("*:local = %+v", toks[1])
	}
	if !toks[2].IsSym("*") {
		t.Errorf("* = %+v", toks[2])
	}
}

func TestAxisColonColon(t *testing.T) {
	toks := kinds(t, `child::a`)
	if len(toks) != 3 || !toks[0].IsName("child") || !toks[1].IsSym("::") || !toks[2].IsName("a") {
		t.Errorf("tokens = %+v", toks)
	}
}

func TestNumbers(t *testing.T) {
	tests := []struct {
		src  string
		kind Kind
	}{
		{"0", Int}, {"42", Int}, {"4.2", Dec}, {".5", Dec}, {"5.", Dec},
		{"1e3", Dbl}, {"1.5E-2", Dbl}, {"2e+10", Dbl},
	}
	for _, tt := range tests {
		toks := kinds(t, tt.src)
		if len(toks) != 1 || toks[0].Kind != tt.kind {
			t.Errorf("%q = %+v, want kind %v", tt.src, toks, tt.kind)
		}
	}
	if toks := kinds(t, "42"); toks[0].IntVal != 42 {
		t.Error("IntVal wrong")
	}
	if toks := kinds(t, "1.5e1"); toks[0].FltVal != 15 {
		t.Error("FltVal wrong")
	}
}

func TestNumberFollowedByName(t *testing.T) {
	l := New("123abc")
	l.Next()
	if l.Err() == nil {
		t.Error("123abc must be a lexical error")
	}
}

func TestStrings(t *testing.T) {
	tests := []struct{ src, want string }{
		{`"hello"`, "hello"},
		{`'hello'`, "hello"},
		{`"it""s"`, `it"s`},
		{`'it''s'`, "it's"},
		{`"&lt;&gt;&amp;&quot;&apos;"`, `<>&"'`},
		{`"&#65;&#x42;"`, "AB"},
		{`""`, ""},
	}
	for _, tt := range tests {
		toks := kinds(t, tt.src)
		if len(toks) != 1 || toks[0].Kind != Str || toks[0].Text != tt.want {
			t.Errorf("%s = %+v, want %q", tt.src, toks, tt.want)
		}
	}
}

func TestStringErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `"&unknown;"`, `"&#zz;"`} {
		l := New(src)
		l.Next()
		if l.Err() == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestSymbols(t *testing.T) {
	toks := kinds(t, `( ) [ ] { } , ; $ @ . .. / // :: := = != < <= > >= << >> + - * | ?`)
	want := []string{"(", ")", "[", "]", "{", "}", ",", ";", "$", "@", ".",
		"..", "/", "//", "::", ":=", "=", "!=", "<", "<=", ">", ">=",
		"<<", ">>", "+", "-", "*", "|", "?"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %d, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if !toks[i].IsSym(w) {
			t.Errorf("token %d = %v, want %q", i, toks[i], w)
		}
	}
}

func TestComments(t *testing.T) {
	toks := kinds(t, `1 (: comment :) 2 (: nested (: inner :) outer :) 3`)
	if len(toks) != 3 {
		t.Fatalf("tokens = %+v", toks)
	}
	for i, tok := range toks {
		if tok.Kind != Int || tok.IntVal != int64(i+1) {
			t.Errorf("token %d = %+v", i, tok)
		}
	}
}

func TestPeekAndReset(t *testing.T) {
	l := New("a b c")
	if !l.Peek().IsName("a") || !l.PeekAt(1).IsName("b") || !l.PeekAt(2).IsName("c") {
		t.Fatal("peek wrong")
	}
	a := l.Next()
	if !a.IsName("a") {
		t.Fatal("next after peek wrong")
	}
	// Reset to b's start.
	b := l.Peek()
	l.Next()
	l.Next()
	if l.Peek().Kind != EOF {
		t.Fatal("not at EOF")
	}
	l.Reset(b.Start)
	if !l.Next().IsName("b") {
		t.Error("reset did not rewind")
	}
}

// The lookahead buffer is sized to the deepest peek, not to the input:
// a parser that always peeks one token past the one it consumes never
// drains the buffer, and consumed tokens must still give their slots
// back.
func TestLookaheadBufferStaysSmall(t *testing.T) {
	l := New(strings.Repeat("a + ", 5000))
	for i := 0; l.Peek().Kind != EOF; i++ {
		if got := l.PeekAt(1); i%2 == 0 && !got.IsSym("+") {
			t.Fatalf("token %d: peek past a = %s", i, got)
		}
		l.Next()
	}
	if cap(l.buf) > 8 {
		t.Errorf("lookahead buffer grew to %d tokens for a lookahead of 2", cap(l.buf))
	}
}

func TestLineNumbers(t *testing.T) {
	l := New("a\nb\n  c")
	if l.Next().Line != 1 || l.Next().Line != 2 || l.Next().Line != 3 {
		t.Error("line numbers wrong")
	}
}

func TestDotDisambiguation(t *testing.T) {
	// "." alone vs ".5" decimal vs "..".
	toks := kinds(t, `. .5 ..`)
	if !toks[0].IsSym(".") || toks[1].Kind != Dec || !toks[2].IsSym("..") {
		t.Errorf("tokens = %+v", toks)
	}
}

func TestDecodeEntity(t *testing.T) {
	tests := []struct {
		in  string
		out string
		n   int
		ok  bool
	}{
		{"&lt;x", "<", 4, true},
		{"&amp;", "&", 5, true},
		{"&#65;", "A", 5, true},
		{"&#x41;", "A", 6, true},
		{"&bogus;", "", 0, false},
		{"&", "", 0, false},
		{"&;", "", 0, false},
	}
	for _, tt := range tests {
		out, n, ok := DecodeEntity(tt.in)
		if ok != tt.ok || out != tt.out || (ok && n != tt.n) {
			t.Errorf("DecodeEntity(%q) = %q,%d,%v", tt.in, out, n, ok)
		}
	}
}

// Property: lexing never panics and always terminates for arbitrary
// input.
func TestLexerTotalityProperty(t *testing.T) {
	f := func(src string) bool {
		l := New(src)
		for i := 0; i < len(src)+10; i++ {
			if l.Next().Kind == EOF {
				return true
			}
		}
		return false // did not terminate within bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: token offsets are monotonically non-decreasing and within
// the source.
func TestTokenOffsetsProperty(t *testing.T) {
	f := func(src string) bool {
		l := New(src)
		prev := 0
		for {
			tok := l.Next()
			if tok.Kind == EOF {
				return true
			}
			if tok.Start < prev || tok.End < tok.Start || tok.End > len(src) {
				return false
			}
			prev = tok.End
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
