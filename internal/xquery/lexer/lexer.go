// Package lexer tokenizes the extended XQuery dialect. XQuery has no
// reserved words — "div", "if" or "return" are legal element names — so
// the lexer emits Name tokens for everything word-shaped and the parser
// decides by grammatical position whether a name is a keyword. Direct
// element constructors are not tokenized here at all: the parser detects
// "<" at expression-primary position and switches to character-level
// scanning, using Reset to rewind this lexer.
package lexer

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies tokens.
type Kind int

// Token kinds.
const (
	EOF  Kind = iota
	Name      // QName or NCName, possibly a *-wildcard form
	Str       // string literal, Text holds the decoded value
	Int       // integer literal
	Dec       // decimal literal, Text holds the lexical form
	Dbl       // double literal
	Sym       // operator or punctuation, Text holds the symbol
)

// String names the kind.
func (k Kind) String() string {
	return [...]string{"EOF", "name", "string", "integer", "decimal", "double", "symbol"}[k]
}

// Token is one lexical token.
type Token struct {
	Kind   Kind
	Text   string // Str: decoded value; Sym: the symbol; numbers: lexical
	Prefix string // Name only; "*" for *:local wildcards
	Local  string // Name only; "*" for prefix:* wildcards
	IntVal int64
	FltVal float64
	Start  int // byte offset of the first character
	End    int // byte offset just past the token
	Line   int
	Col    int // 1-based column of the first character
}

// IsName reports whether the token is a Name with the given (unprefixed)
// local part — the parser's keyword test.
func (t Token) IsName(word string) bool {
	return t.Kind == Name && t.Prefix == "" && t.Local == word
}

// IsSym reports whether the token is the given symbol.
func (t Token) IsSym(s string) bool { return t.Kind == Sym && t.Text == s }

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "end of input"
	case Name:
		if t.Prefix != "" {
			return fmt.Sprintf("name %s:%s", t.Prefix, t.Local)
		}
		return fmt.Sprintf("name %s", t.Local)
	case Str:
		return fmt.Sprintf("string %q", t.Text)
	case Sym:
		return fmt.Sprintf("%q", t.Text)
	default:
		return fmt.Sprintf("%s %s", t.Kind, t.Text)
	}
}

// Error is a lexical error with position.
type Error struct {
	Offset int
	Line   int
	Col    int
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("xquery: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lexer is a pull tokenizer with arbitrary lookahead and rewind.
type Lexer struct {
	src string
	pos int
	// buf[head:] is the scanned lookahead. Next advances head rather
	// than reslicing buf, and PeekAt moves the lookahead to the front
	// when buf is full, so the buffer keeps its capacity, sized to the
	// deepest lookahead, and a parse does not reallocate it per token.
	buf  []Token
	head int
	err  *Error
	at   cursor
}

// cursor is the offset Line and Col were last asked about, its line
// (0-based) and the offset its line starts at. They count newlines from
// there, so a scan that asks in order counts each newline once.
type cursor struct{ off, line, lineStart int }

// New builds a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Src returns the full source text (for character-level constructor
// parsing in the parser).
func (l *Lexer) Src() string { return l.src }

// Err returns the first lexical error encountered, if any.
func (l *Lexer) Err() error {
	if l.err != nil {
		return l.err
	}
	return nil
}

// Line returns the 1-based line of a byte offset.
func (l *Lexer) Line(off int) int { return l.seek(off).line + 1 }

// Col returns the 1-based column (in bytes) of a byte offset.
func (l *Lexer) Col(off int) int {
	at := l.seek(off)
	return at.off - at.lineStart + 1
}

// seek moves the cursor to off (clamped to the source): on from where
// it is, counting the newlines passed, or back, after a Reset.
func (l *Lexer) seek(off int) *cursor {
	off = min(off, len(l.src))
	at := &l.at
	if off < at.off {
		at.line -= strings.Count(l.src[off:at.off], "\n")
		at.lineStart = strings.LastIndexByte(l.src[:off], '\n') + 1
	} else if seg := l.src[at.off:off]; strings.IndexByte(seg, '\n') >= 0 {
		at.line += strings.Count(seg, "\n")
		at.lineStart = at.off + strings.LastIndexByte(seg, '\n') + 1
	}
	at.off = off
	return at
}

// Reset rewinds the lexer to an absolute byte offset, dropping buffered
// lookahead. The parser uses it to hand source ranges to the
// character-level constructor scanner and to resume after it.
func (l *Lexer) Reset(off int) {
	l.pos = off
	l.buf, l.head = l.buf[:0], 0
}

// Pos returns the byte offset where the next token would start (after
// skipping whitespace and comments).
func (l *Lexer) Pos() int {
	if l.head < len(l.buf) {
		return l.buf[l.head].Start
	}
	save := l.pos
	l.skipSpace()
	p := l.pos
	l.pos = save
	return p
}

// Next consumes and returns the next token.
func (l *Lexer) Next() Token {
	if l.head < len(l.buf) {
		t := l.buf[l.head]
		l.head++
		return t
	}
	return l.scan()
}

// Peek returns the next token without consuming it.
func (l *Lexer) Peek() Token { return l.PeekAt(0) }

// PeekAt returns the k-th upcoming token (0 = next).
func (l *Lexer) PeekAt(k int) Token {
	for len(l.buf)-l.head <= k {
		if len(l.buf) == cap(l.buf) && l.head > 0 {
			l.buf, l.head = l.buf[:copy(l.buf, l.buf[l.head:])], 0
		}
		l.buf = append(l.buf, l.scan())
	}
	return l.buf[l.head+k]
}

func (l *Lexer) fail(format string, args ...any) Token {
	if l.err == nil {
		l.err = &Error{Offset: l.pos, Line: l.Line(l.pos), Col: l.Col(l.pos),
			Msg: fmt.Sprintf(format, args...)}
	}
	l.pos = len(l.src)
	return Token{Kind: EOF, Start: l.pos, End: l.pos, Line: l.Line(l.pos), Col: l.Col(l.pos)}
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			l.pos++
			continue
		}
		// Nested (: ... :) comments.
		if c == '(' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
			depth := 1
			l.pos += 2
			for l.pos < len(l.src) && depth > 0 {
				if strings.HasPrefix(l.src[l.pos:], "(:") {
					depth++
					l.pos += 2
				} else if strings.HasPrefix(l.src[l.pos:], ":)") {
					depth--
					l.pos += 2
				} else {
					l.pos++
				}
			}
			continue
		}
		return
	}
}

func isNCNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNCNameChar(c byte) bool {
	return isNCNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *Lexer) scan() Token {
	l.skipSpace()
	start := l.pos
	line, col := l.Line(start), l.Col(start)
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Start: start, End: start, Line: line, Col: col}
	}
	c := l.src[l.pos]

	switch {
	case isNCNameStart(c):
		return l.scanName(start, line, col)
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		return l.scanNumber(start, line, col)
	case c == '"' || c == '\'':
		return l.scanString(start, line, col)
	}

	// Multi-char symbols, longest first.
	for _, s := range []string{"!=", "<=", ">=", "<<", ">>", "//", "::", ":=", ".."} {
		if strings.HasPrefix(l.src[l.pos:], s) {
			l.pos += len(s)
			return Token{Kind: Sym, Text: s, Start: start, End: l.pos, Line: line, Col: col}
		}
	}
	// "*:name" wildcard.
	if c == '*' && l.pos+2 < len(l.src) && l.src[l.pos+1] == ':' && isNCNameStart(l.src[l.pos+2]) {
		l.pos += 2
		local := l.ncname()
		return Token{Kind: Name, Prefix: "*", Local: local, Start: start, End: l.pos, Line: line, Col: col}
	}
	switch c {
	case '(', ')', '[', ']', '{', '}', ',', ';', '$', '@', '.', '/', ':',
		'=', '<', '>', '+', '-', '*', '|', '?':
		l.pos++
		return Token{Kind: Sym, Text: string(c), Start: start, End: l.pos, Line: line, Col: col}
	}
	return l.fail("unexpected character %q", string(c))
}

func (l *Lexer) ncname() string {
	s := l.pos
	for l.pos < len(l.src) && isNCNameChar(l.src[l.pos]) {
		l.pos++
	}
	return l.src[s:l.pos]
}

func (l *Lexer) scanName(start, line, col int) Token {
	first := l.ncname()
	prefix, local := "", first
	// QName: colon immediately followed by an NCName or "*", with no
	// intervening space and not "::".
	if l.pos < len(l.src) && l.src[l.pos] == ':' && l.pos+1 < len(l.src) {
		next := l.src[l.pos+1]
		if next == ':' {
			// axis "::" — leave for symbol scanning
		} else if isNCNameStart(next) {
			l.pos++
			prefix, local = first, l.ncname()
		} else if next == '*' {
			l.pos += 2
			prefix, local = first, "*"
		}
	}
	return Token{Kind: Name, Prefix: prefix, Local: local, Start: start, End: l.pos, Line: line, Col: col}
}

func (l *Lexer) scanNumber(start, line, col int) Token {
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	isDec, isDbl := false, false
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		// ".." must not be eaten (1..2 is not valid anyway, but "1 .. 2"
		// range syntax does not exist; still, keep "." only when a digit
		// or nothing name-ish follows).
		if l.pos+1 >= len(l.src) || isDigit(l.src[l.pos+1]) {
			isDec = true
			l.pos++
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		p := l.pos + 1
		if p < len(l.src) && (l.src[p] == '+' || l.src[p] == '-') {
			p++
		}
		if p < len(l.src) && isDigit(l.src[p]) {
			isDbl = true
			l.pos = p
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
	}
	text := l.src[start:l.pos]
	// A number immediately followed by name characters is an error
	// ("123abc"), per the XQuery terminal rules.
	if l.pos < len(l.src) && isNCNameStart(l.src[l.pos]) {
		return l.fail("invalid numeric literal %q", text+string(l.src[l.pos]))
	}
	switch {
	case isDbl:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return l.fail("invalid double literal %q", text)
		}
		return Token{Kind: Dbl, Text: text, FltVal: f, Start: start, End: l.pos, Line: line, Col: col}
	case isDec:
		return Token{Kind: Dec, Text: text, Start: start, End: l.pos, Line: line, Col: col}
	default:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return l.fail("integer literal %q out of range", text)
		}
		return Token{Kind: Int, Text: text, IntVal: n, Start: start, End: l.pos, Line: line, Col: col}
	}
}

func (l *Lexer) scanString(start, line, col int) Token {
	quote := l.src[l.pos]
	l.pos++
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return l.fail("unterminated string literal")
		}
		c := l.src[l.pos]
		if c == quote {
			// Doubled quote is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				b.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: Str, Text: b.String(), Start: start, End: l.pos, Line: line, Col: col}
		}
		if c == '&' {
			s, n, ok := DecodeEntity(l.src[l.pos:])
			if !ok {
				return l.fail("invalid entity reference in string literal")
			}
			b.WriteString(s)
			l.pos += n
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
}

// DecodeEntity decodes a leading XML entity/character reference in s
// ("&lt;", "&#10;", "&#x41;", ...) returning the replacement text and
// the number of bytes consumed.
func DecodeEntity(s string) (string, int, bool) {
	if len(s) < 3 || s[0] != '&' {
		return "", 0, false
	}
	semi := strings.IndexByte(s, ';')
	if semi < 2 || semi > 12 {
		return "", 0, false
	}
	ent := s[1:semi]
	switch ent {
	case "lt":
		return "<", semi + 1, true
	case "gt":
		return ">", semi + 1, true
	case "amp":
		return "&", semi + 1, true
	case "quot":
		return `"`, semi + 1, true
	case "apos":
		return "'", semi + 1, true
	}
	if strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X") {
		n, err := strconv.ParseInt(ent[2:], 16, 32)
		if err != nil {
			return "", 0, false
		}
		return string(rune(n)), semi + 1, true
	}
	if strings.HasPrefix(ent, "#") {
		n, err := strconv.ParseInt(ent[1:], 10, 32)
		if err != nil {
			return "", 0, false
		}
		return string(rune(n)), semi + 1, true
	}
	return "", 0, false
}
